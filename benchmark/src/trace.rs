//! The benchmark's span recorder.
//!
//! Spans are taken from outside the program under test, around the calls
//! the benchmark makes into a layer; in-program tracing is a later change.
//! Each load thread appends to its own [`SpanLog`] (no locks on the timed
//! path); logs are merged and written as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the index of the enclosing span in the
/// same log (`NO_PARENT` for a root); spans of one request share
/// `request`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// An append-only span list owned by one thread.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch` (shared by every log of a
    /// run so merged spans line up).
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Append another thread's log, re-basing its parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time per span: its duration minus the part of that interval
    /// its direct children cover (children may overlap each other, so the
    /// covered part is the union of their intervals, clipped to the span).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, span.start_ns);
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name, in order of first appearance: how many, mean
    /// duration and mean self time, microseconds.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let total_ns = span.end_ns - span.start_ns;
            match rows.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total_ns;
                    row.3 += self_ns;
                }
                None => rows.push((span.name, 1, total_ns, self_ns)),
            }
        }
        rows.into_iter()
            .map(|(name, n, total, own)| {
                let per = |ns: u64| ns as f64 / n as f64 / 1e3;
                (name, n, per(total), per(own))
            })
            .collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut log = SpanLog::new(t0);
        let root = log.record("request", at(0), at(100), NO_PARENT, 1);
        // Two overlapping children cover 10..60; one sticks out past the
        // parent's end and is clipped to 90..100.
        log.record("send", at(10), at(40), root, 1);
        log.record("wait", at(30), at(60), root, 1);
        log.record("decode", at(90), at(120), root, 1);
        let self_ns = log.self_times_ns();
        assert_eq!(self_ns[0], 40_000);
        assert_eq!(self_ns[1], 30_000);
        assert_eq!(log.summary()[0], ("request", 1, 100.0, 40.0));
        assert_eq!(log.summary()[3], ("decode", 1, 30.0, 30.0));
    }

    #[test]
    fn absorbing_a_log_keeps_parent_links_pointing_at_the_same_spans() {
        let t0 = Instant::now();
        let mut a = SpanLog::new(t0);
        a.record("x", t0, t0, NO_PARENT, 1);
        let mut b = SpanLog::new(t0);
        let root = b.record("request", t0, t0, NO_PARENT, 2);
        b.record("send", t0, t0, root, 2);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.spans[1].parent, NO_PARENT);
    }
}
