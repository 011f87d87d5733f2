//! Tail-based trace retention: keep the traces worth looking at.
//!
//! Head sampling ([`crate::trace::set_trace_sample_rate`]) bounds how
//! many traces are *recorded*; this store bounds how many are *kept*.
//! [`RetainedTraces::sweep`] reads the per-thread span journals (non-
//! destructively, from a per-store cursor) and groups spans by trace
//! id; a trace is **interesting** when its root
//! span exceeded the slow threshold, or when instrumentation flagged it
//! ([`RetainedTraces::flag`]) for an error, decode failure, timeout, or
//! other anomaly. When the store is full, boring traces are evicted
//! first (oldest boring, then oldest interesting), so a slow or errored
//! request stays inspectable via the `/traces` ops endpoint long after
//! thousands of healthy ones have churned through.

use crate::trace::{json_escape, read_spans_since, SpanRecord};
use helios_types::{FxHashMap, MemGauge};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Accounted footprint of one retained span: the record itself plus its
/// owned thread-name string.
fn span_footprint(s: &SpanRecord) -> usize {
    std::mem::size_of::<SpanRecord>() + s.thread.len()
}

/// A one-line summary of a retained trace, as shown by `GET /traces`.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Trace id.
    pub trace: u64,
    /// Name of the root span (empty when the root has not been drained
    /// yet — the trace is still in flight or its journal unswept).
    pub root_name: &'static str,
    /// Number of spans collected so far.
    pub spans: usize,
    /// Root span duration in nanoseconds (0 until the root is seen).
    pub duration_ns: u64,
    /// Root span start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Why this trace is retained: `slow`, plus any flagged reasons
    /// (`error`, `decode_error`, ...). Empty means boring — first to go.
    pub reasons: Vec<&'static str>,
}

struct Entry {
    spans: Vec<SpanRecord>,
    reasons: Vec<&'static str>,
    root_name: &'static str,
    root_start_ns: u64,
    root_dur_ns: u64,
    seq: u64,
    /// Accounted bytes of `spans`, released on eviction.
    bytes: usize,
}

impl Entry {
    fn interesting(&self) -> bool {
        !self.reasons.is_empty()
    }
}

struct Inner {
    traces: FxHashMap<u64, Entry>,
    // Flags that arrived before any span of their trace was swept.
    pending_flags: FxHashMap<u64, Vec<&'static str>>,
    seq: u64,
}

/// Bounded store of retained traces. Shared between the instrumentation
/// (flagging), the stats reporter (periodic sweeps) and the ops server
/// (listing/fetching).
pub struct RetainedTraces {
    capacity: usize,
    slow_threshold_ns: u64,
    // Journal read position: sweeps copy spans out of the shared
    // per-thread journals non-destructively, so several independent
    // stores (and the drain-based tests/tools) can coexist in one
    // process without stealing each other's spans.
    cursor: AtomicU64,
    inner: Mutex<Inner>,
    /// Bytes of retained spans, exported as
    /// `mem.bytes{component=trace_retention}` once adopted by the
    /// deployment's accountant.
    mem: MemGauge,
}

impl RetainedTraces {
    /// A store holding at most `capacity` traces, classifying a trace as
    /// slow when its root span takes longer than `slow_threshold_ns`.
    pub fn new(capacity: usize, slow_threshold_ns: u64) -> RetainedTraces {
        RetainedTraces {
            capacity: capacity.max(1),
            slow_threshold_ns,
            cursor: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                traces: FxHashMap::default(),
                pending_flags: FxHashMap::default(),
                seq: 0,
            }),
            mem: MemGauge::new(),
        }
    }

    /// The store's byte gauge, for adoption into a [`crate::MemAccountant`].
    pub fn mem_gauge(&self) -> MemGauge {
        self.mem.clone()
    }

    /// Current accounted bytes of retained spans.
    pub fn retained_bytes(&self) -> i64 {
        self.mem.get()
    }

    /// The configured slow threshold, nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    /// Mark `trace` as interesting for `reason` (e.g. `error`,
    /// `decode_error`, `timeout`). Safe to call before the trace's spans
    /// have been swept; a no-op for the untraced id 0 or a duplicate
    /// reason.
    pub fn flag(&self, trace: u64, reason: &'static str) {
        if trace == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(e) = inner.traces.get_mut(&trace) {
            if !e.reasons.contains(&reason) {
                e.reasons.push(reason);
            }
        } else {
            let pending = inner.pending_flags.entry(trace).or_default();
            if !pending.contains(&reason) {
                pending.push(reason);
            }
            // Bound the pending map too: forget the excess arbitrarily
            // rather than grow without limit if spans never arrive.
            if inner.pending_flags.len() > self.capacity * 4 {
                let victim = inner.pending_flags.keys().next().copied();
                if let Some(v) = victim {
                    inner.pending_flags.remove(&v);
                }
            }
        }
    }

    /// Read every span recorded since the previous sweep out of the
    /// thread journals (non-destructively — other stores and the
    /// drain-based tooling keep their own view) and fold them in.
    /// Returns how many spans were ingested. Call periodically (the
    /// deployment's stats reporter does) and before serving `/traces`.
    pub fn sweep(&self) -> usize {
        // The cursor races benignly with concurrent sweeps of the same
        // store: both read overlapping windows, but ingest() appends
        // span records idempotently enough for a diagnostics store (a
        // duplicated span inflates the count, never loses a trace).
        // Sweeps are in practice single-threaded per store (reporter
        // tick or an ops request).
        let (spans, next) = read_spans_since(self.cursor.load(Ordering::Acquire));
        self.cursor.store(next, Ordering::Release);
        self.ingest(spans)
    }

    /// Fold externally drained spans in (exposed for tests and tools that
    /// manage their own journal draining).
    pub fn ingest(&self, spans: Vec<SpanRecord>) -> usize {
        let mut inner = self.inner.lock();
        let mut n = 0usize;
        for s in spans {
            if s.trace == 0 {
                continue;
            }
            n += 1;
            inner.seq += 1;
            let seq = inner.seq;
            let pending = inner.pending_flags.remove(&s.trace);
            let slow_threshold = self.slow_threshold_ns;
            let e = inner.traces.entry(s.trace).or_insert_with(|| Entry {
                spans: Vec::new(),
                reasons: Vec::new(),
                root_name: "",
                root_start_ns: 0,
                root_dur_ns: 0,
                seq,
                bytes: 0,
            });
            if let Some(flags) = pending {
                for r in flags {
                    if !e.reasons.contains(&r) {
                        e.reasons.push(r);
                    }
                }
            }
            if s.parent == 0 {
                e.root_name = s.name;
                e.root_start_ns = s.start_ns;
                e.root_dur_ns = s.end_ns.saturating_sub(s.start_ns);
                if e.root_dur_ns > slow_threshold && !e.reasons.contains(&"slow") {
                    e.reasons.push("slow");
                }
            }
            let fp = span_footprint(&s);
            e.bytes += fp;
            self.mem.add(fp);
            e.spans.push(s);
        }
        // Evict down to capacity: boring traces first, oldest first.
        while inner.traces.len() > self.capacity {
            let victim = inner
                .traces
                .iter()
                .min_by_key(|(_, e)| (e.interesting(), e.seq))
                .map(|(t, _)| *t);
            match victim {
                Some(t) => {
                    if let Some(e) = inner.traces.remove(&t) {
                        self.mem.sub(e.bytes);
                    }
                }
                None => break,
            }
        }
        n
    }

    /// Summaries of every retained trace, most recent root first
    /// (rootless traces sort last by arrival order).
    pub fn list(&self) -> Vec<TraceSummary> {
        let inner = self.inner.lock();
        let mut out: Vec<(u64, TraceSummary)> = inner
            .traces
            .iter()
            .map(|(t, e)| {
                (
                    e.seq,
                    TraceSummary {
                        trace: *t,
                        root_name: e.root_name,
                        spans: e.spans.len(),
                        duration_ns: e.root_dur_ns,
                        start_ns: e.root_start_ns,
                        reasons: e.reasons.clone(),
                    },
                )
            })
            .collect();
        out.sort_by_key(|(seq, s)| (std::cmp::Reverse(s.start_ns), std::cmp::Reverse(*seq)));
        out.into_iter().map(|(_, s)| s).collect()
    }

    /// All spans of one retained trace, sorted by start time.
    pub fn get(&self, trace: u64) -> Option<Vec<SpanRecord>> {
        let inner = self.inner.lock();
        inner.traces.get(&trace).map(|e| {
            let mut spans = e.spans.clone();
            spans.sort_by_key(|s| (s.start_ns, s.span));
            spans
        })
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().traces.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of retained traces that are interesting (slow/flagged).
    pub fn interesting(&self) -> usize {
        self.inner
            .lock()
            .traces
            .values()
            .filter(|e| e.interesting())
            .count()
    }

    /// The `GET /traces` body: a JSON array of summaries.
    pub fn list_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.list().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let reasons = s
                .reasons
                .iter()
                .map(|r| format!("\"{}\"", json_escape(r)))
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(
                out,
                "{{\"trace\":{},\"root\":\"{}\",\"spans\":{},\"duration_ns\":{},\"start_ns\":{},\"reasons\":[{}]}}",
                s.trace,
                json_escape(s.root_name),
                s.spans,
                s.duration_ns,
                s.start_ns,
                reasons,
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u64, span: u64, parent: u64, name: &'static str, dur: u64) -> SpanRecord {
        SpanRecord {
            trace,
            span,
            parent,
            name,
            start_ns: trace * 1000,
            end_ns: trace * 1000 + dur,
            thread: "t".into(),
        }
    }

    #[test]
    fn slow_traces_are_classified() {
        let store = RetainedTraces::new(8, 1_000_000);
        store.ingest(vec![
            rec(1, 10, 0, "serve", 2_000_000),
            rec(1, 11, 10, "hop", 500),
            rec(2, 20, 0, "serve", 100),
        ]);
        let list = store.list();
        assert_eq!(list.len(), 2);
        let slow = list.iter().find(|s| s.trace == 1).unwrap();
        assert_eq!(slow.reasons, vec!["slow"]);
        assert_eq!(slow.spans, 2);
        assert_eq!(slow.duration_ns, 2_000_000);
        let fast = list.iter().find(|s| s.trace == 2).unwrap();
        assert!(fast.reasons.is_empty());
    }

    #[test]
    fn boring_traces_evicted_first() {
        let store = RetainedTraces::new(3, 1_000_000);
        // Trace 1 is slow (interesting); traces 2..=5 are boring.
        store.ingest(vec![rec(1, 10, 0, "serve", 5_000_000)]);
        for t in 2..=5u64 {
            store.ingest(vec![rec(t, t * 10, 0, "serve", 100)]);
        }
        assert_eq!(store.len(), 3);
        assert!(store.get(1).is_some(), "interesting trace survives");
        assert!(store.get(2).is_none(), "oldest boring trace evicted");
        assert!(store.get(3).is_none(), "next boring trace evicted");
        assert!(store.get(5).is_some());
    }

    #[test]
    fn flags_arrive_before_or_after_spans() {
        let store = RetainedTraces::new(8, u64::MAX);
        store.flag(7, "decode_error"); // before any span
        store.ingest(vec![rec(7, 70, 0, "update", 10)]);
        store.flag(7, "timeout"); // after
        store.flag(7, "timeout"); // duplicate is a no-op
        store.flag(0, "error"); // untraced is a no-op
        let s = store.list().into_iter().find(|s| s.trace == 7).unwrap();
        assert_eq!(s.reasons, vec!["decode_error", "timeout"]);
        assert_eq!(store.interesting(), 1);
    }

    #[test]
    fn get_returns_sorted_spans_and_json_renders() {
        let store = RetainedTraces::new(8, u64::MAX);
        store.ingest(vec![
            SpanRecord {
                trace: 3,
                span: 31,
                parent: 30,
                name: "child",
                start_ns: 200,
                end_ns: 300,
                thread: "t".into(),
            },
            SpanRecord {
                trace: 3,
                span: 30,
                parent: 0,
                name: "root",
                start_ns: 100,
                end_ns: 400,
                thread: "t".into(),
            },
        ]);
        let spans = store.get(3).unwrap();
        assert_eq!(spans[0].name, "root");
        assert_eq!(spans[1].name, "child");
        assert!(store.get(99).is_none());
        let json = store.list_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"trace\":3"));
        assert!(json.contains("\"root\":\"root\""));
        assert!(json.contains("\"spans\":2"));
    }

    #[test]
    fn retained_bytes_rise_on_ingest_and_fall_on_eviction() {
        let store = RetainedTraces::new(2, 1_000_000);
        assert_eq!(store.retained_bytes(), 0);
        store.ingest(vec![rec(1, 10, 0, "serve", 100)]);
        let one = store.retained_bytes();
        assert_eq!(one as usize, std::mem::size_of::<SpanRecord>() + 1);
        store.ingest(vec![rec(2, 20, 0, "serve", 100)]);
        assert_eq!(store.retained_bytes(), 2 * one);
        // Third boring trace evicts the oldest: bytes stay at 2 traces.
        store.ingest(vec![rec(3, 30, 0, "serve", 100)]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.retained_bytes(), 2 * one);
        // The gauge handle observes the same cell.
        assert_eq!(store.mem_gauge().get(), 2 * one);
    }

    #[test]
    fn sweep_pulls_from_thread_journals() {
        use crate::trace::{clear_spans, set_tracing, span, TraceCtx};
        // Serialise against the trace tests (shared process-global state).
        let _g = crate::trace::test_gate();
        set_tracing(true);
        clear_spans();
        let ctx = TraceCtx::root();
        let trace_id = ctx.trace;
        {
            let _s = span("sweep.root", ctx);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_tracing(false);
        let store = RetainedTraces::new(8, 0);
        let swept = store.sweep();
        assert!(swept >= 1);
        assert!(store.get(trace_id).is_some());
        let s = store
            .list()
            .into_iter()
            .find(|s| s.trace == trace_id)
            .unwrap();
        assert!(s.reasons.contains(&"slow"), "threshold 0 flags everything");
    }
}
