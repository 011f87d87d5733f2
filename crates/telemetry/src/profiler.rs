//! In-process wall-clock sampling profiler.
//!
//! Collection drives the cooperative frame-stack registry in
//! `helios_types::profile`: every `interval` the collector snapshots
//! each registered thread's current logical stack (seqlock-protected —
//! a torn read counts as dropped, never as a corrupt stack) and folds
//! identical stacks into counts. The output is the collapsed/folded
//! format flamegraph tooling consumes directly:
//!
//! ```text
//! sew0r0-serve-0;serve;feature_gather 412
//! helios-kv-flush;flush_sst 9
//! sew0r0-updater-0;idle 2880
//! ```
//!
//! This is a *logical* profiler: frames are the phase annotations the
//! hot paths push (serve stages, flush/compact passes), not native call
//! frames — nothing in this workspace can unwind another thread's
//! native stack without a libc/backtrace dependency. See DESIGN.md's
//! "Resource observability" section for the trade-off discussion.

use crate::registry::{Counter, Registry};
use helios_types::profile::sample_stacks;
use helios_types::FxHashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest collection window `/profile` accepts.
pub const MAX_PROFILE_SECS: f64 = 30.0;
/// Default sampling interval (~200 Hz per thread).
pub const SAMPLE_INTERVAL: Duration = Duration::from_millis(5);

/// Collector handle: owns the `profiling.samples` / `profiling.dropped`
/// counters and renders folded-stack output on demand.
pub struct Profiler {
    samples: Arc<Counter>,
    dropped: Arc<Counter>,
}

impl Profiler {
    /// A profiler whose counters live in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Profiler {
            samples: registry.counter("profiling.samples", &[]),
            dropped: registry.counter("profiling.dropped", &[]),
        }
    }

    /// Sample every registered thread for `duration` at [`SAMPLE_INTERVAL`]
    /// and return the folded stacks, one `stack count` line each,
    /// sorted by descending count then stack. Blocks the calling thread
    /// for the whole window (the ops server serves connections
    /// sequentially, so a long profile delays other endpoints — keep
    /// windows short).
    pub fn collect_collapsed(&self, duration: Duration) -> String {
        let mut folded: FxHashMap<String, u64> = FxHashMap::default();
        let deadline = Instant::now() + duration;
        loop {
            let (stacks, dropped) = sample_stacks();
            self.samples.add(stacks.len() as u64);
            if dropped > 0 {
                self.dropped.add(dropped);
            }
            for s in stacks {
                *folded.entry(s).or_insert(0) += 1;
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(
                SAMPLE_INTERVAL.min(deadline.saturating_duration_since(Instant::now())),
            );
        }
        let mut lines: Vec<(String, u64)> = folded.into_iter().collect();
        lines.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut out = String::new();
        for (stack, count) in lines {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Total samples taken over this profiler's lifetime.
    pub fn samples_taken(&self) -> u64 {
        self.samples.get()
    }

    /// Total torn reads dropped.
    pub fn samples_dropped(&self) -> u64 {
        self.dropped.get()
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("samples", &self.samples.get())
            .field("dropped", &self.dropped.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_types::profile::{push_frame, register_thread, FrameLabel};

    static WORKING: FrameLabel = FrameLabel::new("working-hard");

    #[test]
    fn collects_folded_stacks_and_counts() {
        let registry = Registry::new();
        let profiler = Profiler::new(&registry);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let h = std::thread::spawn(move || {
            let _token = register_thread("profiler-test-busy");
            let _f = push_frame(&WORKING);
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let out = profiler.collect_collapsed(Duration::from_millis(120));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        h.join().unwrap();
        assert!(
            out.lines()
                .any(|l| l.starts_with("profiler-test-busy;working-hard ")),
            "missing busy stack:\n{out}"
        );
        // Every line is `stack count`.
        for line in out.lines() {
            let (_, count) = line.rsplit_once(' ').expect("folded line shape");
            count.parse::<u64>().expect("count parses");
        }
        assert!(profiler.samples_taken() > 0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("profiling.samples"), profiler.samples_taken());
    }
}
