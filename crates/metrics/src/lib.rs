//! # helios-metrics
//!
//! Measurement infrastructure for the Helios reproduction: log-bucketed
//! latency histograms (the paper reports average and P99 latency
//! everywhere), throughput meters, and a fixed-width table printer used by
//! every experiment harness to emit the paper's rows/series.
//!
//! The histogram is HDR-style: the value range is covered by logarithmic
//! buckets with bounded relative error, so recording is a couple of
//! arithmetic ops and an atomic increment — cheap enough for per-request
//! recording on the serving hot path.

pub mod histogram;
pub mod table;
pub mod throughput;

pub use histogram::{Histogram, Snapshot};
pub use table::Table;
pub use throughput::ThroughputMeter;

use std::time::{Duration, Instant};

/// A scope timer: measures wall time from construction and records into a
/// histogram on [`StopwatchGuard::stop`] or on drop.
pub struct StopwatchGuard<'a> {
    hist: &'a Histogram,
    start: Instant,
    armed: bool,
}

impl<'a> StopwatchGuard<'a> {
    /// Start timing against `hist`.
    pub fn new(hist: &'a Histogram) -> Self {
        StopwatchGuard {
            hist,
            start: Instant::now(),
            armed: true,
        }
    }

    /// Stop and record, returning the elapsed duration.
    pub fn stop(mut self) -> Duration {
        let d = self.start.elapsed();
        self.hist.record_duration(d);
        self.armed = false;
        d
    }
}

impl Drop for StopwatchGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.hist.record_duration(self.start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_records_on_stop() {
        let h = Histogram::new();
        let g = StopwatchGuard::new(&h);
        std::thread::sleep(Duration::from_millis(2));
        let d = g.stop();
        assert!(d >= Duration::from_millis(2));
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn stopwatch_records_on_drop() {
        let h = Histogram::new();
        {
            let _g = StopwatchGuard::new(&h);
        }
        assert_eq!(h.snapshot().count, 1);
    }
}
