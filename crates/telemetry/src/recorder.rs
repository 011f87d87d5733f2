//! Flight recorder: a fixed-size ring of recent pipeline events that can
//! be dumped to JSONL when something goes wrong.
//!
//! Tracing answers "where did this request go" but has to be switched on
//! *before* the interesting moment; the flight recorder is always on and
//! answers "what was the pipeline doing just now". Events are small and
//! fully numeric ([`FlightEvent`]: a kind tag plus three `u64` operands),
//! so recording allocates nothing and the ring's memory is bounded at
//! construction.
//!
//! Recording is wait-free for the writer: a relaxed `fetch_add` picks a
//! slot and a `try_lock` stores the event; if a reader (or a colliding
//! writer lapping the ring) holds that slot, the event is counted in
//! `dropped` instead of blocking the pipeline thread.
//!
//! [`FlightRecorder::anomaly`] records the triggering event and — when a
//! dump directory is configured — writes the entire ring to
//! `flight-<n>.jsonl` so post-hoc debugging does not require rerunning
//! the workload with tracing enabled.

use parking_lot::{Mutex, RwLock};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// What happened. The meaning of the `a`/`b`/`c` operands per kind is
/// documented on each variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A poll batch of sample-queue records landed in a serving cache.
    /// `a` = records applied, `b` = decode errors in the batch.
    UpdateApplied,
    /// A reservoir change fanned out to subscribers.
    /// `a` = hop, `b` = key vertex, `c` = subscriber count.
    HopExpanded,
    /// Sample-queue records failed to decode. `a` = error count.
    DecodeError,
    /// A kvstore background flush wrote one immutable memtable to an SST.
    /// `a` = entries written, `b` = memtable bytes, `c` = immutable
    /// memtables still pending on that store.
    Flush,
    /// A kvstore background compaction merged a run suffix. `a` = input
    /// runs merged, `b` = entries in the output, `c` = output SST bytes
    /// (0 when everything was dropped).
    Compaction,
    /// Periodic consumer-lag observation. `a` = total lag over all
    /// (group, topic) pairs, `b` = max single-pair lag.
    LagSample,
    /// A freshness probe completed. `a` = probe sequence number,
    /// `b` = marker-visible latency in nanoseconds (0 on timeout),
    /// `c` = 1 if the probe timed out.
    FreshnessProbe,
    /// The freshness SLO burn rate crossed 1.0 (budget burning faster
    /// than it accrues). `a` = burn rate ×1000 over the short window.
    SloBurn,
    /// `HeliosDeployment::quiesce` hit its deadline. `a` = remaining
    /// drain deficit (produced − consumed over all stages).
    QuiesceFailed,
    /// `start_from_checkpoint` found a different worker topology than the
    /// checkpoint was taken with. `a` = checkpointed logical serving
    /// workers, `b` = configured logical serving workers, `c` =
    /// checkpointed sampling workers.
    TopologyMismatch,
    /// The deployment's accounted memory crossed over
    /// `memory_budget_bytes` (rising edge, one event per crossing).
    /// `a` = total accounted bytes, `b` = budget bytes, `c` = budget
    /// fraction in permille.
    MemPressure,
}

impl EventKind {
    /// Stable lowercase tag used in dumps.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::UpdateApplied => "update_applied",
            EventKind::HopExpanded => "hop_expanded",
            EventKind::DecodeError => "decode_error",
            EventKind::Flush => "flush",
            EventKind::Compaction => "compaction",
            EventKind::LagSample => "lag_sample",
            EventKind::FreshnessProbe => "freshness_probe",
            EventKind::SloBurn => "slo_burn",
            EventKind::QuiesceFailed => "quiesce_failed",
            EventKind::TopologyMismatch => "topology_mismatch",
            EventKind::MemPressure => "mem_pressure",
        }
    }
}

/// One recorded pipeline event. `Copy`, fixed-size, no heap.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    /// Wall-clock nanoseconds since the UNIX epoch.
    pub ts_unix_nanos: u64,
    /// Event kind (fixes the meaning of `a`/`b`/`c`).
    pub kind: EventKind,
    /// Originating worker id (serving or sampling, per kind); `u32::MAX`
    /// when the event is deployment-wide.
    pub worker: u32,
    /// First operand.
    pub a: u64,
    /// Second operand.
    pub b: u64,
    /// Third operand.
    pub c: u64,
}

fn unix_nanos() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// The ring. Shared as `Arc<FlightRecorder>` between every pipeline
/// thread and the ops/reporter side.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightEvent>>>,
    cursor: AtomicUsize,
    dropped: AtomicU64,
    dumps: AtomicU64,
    dump_dir: RwLock<Option<PathBuf>>,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events (min 16).
    pub fn new(capacity: usize) -> Arc<FlightRecorder> {
        let capacity = capacity.max(16);
        Arc::new(FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            dump_dir: RwLock::new(None),
        })
    }

    /// Directory anomaly dumps are written to; `None` (the default)
    /// disables file dumps (the ring stays inspectable via
    /// [`FlightRecorder::to_jsonl`] and the ops server).
    pub fn set_dump_dir(&self, dir: Option<PathBuf>) {
        *self.dump_dir.write() = dir;
    }

    /// Record one event. Wait-free: never blocks the calling pipeline
    /// thread (a contended slot drops the event instead).
    pub fn record(&self, kind: EventKind, worker: u32, a: u64, b: u64, c: u64) {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        match self.slots[idx].try_lock() {
            Some(mut slot) => {
                *slot = Some(FlightEvent {
                    ts_unix_nanos: unix_nanos(),
                    kind,
                    worker,
                    a,
                    b,
                    c,
                });
            }
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Events dropped due to slot contention (diagnostic; normally 0).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of anomaly dumps triggered so far (whether or not a dump
    /// directory was configured).
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Copy out the ring's current contents, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> = self.slots.iter().filter_map(|s| *s.lock()).collect();
        out.sort_by_key(|e| e.ts_unix_nanos);
        out
    }

    /// The ring as JSONL, one event per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            let _ = writeln!(
                out,
                "{{\"ts_unix_nanos\":{},\"kind\":\"{}\",\"worker\":{},\"a\":{},\"b\":{},\"c\":{}}}",
                e.ts_unix_nanos,
                e.kind.tag(),
                e.worker,
                e.a,
                e.b,
                e.c,
            );
        }
        out
    }

    /// Record an anomaly event and dump the whole ring to
    /// `<dump_dir>/flight-<n>.jsonl`. Returns the written path, `None`
    /// when no dump directory is configured or the write failed (an
    /// observability failure must never take down the pipeline).
    pub fn anomaly(&self, kind: EventKind, worker: u32, a: u64, b: u64, c: u64) -> Option<PathBuf> {
        self.record(kind, worker, a, b, c);
        let n = self.dumps.fetch_add(1, Ordering::Relaxed);
        let dir = self.dump_dir.read().clone()?;
        let path = dir.join(format!("flight-{n}.jsonl"));
        self.dump_to(&path).ok()?;
        Some(path)
    }

    /// Write the ring to `path` as JSONL (creating parent directories).
    pub fn dump_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_jsonl())
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.cursor.load(Ordering::Relaxed))
            .field("dropped", &self.dropped())
            .field("dumps", &self.dumps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_events() {
        let r = FlightRecorder::new(16);
        for i in 0..40u64 {
            r.record(EventKind::LagSample, 0, i, 0, 0);
        }
        let events = r.events();
        assert_eq!(events.len(), 16);
        // Oldest entries were overwritten: every surviving `a` is >= 24.
        assert!(events.iter().all(|e| e.a >= 24), "{events:?}");
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn concurrent_recording_fills_ring() {
        let r = FlightRecorder::new(64);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..1000 {
                        r.record(EventKind::UpdateApplied, t, i, 0, 0);
                    }
                });
            }
        });
        let events = r.events();
        // Wait-free contract: each of the 4000 attempts either landed in
        // a slot or was counted dropped. Contention may drop a few, but
        // with ~62 attempts per slot the ring still ends full.
        assert_eq!(events.len(), 64);
        assert!(r.dropped() < 4000, "at least one record must land");
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let r = FlightRecorder::new(16);
        r.record(EventKind::DecodeError, 3, 7, 0, 0);
        r.record(EventKind::Flush, 1, 2, 9, 0);
        let jsonl = r.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"kind\":\"decode_error\""));
        assert!(jsonl.contains("\"worker\":3"));
        assert!(jsonl.contains("\"kind\":\"flush\""));
    }

    #[test]
    fn anomaly_dumps_when_dir_configured() {
        let dir = std::env::temp_dir().join(format!("helios-recorder-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = FlightRecorder::new(16);
        // No dir: anomaly still counted, no file.
        assert!(r
            .anomaly(EventKind::SloBurn, u32::MAX, 1500, 0, 0)
            .is_none());
        assert_eq!(r.dumps(), 1);
        r.set_dump_dir(Some(dir.clone()));
        r.record(EventKind::LagSample, 0, 42, 42, 0);
        let path = r
            .anomaly(EventKind::QuiesceFailed, u32::MAX, 9, 0, 0)
            .expect("dump path");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"kind\":\"quiesce_failed\""));
        assert!(body.contains("\"kind\":\"lag_sample\""));
        assert_eq!(r.dumps(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
