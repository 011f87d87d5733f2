//! Deployment configuration.

use helios_telemetry::SloConfig;
use helios_types::PartitionPolicy;
use std::path::PathBuf;
use std::time::Duration;

/// Configuration of the end-to-end freshness probe (see
/// `HeliosDeployment`): the coordinator periodically injects a marker
/// vertex update at ingestion and measures how long until it is visible
/// from the owning serving worker's cache.
#[derive(Debug, Clone)]
pub struct FreshnessConfig {
    /// How often a marker is injected.
    pub interval: Duration,
    /// How long one probe waits for its marker before counting a timeout.
    pub probe_timeout: Duration,
    /// Reserved vertex id used for markers. Pick an id outside the
    /// workload's vertex space so probes never collide with real data.
    pub marker_vertex: u64,
    /// Freshness SLO (objective + burn-rate windows) fed by the probes.
    pub slo: SloConfig,
}

impl Default for FreshnessConfig {
    fn default() -> Self {
        FreshnessConfig {
            interval: Duration::from_millis(100),
            probe_timeout: Duration::from_secs(2),
            marker_vertex: u64::MAX - 1,
            slo: SloConfig::default(),
        }
    }
}

/// Cache-updating threads per serving worker.
pub const UPDATER_THREADS: usize = 2;
/// Partitions per serving worker's sample queue. Topology-defining: every
/// process of a deployment creates its queues with this count.
pub const SAMPLE_QUEUE_PARTITIONS: u32 = 2;
/// Most records one worker consumer takes per poll.
pub const POLL_BATCH: usize = 1024;
/// How long an idle worker consumer's poll waits (its idle wake-up period).
pub const POLL_TIMEOUT: Duration = Duration::from_millis(20);
/// Most updates the sampling workers may have appended but not finished
/// before ingest waits for them. Without it a producer faster than the
/// samplers parks its whole lead in the update log and the shard
/// mailboxes, and peak memory follows scheduling luck.
pub const MAX_PENDING_UPDATES: u64 = 16 * POLL_BATCH as u64;
/// Capacity of the flight-recorder event ring (always on; a few KB).
pub const FLIGHT_RECORDER_CAPACITY: usize = 4096;
/// `/healthz`: max total sampling-shard mailbox backlog, and max drain
/// deficit, considered healthy.
pub const HEALTH_MAX_BACKLOG: u64 = 100_000;
/// `/healthz`: a registered worker whose last heartbeat is older than this
/// reads as dead and degrades health.
pub const HEALTH_WORKER_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration for a [`crate::HeliosDeployment`].
#[derive(Debug, Clone)]
pub struct HeliosConfig {
    /// Number of sampling workers (M).
    pub sampling_workers: usize,
    /// Number of serving workers (N).
    pub serving_workers: usize,
    /// Sampling threads (reservoir-table shards) per sampling worker.
    pub sampling_threads: usize,
    /// Replicas per serving worker (§4.1: "replicating the highly loaded
    /// serving workers based on the ad-hoc skewness"). Each replica
    /// consumes the same sample queue under its own consumer group and
    /// holds a full copy of the slice's cache; the front-end spreads
    /// requests across replicas round-robin.
    pub serving_replicas: usize,
    /// Edge partition policy for the update stream.
    pub policy: PartitionPolicy,
    /// Directory for the serving workers' hybrid sample caches; `None`
    /// keeps caches purely in memory. `Default::default()` seeds this
    /// from the `HELIOS_CACHE_DIR` environment variable (a unique
    /// per-deployment subdirectory), which is how CI runs the whole
    /// suite against hybrid caches on a tmpfs.
    pub cache_dir: Option<PathBuf>,
    /// KV shards per serving worker cache.
    pub cache_shards: usize,
    /// Memtable budget per cache shard before spilling to disk.
    pub cache_memtable_budget: usize,
    /// Runs (SSTs) a cache shard accumulates before the background
    /// compactor merges its oldest suffix (hybrid caches only).
    pub cache_l0_compact_trigger: usize,
    /// Immutable (rotated, not yet flushed) memtables a cache shard may
    /// hold before writers stall waiting on the flusher (hybrid only).
    pub cache_max_immutables: usize,
    /// Byte capacity of each hybrid cache's shared block cache of decoded
    /// SST granules; `0` disables block caching.
    pub cache_block_cache_bytes: usize,
    /// Refresh period of the process's `helios-stats` reporter (mq
    /// consumer lag, shard mailbox depth, cache sizes, `mem.bytes`, the
    /// retained-trace sweep) — in process and in every launcher worker;
    /// `None` disables the thread.
    pub stats_interval: Option<Duration>,
    /// Bind address for the process's embedded ops HTTP server
    /// (`/metrics`, `/healthz`, `/vars`, `/trace/*`, `/traces`,
    /// `/recorder`, `/profile`); `None` (the default) disables it. Use
    /// port `0` for an ephemeral port. The launcher's `--ops-addr` and,
    /// in the examples/bench, the `HELIOS_OPS_ADDR` env var feed this.
    pub ops_addr: Option<String>,
    /// End-to-end freshness probing; `None` (the default) disables it.
    /// Probes continuously inject marker updates, so quiesce-based tests
    /// should leave this off.
    pub freshness: Option<FreshnessConfig>,
    /// Directory anomaly flight dumps are written to; `None` keeps the
    /// ring in memory only (still visible via the ops server).
    pub flight_dump_dir: Option<PathBuf>,
    /// `/healthz`: max per-(group, topic) consumer lag considered healthy.
    pub health_max_lag: u64,
    /// Decode errors per stats tick that count as a spike and trigger a
    /// flight-recorder anomaly dump.
    pub decode_error_spike: u64,
    /// Routing-table slots seeds hash into before the slot→worker lookup;
    /// must be ≥ `serving_workers`. Every process of a deployment builds
    /// the same table from it.
    pub route_slots: u32,
    /// Probability in `[0, 1]` that a request/update with no upstream
    /// trace context starts a new trace (head sampling). `1.0` traces
    /// everything (tests), `0.01` is a production-style rate. The
    /// `HELIOS_TRACE_SAMPLE` environment variable overrides this *and*
    /// force-enables tracing, so a running binary can be sampled without
    /// a code change.
    pub trace_sample: f64,
    /// A trace whose root span is slower than this is retained in the
    /// tail-sampled trace store (`/traces`) even if nothing flagged it.
    pub trace_slow_threshold: Duration,
    /// Capacity of the retained-trace store backing `/traces`. Boring
    /// traces are evicted first once full.
    pub retained_traces: usize,
    /// Soft memory budget for everything the deployment's byte accountant
    /// tracks (memtables, block caches, SST indexes, serve scratch, mq
    /// logs, retained traces). `None` disables budget pressure: the
    /// `mem.bytes` gauges still export but `mem.budget_fraction_permille`
    /// stays 0 and `/healthz` never degrades on memory. Seeded from the
    /// `HELIOS_MEM_BUDGET` environment variable (`64m`, `2g`, plain
    /// bytes) by `Default::default()`.
    pub memory_budget_bytes: Option<u64>,
}

impl Default for HeliosConfig {
    fn default() -> Self {
        HeliosConfig {
            sampling_workers: 2,
            serving_workers: 2,
            sampling_threads: 2,
            serving_replicas: 1,
            policy: PartitionPolicy::BySrc,
            cache_dir: helios_telemetry::cache_dir_env(),
            cache_shards: 4,
            cache_memtable_budget: 16 << 20,
            cache_l0_compact_trigger: 4,
            cache_max_immutables: 4,
            cache_block_cache_bytes: 32 << 20,
            stats_interval: Some(Duration::from_millis(500)),
            ops_addr: None,
            freshness: None,
            flight_dump_dir: None,
            health_max_lag: 100_000,
            decode_error_spike: 100,
            route_slots: 64,
            trace_sample: 1.0,
            trace_slow_threshold: Duration::from_millis(10),
            retained_traces: 256,
            memory_budget_bytes: helios_telemetry::mem_budget_env(),
        }
    }
}

impl HeliosConfig {
    /// A deployment sized `(M sampling, N serving)` with sensible defaults
    /// elsewhere.
    pub fn with_workers(sampling: usize, serving: usize) -> Self {
        HeliosConfig {
            sampling_workers: sampling,
            serving_workers: serving,
            ..Default::default()
        }
    }

    /// Validate invariants; called by the deployment at start.
    pub fn validate(&self) -> helios_types::Result<()> {
        use helios_types::HeliosError::InvalidConfig;
        if self.sampling_workers == 0 {
            return Err(InvalidConfig("need at least one sampling worker".into()));
        }
        if self.serving_workers == 0 {
            return Err(InvalidConfig("need at least one serving worker".into()));
        }
        if self.sampling_threads == 0 {
            return Err(InvalidConfig("sampling threads must be positive".into()));
        }
        if self.serving_replicas == 0 {
            return Err(InvalidConfig(
                "each serving worker needs at least one replica".into(),
            ));
        }
        if self.cache_shards == 0 {
            return Err(InvalidConfig("caches need at least one shard".into()));
        }
        if self.cache_l0_compact_trigger == 0 {
            return Err(InvalidConfig(
                "cache compaction trigger must be positive".into(),
            ));
        }
        if self.cache_max_immutables == 0 {
            return Err(InvalidConfig(
                "caches need room for at least one immutable memtable".into(),
            ));
        }
        if self.stats_interval == Some(Duration::ZERO) {
            return Err(InvalidConfig(
                "stats interval must be positive (or None to disable)".into(),
            ));
        }
        if let Some(f) = &self.freshness {
            if f.interval.is_zero() || f.probe_timeout.is_zero() {
                return Err(InvalidConfig(
                    "freshness interval and probe timeout must be positive".into(),
                ));
            }
        }
        if self.decode_error_spike == 0 {
            return Err(InvalidConfig(
                "decode-error spike threshold must be positive".into(),
            ));
        }
        if (self.route_slots as usize) < self.serving_workers {
            return Err(InvalidConfig(
                "route_slots must be >= serving_workers".into(),
            ));
        }
        if !self.trace_sample.is_finite() || !(0.0..=1.0).contains(&self.trace_sample) {
            return Err(InvalidConfig(
                "trace sample rate must be a probability in [0, 1]".into(),
            ));
        }
        if self.trace_slow_threshold.is_zero() {
            return Err(InvalidConfig(
                "trace slow threshold must be positive".into(),
            ));
        }
        if self.retained_traces == 0 {
            return Err(InvalidConfig(
                "retained-trace store needs a positive capacity".into(),
            ));
        }
        if self.memory_budget_bytes == Some(0) {
            return Err(InvalidConfig(
                "memory budget must be positive (or None to disable)".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(HeliosConfig::default().validate().is_ok());
    }

    #[test]
    fn with_workers_sets_counts() {
        let c = HeliosConfig::with_workers(4, 6);
        assert_eq!(c.sampling_workers, 4);
        assert_eq!(c.serving_workers, 6);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        for f in [
            |c: &mut HeliosConfig| c.sampling_workers = 0,
            |c: &mut HeliosConfig| c.serving_workers = 0,
            |c: &mut HeliosConfig| c.sampling_threads = 0,
            |c: &mut HeliosConfig| c.serving_replicas = 0,
            |c: &mut HeliosConfig| c.cache_shards = 0,
            |c: &mut HeliosConfig| c.cache_l0_compact_trigger = 0,
            |c: &mut HeliosConfig| c.cache_max_immutables = 0,
            |c: &mut HeliosConfig| c.stats_interval = Some(Duration::ZERO),
            |c: &mut HeliosConfig| {
                c.freshness = Some(FreshnessConfig {
                    interval: Duration::ZERO,
                    ..Default::default()
                })
            },
            |c: &mut HeliosConfig| c.decode_error_spike = 0,
            |c: &mut HeliosConfig| c.route_slots = 1,
            |c: &mut HeliosConfig| c.trace_sample = -0.1,
            |c: &mut HeliosConfig| c.trace_sample = 1.5,
            |c: &mut HeliosConfig| c.trace_sample = f64::NAN,
            |c: &mut HeliosConfig| c.trace_slow_threshold = Duration::ZERO,
            |c: &mut HeliosConfig| c.retained_traces = 0,
            |c: &mut HeliosConfig| c.memory_budget_bytes = Some(0),
        ] {
            let mut c = HeliosConfig::default();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }
}
