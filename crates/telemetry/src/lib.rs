//! # helios-telemetry
//!
//! The unified observability layer for the Helios reproduction:
//!
//! - a **metrics [`registry`]** of named, labelled instruments
//!   ([`Counter`], [`Gauge`], log-bucketed [`Histogram`]) with lock-free
//!   hot-path recording and cross-worker snapshot/merge;
//! - flag-gated **span [`trace`]-ing** so one inference request or one
//!   graph update can be followed across threads and queues, dumpable as
//!   JSONL or chrome://tracing JSON;
//! - a periodic [`StatsReporter`] thread that refreshes pipeline gauges
//!   (mq consumer lag, actor mailbox depth, kvstore sizes) and prints
//!   snapshot tables;
//! - an **ops plane**: Prometheus text [`exposition`], an embedded
//!   dependency-free HTTP [`ops`] server (`/metrics`, `/healthz`,
//!   `/vars`, `/trace/start|stop`, `/recorder`), a sliding-window
//!   freshness [`slo`] tracker, and an always-on flight [`recorder`]
//!   ring that dumps JSONL on anomalies.
//!
//! [`metrics`] is the instrument layer (histogram buckets, throughput
//! meters, table rendering); the rest of this crate adds naming,
//! aggregation, tracing, and reporting on top.
//!
//! ## Environment variables
//!
//! | Variable          | Effect                                                        |
//! |-------------------|---------------------------------------------------------------|
//! | `HELIOS_STATS`    | `1`/`true`/`yes`: print a stats snapshot on exit              |
//! | `HELIOS_TRACE`    | `1`/`true`/`yes`: enable span tracing from startup            |
//! | `HELIOS_TRACE_SAMPLE` | head-sampling rate in `[0, 1]` (e.g. `0.01` = 1% of requests traced); setting it also enables tracing from startup |
//! | `HELIOS_OPS_ADDR` | bind address for the embedded ops HTTP server (e.g. `127.0.0.1:9100`; port `0` for ephemeral) |
//! | `HELIOS_CACHE_DIR`| base directory for hybrid (memory + disk) serving caches; unset keeps caches purely in memory |
//! | `HELIOS_MEM_BUDGET` | per-deployment memory budget in bytes (suffixes `k`/`m`/`g` accepted, e.g. `512m`); drives `mem.budget_fraction_permille` and the `/healthz` memory-pressure probe |

pub mod accept;
pub mod exposition;
pub mod mem;
pub mod metrics;
pub mod ops;
pub mod profiler;
pub mod recorder;
pub mod registry;
pub mod reporter;
pub mod retention;
pub mod slo;
pub mod trace;

pub use accept::{AcceptLoop, ConnMode};
pub use exposition::render_prometheus;
pub use mem::{MemAccountant, MemTick, MEM_BUDGET_FRACTION, MEM_BYTES};
pub use metrics::{Histogram, Snapshot, StopwatchGuard, Table, ThroughputMeter};
pub use ops::{DynRoutes, HealthReport, OpsServer, OpsState};
pub use profiler::Profiler;
pub use recorder::{EventKind, FlightEvent, FlightRecorder};
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use reporter::StatsReporter;
pub use retention::{RetainedTraces, TraceSummary};
pub use slo::{SloConfig, SloTracker};
pub use trace::{
    clear_spans, current_span_cursor, drain_spans, read_spans_since, set_trace_sample_rate,
    set_tracing, span, to_chrome_trace, to_jsonl, trace_sample_rate, tracing_enabled, SpanGuard,
    SpanRecord, TraceCtx,
};

use std::sync::{Arc, OnceLock};

/// The process-global registry, for components that are not owned by a
/// deployment (or tools that want one shared sink). Deployments create
/// their own [`Registry`] so parallel tests do not cross-contaminate.
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// Whether the boolean environment variable `name` is set to an enabling
/// value: `1`, `true`, or `yes`, case-insensitive. Unset or anything else
/// is `false`.
pub fn env_flag(name: &str) -> bool {
    match std::env::var(name) {
        Ok(v) => matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "yes"),
        Err(_) => false,
    }
}

/// Whether the `HELIOS_STATS` environment variable asks for a stats
/// snapshot on exit (`1`/`true`/`yes`, case-insensitive).
pub fn stats_env() -> bool {
    env_flag("HELIOS_STATS")
}

/// Whether the `HELIOS_TRACE` environment variable asks for tracing to be
/// enabled from startup (`1`/`true`/`yes`, case-insensitive).
pub fn trace_env() -> bool {
    env_flag("HELIOS_TRACE")
}

/// The `HELIOS_TRACE_SAMPLE` environment variable: head-sampling rate in
/// `[0, 1]` (out-of-range values are clamped at use). `Some(rate)` also
/// implies enabling tracing from startup — setting a sample rate without
/// tracing would be meaningless. Unset, empty, or unparsable is `None`.
pub fn trace_sample_env() -> Option<f64> {
    match std::env::var("HELIOS_TRACE_SAMPLE") {
        Ok(v) => v.trim().parse::<f64>().ok().filter(|r| r.is_finite()),
        Err(_) => None,
    }
}

/// The `HELIOS_OPS_ADDR` environment variable: bind address for the
/// embedded ops HTTP server (e.g. `127.0.0.1:9100`; use port `0` for an
/// ephemeral port). Unset or empty means no ops server.
pub fn ops_addr_env() -> Option<String> {
    match std::env::var("HELIOS_OPS_ADDR") {
        Ok(v) if !v.trim().is_empty() => Some(v.trim().to_string()),
        _ => None,
    }
}

/// The `HELIOS_CACHE_DIR` environment variable: base directory for the
/// serving workers' hybrid (memory + disk) sample caches. Unset or empty
/// means purely in-memory caches. Each call returns a fresh unique
/// subdirectory (pid + a process-local counter), so concurrently running
/// deployments — parallel tests, repeated bench phases — never discover
/// each other's SST files.
pub fn cache_dir_env() -> Option<std::path::PathBuf> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    match std::env::var("HELIOS_CACHE_DIR") {
        Ok(v) if !v.trim().is_empty() => {
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            Some(
                std::path::PathBuf::from(v.trim())
                    .join(format!("helios-{}-{seq}", std::process::id())),
            )
        }
        _ => None,
    }
}

/// The `HELIOS_MEM_BUDGET` environment variable: per-deployment memory
/// budget in bytes. Accepts a plain integer or a `k`/`m`/`g` suffix
/// (powers of 1024, case-insensitive): `536870912`, `512m`, `1g`.
/// Unset, empty, zero, or unparsable is `None` (no budget).
pub fn mem_budget_env() -> Option<u64> {
    match std::env::var("HELIOS_MEM_BUDGET") {
        Ok(v) => parse_bytes(&v),
        Err(_) => None,
    }
}

/// Parse a byte count with an optional `k`/`m`/`g` suffix (×1024 each,
/// case-insensitive). `None` for empty, zero, or unparsable input.
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim().to_ascii_lowercase();
    if s.is_empty() {
        return None;
    }
    let (num, shift) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(num) => match s.as_bytes()[s.len() - 1] {
            b'k' => (num, 10),
            b'm' => (num, 20),
            _ => (num, 30),
        },
        None => (s.as_str(), 0),
    };
    let n: u64 = num.trim().parse().ok()?;
    n.checked_shl(shift).filter(|&b| b > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bytes_suffixes() {
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("64k"), Some(64 << 10));
        assert_eq!(parse_bytes("512M"), Some(512 << 20));
        assert_eq!(parse_bytes(" 2g "), Some(2 << 30));
        assert_eq!(parse_bytes("0"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("nope"), None);
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("test.global_hits", &[]).add(2);
        global().counter("test.global_hits", &[]).incr();
        assert_eq!(global().snapshot().counter("test.global_hits"), 3);
    }

    #[test]
    fn env_flags_parse() {
        // Only exercises the parsing helpers against whatever the ambient
        // environment is; set/remove-var is process-global and racy with
        // parallel tests, so just call them.
        let _ = stats_env();
        let _ = trace_env();
        let _ = ops_addr_env();
        assert!(!env_flag("HELIOS_TEST_FLAG_THAT_IS_NEVER_SET"));
    }

    #[test]
    fn cache_dir_env_yields_unique_paths() {
        // Without the variable set, there is nothing to derive.
        if std::env::var("HELIOS_CACHE_DIR").is_err() {
            assert!(cache_dir_env().is_none());
            return;
        }
        let a = cache_dir_env().unwrap();
        let b = cache_dir_env().unwrap();
        assert_ne!(a, b, "two deployments must not share a cache dir");
    }
}
