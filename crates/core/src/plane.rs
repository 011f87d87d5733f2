//! The ops plane of one process: registry, flight recorder, memory
//! ledger, retained-trace store and profiler, plus the ops HTTP server
//! and the stats reporter that publish them. Built once per process from
//! the deployment config — by `HeliosDeployment` and by each launcher
//! host — so every role exports the same `/metrics`, `/recorder`,
//! `/traces` and `/profile`, and `/healthz` always carries the memory
//! probe. The tiers contribute their own probes and stats-tick shares;
//! the plane adds the base ones.

use crate::config::{HeliosConfig, FLIGHT_RECORDER_CAPACITY};
use helios_mq::Broker;
use helios_telemetry::ops::HealthProbe;
use helios_telemetry::{
    DynRoutes, EventKind, FlightRecorder, HealthReport, MemAccountant, OpsServer, OpsState,
    Profiler, Registry, RetainedTraces, StatsReporter,
};
use helios_types::{HeliosError, Result};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// One process's observability plumbing. See the module docs.
pub struct OpsPlane {
    registry: Arc<Registry>,
    recorder: Arc<FlightRecorder>,
    accountant: Arc<MemAccountant>,
    retained: Arc<RetainedTraces>,
    profiler: Arc<Profiler>,
    /// Paths registered after the ops server started (`/membership`,
    /// `/scale`); live even without a server, so registering is safe.
    routes: Arc<DynRoutes>,
    /// `HeliosConfig::ops_addr`: where [`OpsPlane::start_ops_server`]
    /// binds, if anywhere.
    ops_bind: Option<String>,
    stats_interval: Option<Duration>,
    ops: Option<OpsServer>,
    reporter: Option<StatsReporter>,
}

impl OpsPlane {
    /// Build the plane. The `HELIOS_TRACE_SAMPLE` override wins over
    /// `config.trace_sample` *and* force-enables tracing, so a deployed
    /// binary can be head-sampled without a code change; otherwise the
    /// config rate applies whenever tracing is switched on.
    pub fn new(config: &HeliosConfig) -> OpsPlane {
        match helios_telemetry::trace_sample_env() {
            Some(rate) => {
                helios_telemetry::set_tracing(true);
                helios_telemetry::set_trace_sample_rate(rate);
            }
            None => helios_telemetry::set_trace_sample_rate(config.trace_sample),
        }
        let registry = Arc::new(Registry::new());
        let accountant = Arc::new(MemAccountant::new(
            Arc::clone(&registry),
            config.memory_budget_bytes,
        ));
        let retained = Arc::new(RetainedTraces::new(
            config.retained_traces,
            config
                .trace_slow_threshold
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64,
        ));
        accountant.adopt("trace_retention", &[], retained.mem_gauge());
        let recorder = FlightRecorder::new(FLIGHT_RECORDER_CAPACITY);
        recorder.set_dump_dir(config.flight_dump_dir.clone());
        OpsPlane {
            profiler: Arc::new(Profiler::new(&registry)),
            registry,
            recorder,
            accountant,
            retained,
            routes: DynRoutes::new(),
            ops_bind: config.ops_addr.clone(),
            stats_interval: config.stats_interval,
            ops: None,
            reporter: None,
        }
    }

    /// The process's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The always-on flight recorder.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The memory ledger behind `mem.bytes{component,…}`.
    pub fn accountant(&self) -> &Arc<MemAccountant> {
        &self.accountant
    }

    /// The tail-sampled trace store behind `/traces`.
    pub(crate) fn retained(&self) -> &Arc<RetainedTraces> {
        &self.retained
    }

    /// Dynamic ops routes, served once the ops server runs.
    pub(crate) fn routes(&self) -> &Arc<DynRoutes> {
        &self.routes
    }

    /// Bind the ops server at `config.ops_addr` (no-op when unset). It
    /// serves `/metrics`, `/vars`, `/recorder`, `/traces`, `/profile`,
    /// `/trace/*` and the dynamic routes; `/healthz` runs the memory
    /// probe, then `probes` in order.
    pub fn start_ops_server(&mut self, probes: Vec<HealthProbe>) -> Result<()> {
        let Some(addr) = &self.ops_bind else {
            return Ok(());
        };
        let registry = Arc::clone(&self.registry);
        let mut state = OpsState::new(move || registry.snapshot())
            .recorder(Arc::clone(&self.recorder))
            .retained_traces(Arc::clone(&self.retained))
            .routes(Arc::clone(&self.routes))
            .profiler(Arc::clone(&self.profiler))
            .probe(memory_probe(Arc::clone(&self.accountant)));
        for probe in probes {
            state = state.probe(probe);
        }
        self.ops = Some(OpsServer::start(addr, state).map_err(HeliosError::Io)?);
        Ok(())
    }

    /// Bound address of the ops server, when one runs. With port `0`,
    /// this is where the ephemeral port shows up.
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(OpsServer::addr)
    }

    /// Start the `helios-stats` reporter every `config.stats_interval`
    /// (no-op when unset). Each tick runs the tiers' `tick`, then the
    /// base tick: fold `mq.dwell` into p50/p99 gauges, sweep freshly
    /// journaled spans into the retained-trace store, and export
    /// `mem.bytes`, raising `MemPressure` on the under→over crossing.
    pub fn start_reporter(&mut self, mut tick: impl FnMut() + Send + 'static) {
        let Some(interval) = self.stats_interval else {
            return;
        };
        let registry = Arc::clone(&self.registry);
        let recorder = Arc::clone(&self.recorder);
        let retained = Arc::clone(&self.retained);
        let accountant = Arc::clone(&self.accountant);
        self.reporter = Some(StatsReporter::start("helios-stats", interval, move || {
            tick();
            // Queue *time* next to queue *depth*: how long records sat
            // in the broker, not just how many.
            if let Some(dwell) = registry.snapshot().histogram_total("mq.dwell") {
                registry
                    .gauge("mq.dwell_p50_ns", &[])
                    .set(dwell.percentile(50.0).min(i64::MAX as u64) as i64);
                registry
                    .gauge("mq.dwell_p99_ns", &[])
                    .set(dwell.percentile(99.0).min(i64::MAX as u64) as i64);
            }
            retained.sweep();
            let mem = accountant.export();
            if mem.crossed_over {
                recorder.anomaly(
                    EventKind::MemPressure,
                    u32::MAX,
                    mem.total_bytes.max(0) as u64,
                    accountant.budget_bytes().unwrap_or(0),
                    mem.budget_fraction.map_or(0, |f| (f * 1000.0) as u64),
                );
            }
        }));
    }

    /// Stop the ops server, then the reporter — which flushes one final
    /// tick so the last interval's gauges are current. Call before
    /// stopping what they observe.
    pub fn shutdown(&mut self) {
        drop(self.ops.take());
        if let Some(r) = self.reporter.take() {
            r.stop();
        }
    }
}

/// Memory-pressure probe: `/healthz` flips only after two consecutive
/// over-budget export ticks ("sustained"), so one transient spike
/// between ticks doesn't flap the endpoint. With no budget configured it
/// reports bytes but never degrades.
fn memory_probe(accountant: Arc<MemAccountant>) -> HealthProbe {
    Box::new(move || {
        let total = accountant.total_bytes().max(0);
        match accountant.budget_bytes() {
            Some(budget) if accountant.sustained_over_budget(2) => HealthReport::new(
                "memory",
                false,
                format!("{total} bytes over budget {budget} (sustained)"),
            ),
            Some(budget) => {
                HealthReport::new("memory", true, format!("{total} bytes (budget {budget})"))
            }
            None => HealthReport::new("memory", true, format!("{total} bytes (no budget)")),
        }
    })
}

/// The `mq` probe over `broker`: healthy while every (group, topic)
/// consumer lag is within `max_lag`.
pub fn mq_probe(broker: &Arc<Broker>, max_lag: u64) -> HealthProbe {
    let broker = Arc::clone(broker);
    Box::new(move || {
        let report = broker.lag_report();
        match report.iter().max_by_key(|e| e.lag) {
            Some(e) if e.lag > max_lag => HealthReport::new(
                "mq",
                false,
                format!("lag {} on {}/{} (bound {max_lag})", e.lag, e.group, e.topic),
            ),
            Some(e) => {
                HealthReport::new("mq", true, format!("max lag {} (bound {max_lag})", e.lag))
            }
            None => HealthReport::new("mq", true, "no consumers"),
        }
    })
}
