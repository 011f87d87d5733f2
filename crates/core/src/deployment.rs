//! Wiring a full Helios deployment (Fig. 5) in one process, with threads
//! standing in for machines: the [`SamplingTier`] plus N in-process
//! serving workers on the tier's broker.

use crate::config::{FreshnessConfig, HeliosConfig};
use crate::coordinator::Coordinator;
use crate::sampler::{SamplerMetrics, SamplingWorker};
use crate::serving::ServingWorker;
use crate::tier::{SamplingTier, Watermarks};
use helios_membership::Router;
use helios_metrics::Histogram;
use helios_mq::Broker;
use helios_query::{KHopQuery, SampledSubgraph};
use helios_telemetry::{
    span, DynRoutes, EventKind, FlightRecorder, HealthReport, MemAccountant, OpsServer, OpsState,
    Profiler, Registry, RegistrySnapshot, RetainedTraces, SloTracker, StatsReporter, TraceCtx,
};
use helios_types::{
    GraphUpdate, HeliosError, Result, ServingWorkerId, Timestamp, VertexId, VertexUpdate,
};
use parking_lot::RwLock;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stops the freshness-probe thread on drop.
struct FreshnessProber {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for FreshnessProber {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Stops the periodic checkpoint trigger on drop.
pub struct CheckpointGuard {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for CheckpointGuard {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The live serving fleet. Replaced wholesale (an `Arc` swap behind the
/// deployment's lock) when a rescale commits, so every reader — serve
/// paths, probes, the stats reporter — grabs a consistent snapshot and
/// never observes a half-extended set.
pub(crate) struct ServingSet {
    /// Replicas per logical worker.
    pub(crate) replicas: usize,
    /// Flat `[sew0-r0, sew0-r1, …, sew1-r0, …]`: index = sew * replicas + r.
    pub(crate) workers: Vec<Arc<ServingWorker>>,
}

impl ServingSet {
    /// Number of logical serving workers.
    pub(crate) fn logical(&self) -> usize {
        self.workers.len() / self.replicas
    }

    /// All replicas of logical worker `sew`.
    pub(crate) fn replicas_of(&self, sew: u32) -> &[Arc<ServingWorker>] {
        let base = sew as usize * self.replicas;
        &self.workers[base..base + self.replicas]
    }

    /// The drain equation with this set's replicas consuming the tier's
    /// sample queues: every replica applies its logical worker's whole
    /// queue, and malformed records are counted, never applied — both
    /// tallies drain it.
    fn watermarks(&self, tier: &SamplingTier) -> Watermarks {
        let mut w = tier.watermarks(self.logical() as u32);
        w.replicas = self.replicas as u64;
        for s in &self.workers {
            w.queues[s.id().0 as usize].applied += s.applied() + s.decode_errors();
        }
        w
    }
}

/// Shared handle to the live serving set, cloned into monitor threads.
type SharedServing = Arc<RwLock<Arc<ServingSet>>>;

/// A running Helios deployment: coordinator + the sampling tier (M
/// sampling workers) + N serving workers on the tier's broker.
pub struct HeliosDeployment {
    pub(crate) config: HeliosConfig,
    pub(crate) coordinator: Coordinator,
    /// Topics, router and sampling workers. The router is epoch-versioned
    /// and shared with every sampling worker: the front-end routes serves
    /// through it; a rescale installs the committed table there after the
    /// handoff watermark.
    pub(crate) tier: Arc<SamplingTier>,
    /// The live serving fleet; swapped at rescale commit.
    pub(crate) serving: SharedServing,
    /// Round-robin cursor for spreading requests over replicas.
    replica_rr: std::sync::atomic::AtomicU64,
    /// Per-deployment telemetry registry: every worker's counters,
    /// gauges and latency histograms, queryable by name.
    pub(crate) telemetry: Arc<Registry>,
    /// Periodic pipeline-lag monitor; `None` when disabled by config.
    reporter: Option<StatsReporter>,
    /// Always-on ring of recent pipeline events, dumped on anomalies.
    pub(crate) recorder: Arc<FlightRecorder>,
    /// Tail-sampled trace store behind `/traces`: keeps slow, errored and
    /// timed-out traces, evicting boring ones first.
    retained: Arc<RetainedTraces>,
    /// Front-end routing time (owner lookup + replica pick), the serve
    /// path's "route" stage — an add-on to `serving.latency`, which the
    /// per-stage histograms sum to.
    route_latency: Arc<Histogram>,
    /// End-to-end freshness SLO fed by the prober (empty when probing is
    /// disabled; burn rates read 0 with no samples).
    pub(crate) slo: Arc<SloTracker>,
    /// Serializes rescales: one `scale_to` (manual, ops-triggered or
    /// autoscaler-driven) at a time.
    pub(crate) rescale_lock: parking_lot::Mutex<()>,
    /// Lowest epoch the next rescale attempt may use; advanced past every
    /// attempt (committed *or* abandoned), so a retry never reuses an
    /// abandoned attempt's epoch and its watermarks can only be satisfied
    /// by the retry's own scans. Only touched under `rescale_lock`.
    pub(crate) next_rescale_epoch: std::sync::atomic::AtomicU64,
    /// Post-construction ops endpoints (`/scale`); live even when the ops
    /// server is disabled so registration is always safe.
    pub(crate) dyn_routes: Arc<DynRoutes>,
    /// Marker-injection thread; `None` when freshness probing is off.
    prober: Option<FreshnessProber>,
    /// Embedded ops HTTP server; `None` unless `config.ops_addr` is set.
    ops: Option<OpsServer>,
    /// Deployment-wide memory ledger: every component's byte gauge,
    /// exported as `mem.bytes{component,…}` each stats tick and judged
    /// against `config.memory_budget_bytes`.
    pub(crate) accountant: Arc<MemAccountant>,
}

/// Register one serving worker's memory gauges with the accountant. The
/// per-replica block-cache/SST-index cells are shared between the
/// worker's two kvstores; `adopt` dedups by cell so calling this once per
/// worker is exact. Used at startup and by the rescale scale-out path.
pub(crate) fn adopt_serving_mem(accountant: &MemAccountant, w: &ServingWorker) {
    let sw = w.id().0.to_string();
    let r = w.replica().to_string();
    let labels: &[(&str, &str)] = &[("worker", &sw), ("replica", &r)];
    let g = w.mem_gauges();
    accountant.adopt("sample_table", labels, g.sample_table.clone());
    accountant.adopt("feature_table", labels, g.feature_table.clone());
    accountant.adopt("block_cache", labels, g.block_cache.clone());
    accountant.adopt("sst_index", labels, g.sst_index.clone());
    accountant.adopt("serve_scratch", labels, g.serve_scratch.clone());
}

impl HeliosDeployment {
    /// Start a deployment for one registered sampling query.
    pub fn start(config: HeliosConfig, query: KHopQuery) -> Result<HeliosDeployment> {
        Self::start_inner(config, query, None)
    }

    /// Start and restore sampling-worker state from a checkpoint
    /// directory written by [`HeliosDeployment::checkpoint`]. The worker
    /// counts and query must match the checkpointing deployment.
    pub fn start_from_checkpoint(
        config: HeliosConfig,
        query: KHopQuery,
        dir: &Path,
    ) -> Result<HeliosDeployment> {
        Self::start_inner(config, query, Some(dir))
    }

    fn start_inner(
        config: HeliosConfig,
        query: KHopQuery,
        restore_dir: Option<&Path>,
    ) -> Result<HeliosDeployment> {
        config.validate()?;
        let coordinator = Coordinator::new(query.clone());
        let mut tier = SamplingTier::create(&config)?;
        let telemetry = Arc::new(Registry::new());

        // Memory ledger: adopt every component gauge as it is created, so
        // one `export` tick publishes the whole deployment's footprint.
        let accountant = Arc::new(MemAccountant::new(
            Arc::clone(&telemetry),
            config.memory_budget_bytes,
        ));
        accountant.adopt("mq_log", &[], tier.mq_log_gauge().clone());

        // Tracing control. The HELIOS_TRACE_SAMPLE env override wins over
        // the config rate *and* force-enables tracing, so a deployed
        // binary can be head-sampled without a code change; otherwise the
        // config rate applies whenever tracing is switched on.
        match helios_telemetry::trace_sample_env() {
            Some(rate) => {
                helios_telemetry::set_tracing(true);
                helios_telemetry::set_trace_sample_rate(rate);
            }
            None => helios_telemetry::set_trace_sample_rate(config.trace_sample),
        }
        let retained = Arc::new(RetainedTraces::new(
            config.retained_traces,
            config
                .trace_slow_threshold
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64,
        ));
        accountant.adopt("trace_retention", &[], retained.mem_gauge());
        let route_latency = telemetry.histogram("router.route_latency", &[]);

        let recorder = FlightRecorder::new(config.flight_recorder_capacity);
        recorder.set_dump_dir(config.flight_dump_dir.clone());
        let slo = Arc::new(SloTracker::new(
            config
                .freshness
                .as_ref()
                .map(|f| f.slo.clone())
                .unwrap_or_default(),
        ));
        // Serving workers before sampling workers, so sample topics have
        // consumers early.
        let n = config.serving_workers as u32;
        let replicas = config.serving_replicas as u32;
        let mut workers = Vec::with_capacity((n * replicas) as usize);
        for s in 0..n {
            for r in 0..replicas {
                let beacon = coordinator.register_worker(&format!("sew{s}-r{r}"));
                let worker = ServingWorker::start(
                    ServingWorkerId(s),
                    r,
                    &config,
                    &query,
                    tier.broker(),
                    beacon,
                    &telemetry,
                    &recorder,
                )?;
                adopt_serving_mem(&accountant, &worker);
                workers.push(worker);
            }
        }
        let serving: SharedServing = Arc::new(RwLock::new(Arc::new(ServingSet {
            replicas: replicas as usize,
            workers,
        })));

        tier.start_workers(&query, &coordinator, &telemetry, &recorder, restore_dir)?;
        let tier = Arc::new(tier);

        let reporter = config.stats_interval.map(|interval| {
            Self::start_stats_reporter(
                interval,
                &config,
                &telemetry,
                &tier,
                &serving,
                &coordinator,
                &recorder,
                &slo,
                &retained,
                &accountant,
            )
        });

        let prober = config.freshness.clone().map(|fc| {
            Self::start_prober(
                fc, &query, &tier, &serving, &telemetry, &slo, &recorder, &retained,
            )
        });

        let dyn_routes = DynRoutes::new();
        Self::register_membership_route(&dyn_routes, tier.router(), &serving);

        let ops = match &config.ops_addr {
            Some(addr) => Some(
                Self::start_ops_server(
                    addr,
                    &config,
                    &telemetry,
                    &tier,
                    &serving,
                    &coordinator,
                    &recorder,
                    &dyn_routes,
                    &retained,
                    &accountant,
                )
                .map_err(HeliosError::Io)?,
            ),
            None => None,
        };

        Ok(HeliosDeployment {
            config,
            coordinator,
            tier,
            serving,
            replica_rr: std::sync::atomic::AtomicU64::new(0),
            telemetry,
            reporter,
            recorder,
            retained,
            route_latency,
            slo,
            rescale_lock: parking_lot::Mutex::new(()),
            next_rescale_epoch: std::sync::atomic::AtomicU64::new(1),
            dyn_routes,
            prober,
            ops,
            accountant,
        })
    }

    /// `/membership` on the ops server: the live routing table (epoch,
    /// worker count, slot assignment) plus the serving-set shape, as JSON.
    fn register_membership_route(
        routes: &Arc<DynRoutes>,
        router: &Arc<Router>,
        serving: &SharedServing,
    ) {
        let router = Arc::clone(router);
        let serving = Arc::clone(serving);
        routes.register("/membership", move |_method, _query| {
            let table = router.table();
            let set = Arc::clone(&serving.read());
            let assignment: Vec<String> =
                table.assignment().iter().map(|w| w.to_string()).collect();
            let body = format!(
                "{{\"epoch\":{},\"workers\":{},\"replicas\":{},\"slots\":{},\"assignment\":[{}]}}\n",
                table.epoch(),
                table.workers(),
                set.replicas,
                table.slots(),
                assignment.join(",")
            );
            (200, "application/json".to_string(), body)
        });
    }

    /// Spawn the freshness prober: every `interval` it injects a marker
    /// vertex update at the front of the pipeline (a seed-typed vertex
    /// whose feature encodes the probe sequence number) and then polls
    /// the owning serving worker until the marker's feature is visible
    /// from its cache. The measured update-to-visible latency feeds the
    /// `e2e.freshness` histogram and the deployment's SLO tracker.
    #[allow(clippy::too_many_arguments)]
    fn start_prober(
        fc: FreshnessConfig,
        query: &KHopQuery,
        tier: &Arc<SamplingTier>,
        serving: &SharedServing,
        telemetry: &Arc<Registry>,
        slo: &Arc<SloTracker>,
        recorder: &Arc<FlightRecorder>,
        retained: &Arc<RetainedTraces>,
    ) -> FreshnessProber {
        let seed_type = query.seed_type();
        let marker = VertexId(fc.marker_vertex);
        // Markers route like any seed. Resolved per probe (not once at
        // startup): a rescale can move the marker's slot, and the probe
        // must follow it to the new owner or it would measure a drained
        // cache forever.
        let serving = Arc::clone(serving);
        let tier = Arc::clone(tier);
        let freshness = telemetry.histogram("e2e.freshness", &[]);
        let timeouts = telemetry.counter("e2e.freshness_timeouts", &[]);
        let probes = telemetry.counter("e2e.freshness_probes", &[]);
        let slo = Arc::clone(slo);
        let recorder = Arc::clone(recorder);
        let retained = Arc::clone(retained);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("helios-freshness-probe".into())
            .spawn(move || {
                let mut seq: u64 = 0;
                while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                    seq += 1;
                    // Each probe is its own (sampled) trace, so a timed-out
                    // probe's marker-to-visible journey is retained and
                    // inspectable via `/traces` next to slow serves.
                    let probe_span = span("probe.freshness", TraceCtx::root());
                    let probe_trace = probe_span.ctx().trace;
                    // Feature value = sequence number, so visibility of
                    // *this* probe (not an older one) is checkable. f32
                    // is exact below 2^24 — far beyond any probe count.
                    let expect = seq as f32;
                    let update = GraphUpdate::Vertex(VertexUpdate {
                        vtype: seed_type,
                        id: marker,
                        feature: vec![expect],
                        ts: Timestamp(seq),
                    });
                    let injected = Instant::now();
                    if tier.ingest(&update).is_err() {
                        break; // broker shutting down
                    }
                    probes.incr();
                    let deadline = injected + fc.probe_timeout;
                    let mut visible = false;
                    while Instant::now() < deadline
                        && !stop2.load(std::sync::atomic::Ordering::Relaxed)
                    {
                        // Re-resolve the owner every poll: a mid-probe
                        // rescale commit repoints the marker and the new
                        // owner's cache is where visibility shows up.
                        let sew = tier.router().owner_of(marker).0 as usize;
                        let set = Arc::clone(&serving.read());
                        let seen = set
                            .workers
                            .get(sew * set.replicas)
                            .and_then(|t| t.serve(marker, TraceCtx::NONE).ok())
                            .and_then(|g| g.features.get(&marker).and_then(|f| f.first().copied()));
                        if seen == Some(expect) {
                            visible = true;
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    let elapsed = injected.elapsed();
                    let latency_ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
                    if visible {
                        freshness.record(latency_ns);
                        slo.record(latency_ns);
                        recorder.record(EventKind::FreshnessProbe, u32::MAX, seq, latency_ns, 0);
                    } else if !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                        timeouts.incr();
                        // Timeouts burn the SLO budget at the timeout bound.
                        slo.record(latency_ns.max(1));
                        recorder.record(EventKind::FreshnessProbe, u32::MAX, seq, 0, 1);
                        // A timed-out probe is exactly the trace an operator
                        // wants kept: flag it so the sweep retains it even
                        // though its root span may not cross the slow bar.
                        retained.flag(probe_trace, "timeout");
                    }
                    // Close the probe span before idling — the span measures
                    // inject-to-visible (or -timeout), not the interval sleep.
                    drop(probe_span);
                    let wake = injected + fc.interval;
                    while Instant::now() < wake && !stop2.load(std::sync::atomic::Ordering::Relaxed)
                    {
                        std::thread::sleep(Duration::from_millis(1).min(fc.interval));
                    }
                }
            })
            .expect("spawn freshness prober");
        FreshnessProber {
            stop,
            handle: Some(handle),
        }
    }

    /// Bind the embedded ops HTTP server: `/metrics` (Prometheus text),
    /// `/healthz` (component probes below), `/vars`, `/trace/start|stop`
    /// and `/recorder`. Health probes: per-(group, topic) mq consumer lag
    /// bounded, total sampling-shard mailbox backlog bounded, kvstore
    /// memtables within flush bounds, and the pipeline drain deficit
    /// (produced − consumed over all stages, the quiesce equation)
    /// bounded.
    #[allow(clippy::too_many_arguments)]
    fn start_ops_server(
        addr: &str,
        config: &HeliosConfig,
        telemetry: &Arc<Registry>,
        tier: &Arc<SamplingTier>,
        serving: &SharedServing,
        coordinator: &Coordinator,
        recorder: &Arc<FlightRecorder>,
        dyn_routes: &Arc<DynRoutes>,
        retained: &Arc<RetainedTraces>,
        accountant: &Arc<MemAccountant>,
    ) -> std::io::Result<OpsServer> {
        let registry = Arc::clone(telemetry);
        let mut state = OpsState::new(move || registry.snapshot())
            .recorder(Arc::clone(recorder))
            .retained_traces(Arc::clone(retained))
            .routes(Arc::clone(dyn_routes))
            .profiler(Arc::new(Profiler::new(telemetry)));

        // Memory-pressure probe: `/healthz` flips 503 only after two
        // consecutive over-budget export ticks ("sustained"), so one
        // transient spike between stats ticks doesn't flap the endpoint.
        // With no budget configured the probe reports bytes but never
        // degrades.
        let mem_acct = Arc::clone(accountant);
        state = state.probe(move || {
            let total = mem_acct.total_bytes().max(0);
            match mem_acct.budget_bytes() {
                Some(budget) if mem_acct.sustained_over_budget(2) => HealthReport::new(
                    "memory",
                    false,
                    format!("{total} bytes over budget {budget} (sustained)"),
                ),
                Some(budget) => {
                    HealthReport::new("memory", true, format!("{total} bytes (budget {budget})"))
                }
                None => HealthReport::new("memory", true, format!("{total} bytes (no budget)")),
            }
        });

        // Membership probe: a registered worker that stopped heartbeating
        // is dead capacity — degrade /healthz so the operator (or an
        // orchestrator watching it) reacts before queries hit the gap.
        if let Some(timeout) = config.health_worker_timeout {
            let liveness = coordinator.liveness();
            state = state.probe(move || {
                let dead = liveness.dead_workers(timeout);
                if dead.is_empty() {
                    HealthReport::new("membership", true, "all workers heartbeating")
                } else {
                    HealthReport::new(
                        "membership",
                        false,
                        format!("dead workers: {}", dead.join(", ")),
                    )
                }
            });
        }

        let max_lag = config.health_max_lag;
        let lag_tier = Arc::clone(tier);
        state = state.probe(move || {
            let report = lag_tier.broker().lag_report();
            let worst = report.iter().max_by_key(|e| e.lag);
            match worst {
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
        });

        let max_backlog = config.health_max_backlog as u64;
        let backlog_tier = Arc::clone(tier);
        state = state.probe(move || {
            let total = backlog_tier.backlog();
            HealthReport::new(
                "sampler",
                total <= max_backlog,
                format!("mailbox backlog {total} (bound {max_backlog})"),
            )
        });

        // Flush-boundedness: memtables persistently far above budget, or
        // any single store whose immutable backlog has hit the stall cap
        // on every shard, mean the background flusher is not keeping up
        // (wedged flushers stall writers next). Purely in-memory caches
        // have no flush stage, so the probe only reports their size.
        let flush_bounded = config.cache_dir.is_some();
        let mem_bound = (config.cache_memtable_budget * config.cache_shards * 4) as u64;
        let imm_bound = (config.cache_max_immutables * config.cache_shards) as u64;
        let kv_serving = Arc::clone(serving);
        state = state.probe(move || {
            let set = Arc::clone(&kv_serving.read());
            let mut mem = 0u64;
            let mut worst_imm = 0u64;
            for w in &set.workers {
                let (s, f) = w.cache_stats();
                mem += s.mem_bytes as u64 + f.mem_bytes as u64;
                worst_imm = worst_imm
                    .max(s.immutable_memtables as u64)
                    .max(f.immutable_memtables as u64);
            }
            if flush_bounded {
                let healthy = mem <= mem_bound * set.workers.len() as u64 && worst_imm < imm_bound;
                HealthReport::new(
                    "kvstore",
                    healthy,
                    format!(
                        "memtable bytes {mem} (bound {mem_bound}/worker), \
                         worst immutable backlog {worst_imm} (stall cap {imm_bound})"
                    ),
                )
            } else {
                HealthReport::new("kvstore", true, format!("in-memory, {mem} bytes"))
            }
        });

        let drain_tier = Arc::clone(tier);
        let drain_serving = Arc::clone(serving);
        let drain_bound = config.health_max_backlog as u64;
        state = state.probe(move || {
            let set = Arc::clone(&drain_serving.read());
            let deficit = set.watermarks(&drain_tier).deficit();
            HealthReport::new(
                "pipeline",
                deficit <= drain_bound,
                format!("drain deficit {deficit} (bound {drain_bound})"),
            )
        });

        OpsServer::start(addr, state)
    }

    /// Spawn the periodic pipeline-lag monitor: every `interval` it
    /// refreshes `mq.lag{group,topic}` (consumer lag per group),
    /// `actor.mailbox_depth{worker}` (sampling-shard backlog) and
    /// `kvstore.*{worker,replica,table}` (cache memtable/SST sizes) in
    /// the telemetry registry, so a snapshot at any moment shows where
    /// the update pipeline is backed up. The tick also feeds the flight
    /// recorder (lag samples, flush observations) and raises anomalies —
    /// decode-error spikes and SLO fast-burn — that dump the ring.
    #[allow(clippy::too_many_arguments)]
    fn start_stats_reporter(
        interval: Duration,
        config: &HeliosConfig,
        telemetry: &Arc<Registry>,
        tier: &Arc<SamplingTier>,
        serving: &SharedServing,
        coordinator: &Coordinator,
        recorder: &Arc<FlightRecorder>,
        slo: &Arc<SloTracker>,
        retained: &Arc<RetainedTraces>,
        accountant: &Arc<MemAccountant>,
    ) -> StatsReporter {
        let registry = Arc::clone(telemetry);
        let tier = Arc::clone(tier);
        let retained = Arc::clone(retained);
        let accountant = Arc::clone(accountant);
        let serving = Arc::clone(serving);
        let liveness = coordinator.liveness();
        let worker_timeout = config.health_worker_timeout;
        let recorder = Arc::clone(recorder);
        let slo = Arc::clone(slo);
        let spike = config.decode_error_spike;
        let mut last_decode = 0u64;
        let mut burning = false;
        StatsReporter::start("helios-stats", interval, move || {
            let (mut total_lag, mut max_lag) = (0u64, 0u64);
            for e in tier.broker().lag_report() {
                registry
                    .gauge("mq.lag", &[("group", &e.group), ("topic", &e.topic)])
                    .set(e.lag as i64);
                total_lag += e.lag;
                max_lag = max_lag.max(e.lag);
            }
            recorder.record(EventKind::LagSample, u32::MAX, total_lag, max_lag, 0);
            // Queue *time* next to queue *depth*: fold every worker's
            // `mq.dwell{topic,…}` histogram into p50/p99 gauges so the
            // report line (and the bench snapshot) show how long records
            // sat in the broker, not just how many.
            if let Some(dwell) = registry.snapshot().histogram_total("mq.dwell") {
                registry
                    .gauge("mq.dwell_p50_ns", &[])
                    .set(dwell.percentile(50.0).min(i64::MAX as u64) as i64);
                registry
                    .gauge("mq.dwell_p99_ns", &[])
                    .set(dwell.percentile(99.0).min(i64::MAX as u64) as i64);
            }
            // Tail-sampling sweep: fold freshly journaled spans into the
            // retained-trace store so `/traces` stays current without an
            // explicit drain.
            retained.sweep();
            for w in tier.workers() {
                registry
                    .gauge("actor.mailbox_depth", &[("worker", &w.id().0.to_string())])
                    .set(w.backlog() as i64);
            }
            // Membership: routing epoch, live logical workers, and dead
            // (heartbeat-expired) workers, so `/vars` answers "what shape
            // is the fleet in" without scraping the membership topic.
            let table = tier.router().table();
            registry
                .gauge("membership.epoch", &[])
                .set(table.epoch() as i64);
            registry
                .gauge("membership.workers", &[])
                .set(table.workers() as i64);
            if let Some(timeout) = worker_timeout {
                registry
                    .gauge("membership.dead_workers", &[])
                    .set(liveness.dead_workers(timeout).len() as i64);
            }
            let set = Arc::clone(&serving.read());
            let mut decode = 0u64;
            for w in &set.workers {
                decode += w.decode_errors();
                let sw = w.id().0.to_string();
                let r = w.replica().to_string();
                let (s, f) = w.cache_stats();
                for (table, st) in [("samples", s), ("features", f)] {
                    let labels: &[(&str, &str)] =
                        &[("worker", &sw), ("replica", &r), ("table", table)];
                    registry
                        .gauge("kvstore.mem_bytes", labels)
                        .set(st.mem_bytes as i64);
                    registry
                        .gauge("kvstore.mem_entries", labels)
                        .set(st.mem_entries as i64);
                    registry
                        .gauge("kvstore.immutable_memtables", labels)
                        .set(st.immutable_memtables as i64);
                    registry
                        .gauge("kvstore.sst_files", labels)
                        .set(st.sst_files as i64);
                    registry
                        .gauge("kvstore.disk_bytes", labels)
                        .set(st.disk_bytes as i64);
                    registry
                        .gauge("kvstore.flushes", labels)
                        .set(st.flushes as i64);
                    registry
                        .gauge("kvstore.compactions", labels)
                        .set(st.compactions as i64);
                    registry
                        .gauge("kvstore.compaction_debt", labels)
                        .set(st.compaction_debt as i64);
                    registry
                        .gauge("kvstore.block_cache_hits", labels)
                        .set(st.block_cache_hits as i64);
                    registry
                        .gauge("kvstore.block_cache_misses", labels)
                        .set(st.block_cache_misses as i64);
                    registry
                        .gauge("kvstore.stall_nanos", labels)
                        .set(st.stall_nanos as i64);
                }
            }
            // A burst of decode errors within one tick is an anomaly
            // worth a ring dump: something upstream is emitting garbage.
            if decode.saturating_sub(last_decode) >= spike {
                recorder.anomaly(
                    EventKind::DecodeError,
                    u32::MAX,
                    decode - last_decode,
                    decode,
                    0,
                );
            }
            last_decode = decode;
            // Freshness SLO burn rates as gauges (×1000: gauges are
            // integers); anomaly on the rising edge of a fast burn.
            let short = slo.short_burn();
            let long = slo.long_burn();
            registry
                .gauge("e2e.slo_burn_short", &[])
                .set((short * 1000.0) as i64);
            registry
                .gauge("e2e.slo_burn_long", &[])
                .set((long * 1000.0) as i64);
            if short > 1.0 && !burning {
                recorder.anomaly(
                    EventKind::SloBurn,
                    u32::MAX,
                    (short * 1000.0) as u64,
                    (long * 1000.0) as u64,
                    0,
                );
            }
            burning = short > 1.0;
            // Publish `mem.bytes{component,…}` and judge the budget; the
            // under→over crossing is the rising edge that dumps the ring.
            let tick = accountant.export();
            if tick.crossed_over {
                recorder.anomaly(
                    EventKind::MemPressure,
                    u32::MAX,
                    tick.total_bytes.max(0) as u64,
                    accountant.budget_bytes().unwrap_or(0),
                    tick.budget_fraction.map_or(0, |f| (f * 1000.0) as u64),
                );
            }
        })
    }

    /// Deployment configuration.
    pub fn config(&self) -> &HeliosConfig {
        &self.config
    }

    /// The coordinator.
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// The broker (tests/benches may attach extra consumers).
    pub fn broker(&self) -> &Arc<Broker> {
        self.tier.broker()
    }

    /// The deployment's telemetry registry: all worker counters, gauges
    /// and latency histograms, queryable by instrument name.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// A merged snapshot of every instrument in the deployment.
    pub fn telemetry_snapshot(&self) -> RegistrySnapshot {
        self.telemetry.snapshot()
    }

    /// The deployment's flight recorder (always on).
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The deployment's memory ledger: per-component byte gauges, summed
    /// totals and budget pressure. Exported into the registry every stats
    /// tick; tests may call [`MemAccountant::export`] directly for a
    /// deterministic tick.
    pub fn mem_accountant(&self) -> &Arc<MemAccountant> {
        &self.accountant
    }

    /// The tail-sampled trace store behind `/traces`: slow, errored and
    /// timed-out traces, boring ones evicted first. Swept periodically by
    /// the stats reporter; call [`RetainedTraces::sweep`] for an
    /// up-to-the-moment view (tests do, deterministically).
    pub fn retained_traces(&self) -> &Arc<RetainedTraces> {
        &self.retained
    }

    /// The end-to-end freshness SLO tracker. Only fed while freshness
    /// probing is configured; otherwise empty (burn rates read 0).
    pub fn freshness_slo(&self) -> &Arc<SloTracker> {
        &self.slo
    }

    /// Bound address of the embedded ops HTTP server, when one is
    /// running (`config.ops_addr`). With port `0`, this is where the
    /// ephemeral port shows up.
    pub fn ops_addr(&self) -> Option<std::net::SocketAddr> {
        self.ops.as_ref().map(OpsServer::addr)
    }

    /// Handles to the current serving fleet (a snapshot: a concurrent
    /// rescale does not invalidate the returned vector, but it may no
    /// longer reflect the live set).
    pub fn serving_workers(&self) -> Vec<Arc<ServingWorker>> {
        self.serving.read().workers.clone()
    }

    /// The sampling workers (M is fixed for the deployment's lifetime;
    /// only the serving fleet rescales).
    pub fn sampling_workers(&self) -> &[SamplingWorker] {
        self.tier.workers()
    }

    /// The shared seed→worker router (epoch-versioned; rescales bump it).
    pub fn router(&self) -> &Arc<Router> {
        self.tier.router()
    }

    /// Current routing-table epoch.
    pub fn route_epoch(&self) -> u64 {
        self.router().epoch()
    }

    /// Dynamic ops-server routes (`/membership` is pre-registered;
    /// [`crate::rescale`] adds `/scale`). Live even when the ops server is
    /// disabled, so registration is always safe.
    pub fn dyn_routes(&self) -> &Arc<DynRoutes> {
        &self.dyn_routes
    }

    /// Metrics of each sampling worker.
    pub fn sampler_metrics(&self) -> Vec<&Arc<SamplerMetrics>> {
        self.sampling_workers()
            .iter()
            .map(SamplingWorker::metrics)
            .collect()
    }

    /// Ingest one graph update into the sampling tier's update stream.
    pub fn ingest(&self, update: &GraphUpdate) -> Result<()> {
        self.tier.ingest(update)
    }

    /// Ingest a batch.
    pub fn ingest_batch(&self, updates: &[GraphUpdate]) -> Result<()> {
        self.tier.ingest_batch(updates)
    }

    /// A serving worker responsible for `seed`: the owning logical worker
    /// comes from the epoch-versioned routing table; among its replicas,
    /// requests are spread round-robin.
    pub fn serving_worker_for(&self, seed: VertexId) -> Arc<ServingWorker> {
        loop {
            let set = Arc::clone(&self.serving.read());
            let sew = self.router().owner_of(seed).0 as usize;
            // Rescale ordering keeps `table.workers() <= set.logical()`
            // (scale-out extends the set before the commit installs; a
            // scale-in installs before it truncates), but the two reads
            // here are not atomic — on the rare raced snapshot, re-read.
            if sew < set.logical() {
                let replicas = set.replicas;
                let r = if replicas == 1 {
                    0
                } else {
                    (self
                        .replica_rr
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                        % replicas as u64) as usize
                };
                return Arc::clone(&set.workers[sew * replicas + r]);
            }
            std::thread::yield_now();
        }
    }

    /// All replicas of logical serving worker `sew` (snapshot semantics,
    /// like [`HeliosDeployment::serving_workers`]).
    pub fn serving_replicas_of(&self, sew: u32) -> Vec<Arc<ServingWorker>> {
        self.serving.read().replicas_of(sew).to_vec()
    }

    /// Serve a sampling query: route to the owning serving worker and
    /// assemble the K-hop result from its local cache (executed on the
    /// caller's thread). With tracing enabled, the request becomes a
    /// `router.serve` root span with the worker's spans nested under it.
    pub fn serve(&self, seed: VertexId) -> Result<SampledSubgraph> {
        let router_span = span("router.serve", TraceCtx::root());
        let worker = self.route_timed(seed, router_span.ctx());
        let result = worker.serve(seed, router_span.ctx());
        self.flag_serve_error(router_span.ctx().trace, &result);
        result
    }

    /// Serve a sampling query straight to canonical response bytes:
    /// route to the owning worker and let it assemble and encode from its
    /// reusable arena — the owned [`SampledSubgraph`] is never
    /// materialized. `out` is cleared and reused, so a front-end thread
    /// serving a stream of requests reaches a zero-allocation steady
    /// state.
    pub fn serve_encoded(&self, seed: VertexId, out: &mut Vec<u8>) -> Result<()> {
        let router_span = span("router.serve", TraceCtx::root());
        let worker = self.route_timed(seed, router_span.ctx());
        let result = worker.serve_encoded(seed, router_span.ctx(), out);
        self.flag_serve_error(router_span.ctx().trace, &result);
        result
    }

    /// The "route" stage of the serve path: owner lookup + replica pick,
    /// timed into `router.route_latency` and spanned when traced. Kept as
    /// its own histogram (not a `serving.stage_latency` label) so the
    /// per-stage sum identity against `serving.latency` stays exact —
    /// routing happens before the worker's end-to-end clock starts.
    fn route_timed(&self, seed: VertexId, ctx: TraceCtx) -> Arc<ServingWorker> {
        let route_start = Instant::now();
        let worker = {
            let _route_span = span("router.route", ctx);
            self.serving_worker_for(seed)
        };
        self.route_latency.record_duration(route_start.elapsed());
        worker
    }

    /// Flag a failed serve's trace so the tail sweep retains it.
    fn flag_serve_error<T>(&self, trace: u64, result: &Result<T>) {
        if result.is_err() {
            self.retained.flag(trace, "error");
        }
    }

    /// Trigger TTL expiry everywhere (paper: periodic stale-data removal).
    pub fn expire_before(&self, horizon: Timestamp) -> Result<()> {
        for w in self.sampling_workers() {
            w.expire_before(horizon);
        }
        let set = Arc::clone(&self.serving.read());
        for s in &set.workers {
            s.expire_before(horizon)?;
        }
        Ok(())
    }

    /// Checkpoint sampling-worker state into `dir` (coordinator-triggered
    /// fault tolerance, §4.1), plus a manifest of the topology and routing
    /// table the snapshot was taken under. Quiesce first for a clean
    /// snapshot.
    pub fn checkpoint(&self, dir: &Path) -> Result<()> {
        let serving_workers = self.serving.read().logical() as u32;
        self.tier.checkpoint(dir, serving_workers)
    }

    /// Spawn the coordinator's periodic checkpoint trigger (§4.1): every
    /// `interval`, sampling-worker state is snapshotted into `dir`. The
    /// returned guard stops the trigger when dropped.
    pub fn start_periodic_checkpoints(
        self: &Arc<Self>,
        dir: &Path,
        interval: Duration,
    ) -> CheckpointGuard {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let weak = Arc::downgrade(self);
        let dir = dir.to_path_buf();
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("coordinator-checkpoint".into())
            .spawn(move || {
                'outer: while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                    // Sleep in small steps so dropping the guard is prompt.
                    let wake = Instant::now() + interval;
                    while Instant::now() < wake {
                        if stop2.load(std::sync::atomic::Ordering::Relaxed) {
                            break 'outer;
                        }
                        std::thread::sleep(Duration::from_millis(20).min(interval));
                    }
                    let Some(deployment) = weak.upgrade() else {
                        break;
                    };
                    let _ = deployment.checkpoint(&dir);
                }
            })
            .expect("spawn checkpoint trigger");
        CheckpointGuard {
            stop,
            handle: Some(handle),
        }
    }

    /// Block until the pipeline drains: all produced updates dispatched
    /// and processed, control traffic settled, and serving caches caught
    /// up with their sample queues. Returns `false` on timeout.
    ///
    /// Only meaningful while no new updates are being ingested (tests and
    /// paired experiment phases); live deployments never quiesce — they
    /// are eventually consistent (§6).
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut stable_rounds = 0;
        let mut last: Option<Watermarks> = None;
        while Instant::now() < deadline {
            let marks = self.watermarks();
            if marks.drained() && last.as_ref() == Some(&marks) {
                stable_rounds += 1;
                // Two consecutive stable observations: no in-flight message
                // can still generate work.
                if stable_rounds >= 2 {
                    return true;
                }
            } else {
                stable_rounds = 0;
            }
            last = Some(marks);
            std::thread::sleep(Duration::from_millis(2));
        }
        // Failed to drain: dump the flight ring with the remaining
        // deficit so the stuck stage is identifiable post-hoc.
        let deficit = self.watermarks().deficit();
        self.recorder
            .anomaly(EventKind::QuiesceFailed, u32::MAX, deficit, 0, 0);
        false
    }

    /// The pipeline's drain numbers right now. Re-snapshots the serving
    /// set, so it is safe to call concurrently with a rescale.
    fn watermarks(&self) -> Watermarks {
        let set = Arc::clone(&self.serving.read());
        set.watermarks(&self.tier)
    }

    /// Total bytes held by all serving caches (Fig. 16 numerator).
    pub fn total_cache_bytes(&self) -> u64 {
        let set = Arc::clone(&self.serving.read());
        set.workers.iter().map(|s| s.cache_bytes()).sum()
    }

    /// Stop all workers. Serving caches stay readable until drop.
    pub fn shutdown(mut self) {
        // Stop the prober and ops server, then the lag monitor — all
        // before the workers they observe. Stopping the reporter flushes
        // one final tick so the last interval's gauges are current.
        drop(self.prober.take());
        drop(self.ops.take());
        if let Some(r) = self.reporter.take() {
            r.stop();
        }
        self.tier.shutdown();
        let set = Arc::clone(&self.serving.read());
        for s in &set.workers {
            s.shutdown();
        }
    }

    /// Convenience for tests: ingest, then quiesce.
    pub fn ingest_and_settle(&self, updates: &[GraphUpdate], timeout: Duration) -> Result<()> {
        self.ingest_batch(updates)?;
        if !self.quiesce(timeout) {
            return Err(HeliosError::Timeout("pipeline did not quiesce".into()));
        }
        Ok(())
    }
}
