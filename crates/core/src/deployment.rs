//! Wiring a full Helios deployment (Fig. 5) in one process, with threads
//! standing in for machines: a [`SamplingTier`] and a [`ServingTier`] on
//! the sampling tier's broker, observed through one [`OpsPlane`].

use crate::config::{FreshnessConfig, HeliosConfig, HEALTH_MAX_BACKLOG, HEALTH_WORKER_TIMEOUT};
use crate::coordinator::Coordinator;
use crate::plane::OpsPlane;
use crate::sampler::{SamplerMetrics, SamplingWorker};
use crate::serving::ServingWorker;
use crate::tier::{SamplingTier, ServingTier, Watermarks};
use helios_membership::Router;
use helios_mq::Broker;
use helios_query::{KHopQuery, SampledSubgraph};
use helios_telemetry::ops::HealthProbe;
use helios_telemetry::{
    span, DynRoutes, EventKind, FlightRecorder, HealthReport, Histogram, MemAccountant, Registry,
    RegistrySnapshot, RetainedTraces, SloTracker, StatsReporter, TraceCtx,
};
use helios_types::{GraphUpdate, HeliosError, Result, Timestamp, VertexId, VertexUpdate};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The periodic checkpoint trigger; stops on drop.
pub type CheckpointGuard = StatsReporter;

/// A running Helios deployment: coordinator + the sampling tier (M
/// sampling workers) + the serving tier (N serving workers) on the
/// sampling tier's broker, observed through one ops plane.
pub struct HeliosDeployment {
    pub(crate) config: HeliosConfig,
    pub(crate) coordinator: Coordinator,
    /// Topics, router and sampling workers. The router is epoch-versioned
    /// and shared with every sampling worker: the front-end routes serves
    /// through it; a rescale installs the committed table there after the
    /// handoff watermark.
    pub(crate) tier: Arc<SamplingTier>,
    /// The live serving fleet; a rescale extends or truncates it.
    pub(crate) serving: Arc<ServingTier>,
    /// Round-robin cursor for spreading requests over replicas.
    replica_rr: std::sync::atomic::AtomicU64,
    /// Registry, flight recorder, memory ledger, retained traces and
    /// profiler, with the ops server and stats reporter publishing them.
    pub(crate) plane: OpsPlane,
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
    /// Marker-injection thread; `None` when freshness probing is off.
    prober: Option<StatsReporter>,
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
        let mut plane = OpsPlane::new(&config);
        let mut tier = SamplingTier::create(&config)?;
        let route_latency = plane.registry().histogram("router.route_latency", &[]);
        let slo = Arc::new(SloTracker::new(
            config
                .freshness
                .as_ref()
                .map(|f| f.slo.clone())
                .unwrap_or_default(),
        ));
        // Serving workers before sampling workers, so sample topics have
        // consumers early.
        let serving = ServingTier::start(
            &config,
            &coordinator,
            tier.broker(),
            &plane,
            0..config.serving_workers as u32,
        )?;
        tier.start_workers(&query, &coordinator, &plane, restore_dir)?;
        let tier = Arc::new(tier);

        let mut sampling_tick = tier.stats_tick(&plane, &coordinator);
        let mut serving_tick = serving.stats_tick();
        let mut slo_tick = Self::slo_tick(&slo, &plane);
        plane.start_reporter(move || {
            sampling_tick();
            serving_tick();
            slo_tick();
        });

        let prober = config
            .freshness
            .clone()
            .map(|fc| Self::start_prober(fc, &query, &tier, &serving, &plane, &slo));

        Self::register_membership_route(plane.routes(), tier.router(), &serving);
        let mut probes: Vec<HealthProbe> = Vec::new();
        // `membership`: a registered worker that stopped heartbeating is
        // dead capacity — degrade `/healthz` so the operator (or an
        // orchestrator watching it) reacts before queries hit the gap.
        let liveness = coordinator.liveness();
        probes.push(Box::new(move || {
            let dead = liveness.dead_workers(HEALTH_WORKER_TIMEOUT);
            let detail = if dead.is_empty() {
                "all workers heartbeating".to_string()
            } else {
                format!("dead workers: {}", dead.join(", "))
            };
            HealthReport::new("membership", dead.is_empty(), detail)
        }));
        probes.extend(tier.probes());
        probes.extend(serving.probes());
        // `pipeline`: the drain deficit (produced − consumed over all
        // stages, the quiesce equation) within bound.
        let (drain_tier, drain_serving) = (Arc::clone(&tier), Arc::clone(&serving));
        probes.push(Box::new(move || {
            let deficit = drain_serving.watermarks(&drain_tier).deficit();
            let detail = format!("drain deficit {deficit} (bound {HEALTH_MAX_BACKLOG})");
            HealthReport::new("pipeline", deficit <= HEALTH_MAX_BACKLOG, detail)
        }));
        plane.start_ops_server(probes)?;

        Ok(HeliosDeployment {
            config,
            coordinator,
            tier,
            serving,
            replica_rr: std::sync::atomic::AtomicU64::new(0),
            plane,
            route_latency,
            slo,
            rescale_lock: parking_lot::Mutex::new(()),
            next_rescale_epoch: std::sync::atomic::AtomicU64::new(1),
            prober,
        })
    }

    /// The deployment's share of a stats tick: the freshness SLO's burn
    /// rates as gauges (×1000: gauges are integers), with an anomaly
    /// dumping the flight ring on the rising edge of a fast burn.
    fn slo_tick(slo: &Arc<SloTracker>, plane: &OpsPlane) -> impl FnMut() + Send + 'static {
        let slo = Arc::clone(slo);
        let registry = Arc::clone(plane.registry());
        let recorder = Arc::clone(plane.recorder());
        let mut burning = false;
        move || {
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
        }
    }

    /// `/membership` on the ops server: the live routing table (epoch,
    /// worker count, slot assignment) plus the serving-set shape, as JSON.
    fn register_membership_route(
        routes: &Arc<DynRoutes>,
        router: &Arc<Router>,
        serving: &Arc<ServingTier>,
    ) {
        let router = Arc::clone(router);
        let serving = Arc::clone(serving);
        routes.register("/membership", move |_method, _query| {
            let table = router.table();
            let assignment: Vec<String> =
                table.assignment().iter().map(|w| w.to_string()).collect();
            let body = format!(
                "{{\"epoch\":{},\"workers\":{},\"replicas\":{},\"slots\":{},\"assignment\":[{}]}}\n",
                table.epoch(),
                table.workers(),
                serving.replicas(),
                table.slots(),
                assignment.join(",")
            );
            (200, "application/json".to_string(), body)
        });
    }

    /// Start the freshness prober: every `interval` it injects a marker
    /// vertex update at the front of the pipeline (a seed-typed vertex
    /// whose feature encodes the probe sequence number) and then polls
    /// the owning serving worker until the marker's feature is visible
    /// from its cache. The measured update-to-visible latency feeds the
    /// `e2e.freshness` histogram and the deployment's SLO tracker.
    fn start_prober(
        fc: FreshnessConfig,
        query: &KHopQuery,
        tier: &Arc<SamplingTier>,
        serving: &Arc<ServingTier>,
        plane: &OpsPlane,
        slo: &Arc<SloTracker>,
    ) -> StatsReporter {
        let seed_type = query.seed_type();
        let marker = VertexId(fc.marker_vertex);
        // Markers route like any seed. Resolved per probe (not once at
        // startup): a rescale can move the marker's slot, and the probe
        // must follow it to the new owner or it would measure a drained
        // cache forever.
        let serving = Arc::clone(serving);
        let tier = Arc::clone(tier);
        let telemetry = plane.registry();
        let freshness = telemetry.histogram("e2e.freshness", &[]);
        let timeouts = telemetry.counter("e2e.freshness_timeouts", &[]);
        let probes = telemetry.counter("e2e.freshness_probes", &[]);
        let slo = Arc::clone(slo);
        let recorder = Arc::clone(plane.recorder());
        let retained = Arc::clone(plane.retained());
        let mut seq: u64 = 0;
        StatsReporter::start("helios-freshness-probe", fc.interval, move || {
            seq += 1;
            // Each probe is its own (sampled) trace, so a timed-out
            // probe's marker-to-visible journey is retained and
            // inspectable via `/traces` next to slow serves.
            let probe_span = span("probe.freshness", TraceCtx::root());
            let probe_trace = probe_span.ctx().trace;
            // Feature value = sequence number, so visibility of *this*
            // probe (not an older one) is checkable. f32 is exact below
            // 2^24 — far beyond any probe count.
            let expect = seq as f32;
            let update = GraphUpdate::Vertex(VertexUpdate {
                vtype: seed_type,
                id: marker,
                feature: vec![expect],
                ts: Timestamp(seq),
            });
            let injected = Instant::now();
            if tier.ingest(&update).is_err() {
                return; // broker shutting down
            }
            probes.incr();
            let deadline = injected + fc.probe_timeout;
            let mut visible = false;
            while Instant::now() < deadline {
                // Re-resolve the owner every poll: a mid-probe rescale
                // commit repoints the marker and the new owner's cache is
                // where visibility shows up.
                let sew = tier.router().owner_of(marker).0 as usize;
                let seen = serving
                    .workers()
                    .get(sew * serving.replicas())
                    .and_then(|t| t.serve(marker, TraceCtx::NONE).ok())
                    .and_then(|g| g.features.get(&marker).and_then(|f| f.first().copied()));
                if seen == Some(expect) {
                    visible = true;
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            let latency_ns = injected.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            if visible {
                freshness.record(latency_ns);
                slo.record(latency_ns);
                recorder.record(EventKind::FreshnessProbe, u32::MAX, seq, latency_ns, 0);
            } else {
                timeouts.incr();
                // Timeouts burn the SLO budget at the timeout bound.
                slo.record(latency_ns.max(1));
                recorder.record(EventKind::FreshnessProbe, u32::MAX, seq, 0, 1);
                // A timed-out probe is exactly the trace an operator wants
                // kept: flag it so the sweep retains it even though its
                // root span may not cross the slow bar.
                retained.flag(probe_trace, "timeout");
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
        self.plane.registry()
    }

    /// A merged snapshot of every instrument in the deployment.
    pub fn telemetry_snapshot(&self) -> RegistrySnapshot {
        self.plane.registry().snapshot()
    }

    /// The deployment's flight recorder (always on).
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        self.plane.recorder()
    }

    /// The deployment's memory ledger: per-component byte gauges, summed
    /// totals and budget pressure. Exported into the registry every stats
    /// tick; tests may call [`MemAccountant::export`] directly for a
    /// deterministic tick.
    pub fn mem_accountant(&self) -> &Arc<MemAccountant> {
        self.plane.accountant()
    }

    /// The tail-sampled trace store behind `/traces`: slow, errored and
    /// timed-out traces, boring ones evicted first. Swept periodically by
    /// the stats reporter; call [`RetainedTraces::sweep`] for an
    /// up-to-the-moment view (tests do, deterministically).
    pub fn retained_traces(&self) -> &Arc<RetainedTraces> {
        self.plane.retained()
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
        self.plane.ops_addr()
    }

    /// Handles to the current serving fleet (a snapshot: a concurrent
    /// rescale does not invalidate the returned vector, but it may no
    /// longer reflect the live set).
    pub fn serving_workers(&self) -> Vec<Arc<ServingWorker>> {
        self.serving.workers().to_vec()
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
        self.plane.routes()
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
            let set = self.serving.workers();
            let replicas = self.serving.replicas();
            let sew = self.router().owner_of(seed).0 as usize;
            // Rescale ordering keeps `table.workers() <= set.logical()`
            // (scale-out extends the set before the commit installs; a
            // scale-in installs before it truncates), but the two reads
            // here are not atomic — on the rare raced snapshot, re-read.
            if sew < set.len() / replicas {
                let r = if replicas == 1 {
                    0
                } else {
                    (self
                        .replica_rr
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                        % replicas as u64) as usize
                };
                return Arc::clone(&set[sew * replicas + r]);
            }
            std::thread::yield_now();
        }
    }

    /// All replicas of logical serving worker `sew` (snapshot semantics,
    /// like [`HeliosDeployment::serving_workers`]).
    pub fn serving_replicas_of(&self, sew: u32) -> Vec<Arc<ServingWorker>> {
        let replicas = self.serving.replicas();
        self.serving.workers()[sew as usize * replicas..][..replicas].to_vec()
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
            self.plane.retained().flag(trace, "error");
        }
    }

    /// Trigger TTL expiry everywhere (paper: periodic stale-data removal).
    pub fn expire_before(&self, horizon: Timestamp) -> Result<()> {
        for w in self.sampling_workers() {
            w.expire_before(horizon);
        }
        for s in self.serving.workers().iter() {
            s.expire_before(horizon)?;
        }
        Ok(())
    }

    /// Checkpoint sampling-worker state into `dir` (coordinator-triggered
    /// fault tolerance, §4.1), plus a manifest of the topology and routing
    /// table the snapshot was taken under. Quiesce first for a clean
    /// snapshot.
    pub fn checkpoint(&self, dir: &Path) -> Result<()> {
        self.tier.checkpoint(dir, self.serving.logical() as u32)
    }

    /// Spawn the coordinator's periodic checkpoint trigger (§4.1): every
    /// `interval`, sampling-worker state is snapshotted into `dir`. The
    /// returned guard stops the trigger when dropped.
    pub fn start_periodic_checkpoints(
        self: &Arc<Self>,
        dir: &Path,
        interval: Duration,
    ) -> CheckpointGuard {
        let weak = Arc::downgrade(self);
        let dir = dir.to_path_buf();
        StatsReporter::start("coordinator-checkpoint", interval, move || {
            if let Some(deployment) = weak.upgrade() {
                let _ = deployment.checkpoint(&dir);
            }
        })
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
        self.plane
            .recorder()
            .anomaly(EventKind::QuiesceFailed, u32::MAX, deficit, 0, 0);
        false
    }

    /// The pipeline's drain numbers right now. Re-snapshots the serving
    /// set, so it is safe to call concurrently with a rescale.
    fn watermarks(&self) -> Watermarks {
        self.serving.watermarks(&self.tier)
    }

    /// Total bytes held by all serving caches (Fig. 16 numerator).
    pub fn total_cache_bytes(&self) -> u64 {
        self.serving.workers().iter().map(|s| s.cache_bytes()).sum()
    }

    /// Stop all workers. Serving caches stay readable until drop.
    pub fn shutdown(mut self) {
        // Stop the prober, the ops server and the stats reporter — all
        // before the workers they observe.
        drop(self.prober.take());
        self.plane.shutdown();
        self.tier.shutdown();
        self.serving.shutdown();
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
