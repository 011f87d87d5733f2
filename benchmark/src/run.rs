//! One run of one workload: set the deployment up, drive the timed
//! phases, check the replies, and turn what was measured into metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use helios_net::{Client, TcpOptions};
use helios_types::{GraphUpdate, Timestamp};

use crate::load::{
    ingest_blocking, live_phase, pipelined_phase, IngestOutcome, LiveConfig, SeedSequence, Sent,
    ServeCtx,
};
use crate::probes;
use crate::reference::Reference;
use crate::spec::{
    self, Workload, FRESHNESS_WINDOW, GATE_SEEDS, LATENCY_WINDOW, LEAD_IN_SECONDS,
    LIVE_LEAD_IN_SECONDS, LIVE_SHARE, MARKER_SEEDS, MAX_GEN_LATE_P99_MS, P99_WINDOW,
    PIPELINED_SHARE, SETUPS_PER_RUN,
};
use crate::stats;
use crate::sut::{ProcUsage, RoleKind, Sut, Watermarks};
use crate::trace::{SpanLog, NO_PARENT};

pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Short phases and a single set-up; numbers are not comparable.
    pub smoke: bool,
    pub helios: PathBuf,
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a percentile or median; 0 when not a sample statistic.
    pub samples: u64,
}

pub struct RunResult {
    pub workload: Workload,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Replies matched the reference (a mismatch is an error, not a
    /// result) and every timed reply parsed.
    pub correct: bool,
    /// The open-loop generator kept to its schedule and every reported
    /// percentile had the samples it needs.
    pub valid: bool,
    pub notes: Vec<String>,
    /// (phase, seconds) actually spent.
    pub phases: Vec<(&'static str, f64)>,
    pub gate_compared: usize,
}

/// Maxima of the pipeline's stage lags, polled while updates flow.
#[derive(Debug, Default, Clone, Copy)]
struct LagMax {
    updates: u64,
    backlog: u64,
    relay: u64,
    apply: u64,
}

impl LagMax {
    fn observe(&mut self, w: &Watermarks) {
        self.updates = self
            .updates
            .max(w.updates_end.saturating_sub(w.updates_done));
        self.backlog = self.backlog.max(w.backlog);
        self.relay = self.relay.max(w.samples_end.saturating_sub(w.forwarded));
        self.apply = self.apply.max(w.forwarded.saturating_sub(w.applied));
    }
}

/// Run `body` while a sampler thread polls the drain watermarks every
/// 200 ms (traced runs only) and folds them into `lag`.
fn with_lag_sampler<T>(sut: &Sut, enabled: bool, lag: &mut LagMax, body: impl FnOnce() -> T) -> T {
    if !enabled {
        return body();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if let Ok(w) = sut.watermarks() {
                    lag.observe(&w);
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        });
        let out = body();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

struct Usage {
    roles: Vec<(RoleKind, ProcUsage)>,
    client: ProcUsage,
}

impl Usage {
    fn now(sut: &Sut) -> Usage {
        Usage {
            roles: sut.usage(),
            client: ProcUsage::myself(),
        }
    }

    /// Per-role deltas since `earlier` (roles are listed in the same order).
    fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            roles: self
                .roles
                .iter()
                .zip(&earlier.roles)
                .map(|((kind, now), (_, then))| (*kind, now.since(then)))
                .collect(),
            client: self.client.since(&earlier.client),
        }
    }

    /// Add another window's deltas to this one's.
    fn add(&mut self, other: &Usage) {
        for ((_, mine), (_, theirs)) in self.roles.iter_mut().zip(&other.roles) {
            mine.cpu_us += theirs.cpu_us;
            mine.ctx_switches += theirs.ctx_switches;
        }
        self.client.cpu_us += other.client.cpu_us;
        self.client.ctx_switches += other.client.ctx_switches;
    }

    fn cpu_us(&self, kind: Option<RoleKind>) -> f64 {
        self.of(kind).map(|u| u.cpu_us).sum()
    }

    fn ctx_switches(&self, kind: RoleKind) -> f64 {
        self.of(Some(kind)).map(|u| u.ctx_switches as f64).sum()
    }

    fn rss_peak_mb(&self, kind: Option<RoleKind>) -> f64 {
        self.of(kind).map(|u| u.rss_peak_mb).sum()
    }

    fn of(&self, kind: Option<RoleKind>) -> impl Iterator<Item = &ProcUsage> {
        self.roles
            .iter()
            .filter(move |(k, _)| kind.is_none_or(|want| want == *k))
            .map(|(_, u)| u)
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `update` with its timestamp moved `after` milliseconds later.
fn rebase(mut update: GraphUpdate, after: u64) -> GraphUpdate {
    match &mut update {
        GraphUpdate::Vertex(v) => v.ts = Timestamp(v.ts.millis() + after),
        GraphUpdate::Edge(e) => e.ts = Timestamp(e.ts.millis() + after),
    }
    update
}

/// Set the deployment up once: spawn, connect, ingest the base stream,
/// wait for the drain. Returns the deployment, the load client and the
/// set-up time.
fn set_up(
    opts: &RunOptions,
    workload: &Workload,
    base: &[GraphUpdate],
    epoch: Instant,
) -> Result<(Sut, Client, f64), String> {
    let t0 = Instant::now();
    let sut = Sut::start(&opts.helios, workload)?;
    let client = Client::with_options(
        sut.gateway_addr(),
        TcpOptions {
            pool: 2,
            ..TcpOptions::default()
        },
    );
    let (healthy, detail) = client
        .health()
        .map_err(|e| format!("gateway health: {e}"))?;
    if !healthy {
        return Err(format!("gateway reports unhealthy: {detail}"));
    }
    let ctx = ServeCtx {
        client: &client,
        fanouts: &[],
        traced: false,
        epoch,
    };
    let loaded = ingest_blocking(ctx, base);
    if loaded.failed_batches > 0 {
        return Err(format!(
            "{} of {} set-up batches were not acknowledged",
            loaded.failed_batches, loaded.batches
        ));
    }
    sut.wait_drained(Duration::from_secs(120))?;
    Ok((sut, client, secs(t0.elapsed())))
}

pub fn run_workload(opts: &RunOptions) -> Result<RunResult, String> {
    let workload = spec::workload(&opts.workload).ok_or_else(|| {
        let known: Vec<&str> = spec::workloads().iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{}` (known: {})",
            opts.workload,
            known.join(", ")
        )
    })?;
    if !opts.helios.is_file() {
        return Err(format!(
            "helios binary not found at {} (run through benchmark/run.sh, which builds it)",
            opts.helios.display()
        ));
    }
    let epoch = Instant::now();
    let mut notes = Vec::new();
    let mut phases = Vec::new();
    let mut spans = SpanLog::new(epoch);

    // Inputs: everything below derives from --seed.
    let dataset = workload.dataset(opts.seed);
    let query = workload.query(&dataset);
    let fanouts = query.fanouts();
    let live_for = Duration::from_secs_f64(opts.seconds * LIVE_SHARE);
    let pipelined_for = Duration::from_secs_f64(opts.seconds * PIPELINED_SHARE);
    let mut events: Vec<GraphUpdate> = dataset.events().collect();
    let base_n = if workload.burst_first {
        0
    } else {
        events.len()
    };
    if !workload.burst_first {
        // The base graph is the whole dataset; what the live and burst
        // phases send is a second draw from the same distribution (edges
        // and feature refreshes only), timestamped after the base.
        let after = events.last().map_or(0, |u| u.ts().millis());
        let live_total = live_for + Duration::from_secs_f64(LIVE_LEAD_IN_SECONDS);
        let needed = workload.burst_updates
            + (f64::from(workload.update_rate) * secs(live_total)).ceil() as usize;
        let again = workload.dataset(opts.seed ^ 0x5EC0);
        events.extend(
            again
                .events()
                .skip(dataset.total_vertices() as usize)
                .take(needed)
                .map(|u| rebase(u, after)),
        );
    }
    let population = dataset.id_range(dataset.seed_population());
    let feature_dim = dataset.config().feature_dim;
    let sequence = |salt: u64| {
        SeedSequence::new(
            workload.seeds,
            population,
            opts.seed.wrapping_mul(1000) + salt,
        )
    };
    let marker_seeds = sequence(0).distinct(MARKER_SEEDS);
    let gate_seeds = sequence(1).distinct(GATE_SEEDS);

    // Set-up, several times over; the last deployment is the one measured.
    let setups = if opts.smoke { 1 } else { SETUPS_PER_RUN };
    let mut setup_s = Vec::with_capacity(setups);
    let mut live_sut = None;
    for _ in 0..setups {
        drop(live_sut.take());
        let (sut, client, took) = set_up(opts, &workload, &events[..base_n], epoch)?;
        setup_s.push(took);
        live_sut = Some((sut, client));
    }
    let (sut, client) = live_sut.expect("at least one set-up");
    phases.push(("setup", setup_s.iter().sum()));
    let mut sent = vec![Sent::Stream {
        start: 0,
        end: base_n,
        live: false,
    }];
    let mut cursor = base_n;
    let ctx = ServeCtx {
        client: &client,
        fanouts: &fanouts,
        traced: opts.traced,
        epoch,
    };
    let mut lag = LagMax::default();

    // The burst phase: a fixed number of updates, back to back, timed
    // until the last of them has been applied by the serving workers.
    let burst = |cursor: &mut usize,
                 sent: &mut Vec<Sent>,
                 lag: &mut LagMax|
     -> Result<(IngestOutcome, f64, Usage), String> {
        let end = *cursor + workload.burst_updates;
        if end > events.len() {
            return Err(format!(
                "stream too short: {} updates left for a burst of {} (lower --seconds)",
                events.len() - *cursor,
                workload.burst_updates
            ));
        }
        let before = Usage::now(&sut);
        let (outcome, drained_at) = with_lag_sampler(&sut, opts.traced, lag, || {
            let outcome = ingest_blocking(ctx, &events[*cursor..end]);
            (outcome, sut.wait_drained(Duration::from_secs(120)))
        });
        let drained_at = drained_at?;
        let used = Usage::now(&sut).since(&before);
        sent.push(Sent::Stream {
            start: *cursor,
            end,
            live: false,
        });
        *cursor = end;
        let took = secs(drained_at.duration_since(outcome.started));
        Ok((outcome, took, used))
    };

    let lead_in = Duration::from_secs_f64(if opts.smoke { 0.5 } else { LEAD_IN_SECONDS });
    let mut burst_out = None;
    if workload.burst_first {
        burst_out = Some(burst(&mut cursor, &mut sent, &mut lag)?);
    }

    // Live phase (latency and freshness) first, while nothing else has
    // stirred the system, after one second of lead-in.
    let live_lead_in = Duration::from_secs_f64(if opts.smoke {
        0.3
    } else {
        LIVE_LEAD_IN_SECONDS
    });
    let before = Usage::now(&sut);
    let live = with_lag_sampler(&sut, opts.traced, &mut lag, || {
        live_phase(LiveConfig {
            serve: ctx,
            lead_in: live_lead_in,
            duration: live_for,
            serve_rate: workload.serve_rate,
            update_rate: workload.update_rate,
            events: &events,
            cursor,
            marker_seeds: &marker_seeds,
            seed_type: query.seed_type(),
            feature_dim,
            seeds: sequence(4),
        })
    });
    let mut serve_used = Usage::now(&sut).since(&before);
    cursor = live.cursor;
    phases.push(("live", secs(live_lead_in + live_for)));
    sent.extend(live.sent.iter().cloned());
    // Pipelined phase (capacity), then — unless it came first — the burst,
    // entered while the system is still busy.
    let before = Usage::now(&sut);
    let pipelined = pipelined_phase(ctx, lead_in, pipelined_for, vec![sequence(5), sequence(6)]);
    serve_used.add(&Usage::now(&sut).since(&before));
    phases.push(("pipelined", secs(lead_in + pipelined_for)));
    let (burst_ingest, burst_s, burst_used) = match burst_out {
        Some(done) => done,
        None => burst(&mut cursor, &mut sent, &mut lag)?,
    };
    phases.push(("burst", burst_s));

    // Markers still in the pipeline must land before the gate reads them.
    sut.wait_drained(Duration::from_secs(120))?;
    spans.absorb(live.spans);
    spans.absorb(burst_ingest.spans);

    let final_marks = sut.watermarks()?;
    let gateway_stats = client.stats().map_err(|e| format!("gateway stats: {e}"))?;
    let gateway_stat = |key: &str| {
        gateway_stats
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let at_end = Usage::now(&sut);

    // Probes against the live deployment (traced runs only).
    let mut probe_seeds = sequence(7);
    let net_probe = if opts.traced {
        let t0 = Instant::now();
        let probe = probes::net(
            &client,
            &sut.worker_addrs(),
            workload.config().route_slots as usize,
            &mut probe_seeds,
        )?;
        let loopback = probes::loopback_rtt_us()?;
        spans.record("probe.net", t0, Instant::now(), NO_PARENT, 0);
        Some((probe, loopback))
    } else {
        None
    };

    // The reference and the correctness gate.
    let t0 = Instant::now();
    let reference = Reference::build(&workload, &query, &sent, &events, &marker_seeds)?;
    spans.record("core.reference.build", t0, Instant::now(), NO_PARENT, 0);
    let t0 = Instant::now();
    let gate = reference.gate(&client, &gate_seeds);
    spans.record("bench.gate", t0, Instant::now(), NO_PARENT, 0);
    phases.push((
        "reference+gate",
        secs(t0.elapsed()) + secs(reference.ingest),
    ));
    drop(client);
    drop(sut);
    let gate_compared = match gate {
        Ok(n) => n,
        Err(e) => {
            reference.shutdown();
            return Err(format!("correctness gate failed: {e}"));
        }
    };

    // Assemble the samples. With spans on, the live phase keeps the
    // requests of traced and untraced blocks apart; together they are the
    // phase (windows then follow blocks, not strict arrival order).
    let mut live_ms = live.serve.plain_ms.clone();
    live_ms.extend(&live.serve.traced_ms);
    let n_live = live_ms.len() as u64;
    let serve_p99_ms = stats::windowed_percentile(&live_ms, P99_WINDOW, 0.99);
    let serve_p90_ms = stats::windowed_percentile(&live_ms, LATENCY_WINDOW, 0.9);
    let serve_p50_ms = stats::windowed_percentile(&live_ms, LATENCY_WINDOW, 0.5);
    let gen_late_p99 = stats::windowed_percentile(&live.serve.late_ms, P99_WINDOW, 0.99);
    let mut fresh_ms = live.freshness_ms.clone();
    stats::sort(&mut fresh_ms);
    let freshness_p90_ms = stats::windowed_percentile(&live.freshness_ms, FRESHNESS_WINDOW, 0.9);
    let serves = (live.serve.succeeded() + pipelined.serve.succeeded()).max(1) as f64;
    let burst_updates = burst_ingest.updates.max(1) as f64;
    let serve_qps = pipelined.median_qps();

    let attempted = live.serve.attempted
        + pipelined.serve.attempted
        + burst_ingest.batches
        + live.ingest_batches
        + live.markers_sent;
    let failed = live.serve.failed
        + pipelined.serve.failed
        + burst_ingest.failed_batches
        + live.ingest_failed
        + live.markers_unseen;
    for e in live.serve.errors.iter().chain(&pipelined.serve.errors) {
        notes.push(format!("failed request: {e}"));
    }
    if live_ms.is_empty() || fresh_ms.is_empty() {
        reference.shutdown();
        return Err(format!(
            "nothing to report: {} serves and {} freshness probes succeeded \
             ({} of {} live serves failed)",
            live_ms.len(),
            fresh_ms.len(),
            live.serve.failed,
            live.serve.attempted
        ));
    }
    let mut valid = true;
    if gen_late_p99 > MAX_GEN_LATE_P99_MS {
        valid = false;
        notes.push(format!(
            "open-loop generator ran {gen_late_p99:.3} ms late at p99 (limit {MAX_GEN_LATE_P99_MS} ms)"
        ));
    }
    for (what, n, p) in [
        ("serve_p90_ms", live_ms.len().min(LATENCY_WINDOW), 0.9),
        (
            "freshness_p90_ms",
            fresh_ms.len().min(FRESHNESS_WINDOW),
            0.9,
        ),
    ] {
        if !stats::supports(n, p) {
            valid = false;
            notes.push(format!(
                "{what}: {n} samples leave fewer than {} beyond it; they support {}",
                stats::MIN_BEYOND,
                stats::highest_supported_percentile(n)
                    .map_or("no percentile".to_string(), |p| format!("p{}", p * 100.0)),
            ));
        }
    }
    if opts.smoke {
        valid = false;
        notes.push("smoke mode: phases shortened, numbers not comparable".into());
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let mut push = |specs: &[spec::MetricSpec], name: &str, value: f64, samples: u64| {
        let (name, unit, _) = specs
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    };

    if !opts.traced {
        let e2e = spec::END_TO_END;
        push(
            e2e,
            "setup_s",
            stats::median(&setup_s).expect("a set-up"),
            setup_s.len() as u64,
        );
        push(e2e, "serve_p50_ms", serve_p50_ms, n_live);
        push(e2e, "serve_p90_ms", serve_p90_ms, n_live);
        push(e2e, "serve_qps", serve_qps, pipelined.slices.iter().sum());
        push(
            e2e,
            "ingest_updates_per_s",
            burst_updates / burst_s,
            burst_ingest.updates,
        );
        push(
            e2e,
            "freshness_p50_ms",
            stats::percentile(&fresh_ms, 0.5),
            fresh_ms.len() as u64,
        );
        push(
            e2e,
            "freshness_p90_ms",
            freshness_p90_ms,
            fresh_ms.len() as u64,
        );
        push(
            e2e,
            "cpu_us_per_serve",
            serve_used.cpu_us(None) / serves,
            serves as u64,
        );
        push(
            e2e,
            "cpu_us_per_update",
            burst_used.cpu_us(None) / burst_updates,
            burst_ingest.updates,
        );
        push(e2e, "mem_rss_peak_mb", at_end.rss_peak_mb(None), 0);
    } else {
        let (net_probe, loopback_rtt_us) = net_probe.expect("traced runs probe the network");
        let serve_p50_us = serve_p50_ms * 1e3;
        let mut reply_bytes: Vec<f64> = live
            .serve
            .reply_bytes
            .iter()
            .chain(&pipelined.serve.reply_bytes)
            .map(|&b| f64::from(b))
            .collect();
        stats::sort(&mut reply_bytes);
        let reply_p50 = stats::percentile(&reply_bytes, 0.5);

        let t0 = Instant::now();
        let serving = reference.serving_probe(&mut sequence(8), &mut sequence(9));
        spans.record("probe.core.serving", t0, Instant::now(), NO_PARENT, 0);
        let t0 = Instant::now();
        let reply_len = reply_p50 as usize;
        let wire = probes::wire(
            &vec![0u8; reply_len],
            &events[..events.len().min(spec::INGEST_BATCH)],
        );
        spans.record("probe.net.wire", t0, Instant::now(), NO_PARENT, 0);
        let scratch = opts.out_dir.join(format!("tmp-{}", std::process::id()));
        let t0 = Instant::now();
        let granule = fanouts.first().copied().unwrap_or(1) as usize * 20 + 8;
        let kv = probes::kvstore(granule, &scratch, opts.seed);
        let _ = std::fs::remove_dir_all(&scratch);
        let kv = kv?;
        spans.record("probe.kvstore", t0, Instant::now(), NO_PARENT, 0);
        let t0 = Instant::now();
        let mq = probes::mq(granule)?;
        spans.record("probe.mq", t0, Instant::now(), NO_PARENT, 0);
        let t0 = Instant::now();
        let sampling = probes::sampling(&events, fanouts.first().copied().unwrap_or(1), opts.seed);
        spans.record("probe.sampling", t0, Instant::now(), NO_PARENT, 0);
        let owner_of_ns = probes::owner_of_ns(
            workload.serving_workers,
            workload.config().route_slots as usize,
        );

        let gateway_hop_us = net_probe.gateway_serve_us - net_probe.direct_serve_us;
        let attributed_us = gateway_hop_us + net_probe.direct_serve_us;
        let wire_us = (wire.encode_serve_ns + wire.decode_reply_ns) / 1e3;
        let unattributed = (serve_p50_us - attributed_us) / serve_p50_us;
        let overhead = match (
            stats::median(&live.serve.traced_ms),
            stats::median(&live.serve.plain_ms),
        ) {
            (Some(traced), Some(plain)) if plain > 0.0 => traced / plain - 1.0,
            _ => 0.0,
        };
        let ack_us = stats::median(&burst_ingest.ack_us).unwrap_or(0.0);
        let updates_end = final_marks.updates_end.max(1) as f64;

        eprintln!("latency budget, one serve on `{}` (us):", workload.name);
        eprintln!("  serve_p50, open loop through the gateway {serve_p50_us:>10.1}");
        eprintln!("    net.gateway_hop                        {gateway_hop_us:>10.1}");
        eprintln!(
            "    net.direct_serve                       {:>10.1}",
            net_probe.direct_serve_us
        );
        eprintln!(
            "      net.echo_rtt                         {:>10.1}",
            net_probe.echo_rtt_us
        );
        eprintln!(
            "      core.serving.serve_encoded           {:>10.1}",
            serving.serve_encoded_us
        );
        eprintln!("      net.wire encode + decode             {wire_us:>10.1}");
        eprintln!(
            "      direct residual                      {:>10.1}",
            net_probe.direct_serve_us - net_probe.echo_rtt_us - serving.serve_encoded_us - wire_us
        );
        eprintln!(
            "    unattributed                           {:>10.1}  ({:.1} % of serve_p50)",
            serve_p50_us - attributed_us,
            unattributed * 100.0
        );

        let l = spec::PER_LAYER;
        push(l, "net.wire.encode_serve_ns", wire.encode_serve_ns, 0);
        push(l, "net.wire.decode_reply_ns", wire.decode_reply_ns, 0);
        push(
            l,
            "net.wire.encode_updates_ns_per_update",
            wire.encode_updates_ns_per_update,
            0,
        );
        push(
            l,
            "net.wire.decode_updates_ns_per_update",
            wire.decode_updates_ns_per_update,
            0,
        );
        push(
            l,
            "net.reply_bytes_p50",
            reply_p50,
            reply_bytes.len() as u64,
        );
        push(l, "net.loopback_rtt_us", loopback_rtt_us, 2000);
        push(l, "net.echo_rtt_us", net_probe.echo_rtt_us, 2000);
        push(l, "net.direct_serve_us", net_probe.direct_serve_us, 1000);
        push(
            l,
            "net.direct_pipelined_qps",
            net_probe.direct_pipelined_qps,
            0,
        );
        push(
            l,
            "net.gateway_echo_rtt_us",
            net_probe.gateway_echo_rtt_us,
            2000,
        );
        push(l, "net.gateway_hop_us", gateway_hop_us, 1000);
        push(
            l,
            "net.gateway.admitted_total",
            gateway_stat("gateway.admitted_total"),
            0,
        );
        push(
            l,
            "net.gateway.shed_total",
            gateway_stat("gateway.shed_total"),
            0,
        );
        push(
            l,
            "net.gateway.forward_errors",
            gateway_stat("gateway.forward_errors"),
            0,
        );
        push(
            l,
            "net.ingest_ack_us_per_batch",
            ack_us,
            burst_ingest.ack_us.len() as u64,
        );
        let per_serve = |v: f64| v / serves;
        let per_update = |v: f64| v / burst_updates;
        use RoleKind::{Gateway, Sampling, ServeWorker};
        push(
            l,
            "proc.gateway.cpu_us_per_serve",
            per_serve(serve_used.cpu_us(Some(Gateway))),
            0,
        );
        push(
            l,
            "proc.serve_worker.cpu_us_per_serve",
            per_serve(serve_used.cpu_us(Some(ServeWorker))),
            0,
        );
        push(
            l,
            "proc.client.cpu_us_per_serve",
            per_serve(serve_used.client.cpu_us),
            0,
        );
        push(
            l,
            "proc.gateway.ctx_switches_per_serve",
            per_serve(serve_used.ctx_switches(Gateway)),
            0,
        );
        push(
            l,
            "proc.serve_worker.ctx_switches_per_serve",
            per_serve(serve_used.ctx_switches(ServeWorker)),
            0,
        );
        push(
            l,
            "proc.sampling.cpu_us_per_update",
            per_update(burst_used.cpu_us(Some(Sampling))),
            0,
        );
        push(
            l,
            "proc.serve_worker.cpu_us_per_update",
            per_update(burst_used.cpu_us(Some(ServeWorker))),
            0,
        );
        push(
            l,
            "proc.gateway.cpu_us_per_update",
            per_update(burst_used.cpu_us(Some(Gateway))),
            0,
        );
        push(
            l,
            "proc.gateway.rss_peak_mb",
            at_end.rss_peak_mb(Some(Gateway)),
            0,
        );
        push(
            l,
            "proc.serve_worker.rss_peak_mb",
            at_end.rss_peak_mb(Some(ServeWorker)),
            0,
        );
        push(
            l,
            "proc.sampling.rss_peak_mb",
            at_end.rss_peak_mb(Some(Sampling)),
            0,
        );
        push(
            l,
            "core.serving.serve_encoded_us",
            serving.serve_encoded_us,
            4000,
        );
        push(
            l,
            "core.serving.serve_encoded_p99_us",
            serving.serve_encoded_p99_us,
            4000,
        );
        push(l, "core.serving.inproc_qps", serving.inproc_qps, 0);
        push(
            l,
            "core.serving.stage.cache_lookup_us",
            serving.stage_us[0],
            0,
        );
        push(
            l,
            "core.serving.stage.hop_expand_us",
            serving.stage_us[1],
            0,
        );
        push(
            l,
            "core.serving.stage.feature_gather_us",
            serving.stage_us[2],
            0,
        );
        push(l, "core.serving.stage.encode_us", serving.stage_us[3], 0);
        push(
            l,
            "core.serving.lookups_per_serve",
            serving.lookups_per_serve,
            0,
        );
        push(
            l,
            "core.serving.lookup_hit_share",
            serving.lookup_hit_share,
            0,
        );
        push(l, "kvstore.get_ns", kv.get_ns, 0);
        push(l, "kvstore.put_ns", kv.put_ns, 0);
        push(
            l,
            "kvstore.multi_get_us_per_256",
            kv.multi_get_us_per_256,
            0,
        );
        push(
            l,
            "kvstore.write_batch_us_per_256",
            kv.write_batch_us_per_256,
            0,
        );
        push(
            l,
            "kvstore.hybrid.multi_get_us_per_256",
            kv.hybrid_multi_get_us_per_256,
            0,
        );
        push(
            l,
            "kvstore.hybrid.fit.multi_get_us_per_256",
            kv.hybrid_fit_multi_get_us_per_256,
            0,
        );
        push(
            l,
            "kvstore.hybrid.block_cache_hit_share",
            kv.hybrid_block_cache_hit_share,
            0,
        );
        push(
            l,
            "kvstore.hybrid.write_batch_us_per_256",
            kv.hybrid_write_batch_us_per_256,
            0,
        );
        push(l, "kvstore.hybrid.stall_share", kv.hybrid_stall_share, 0);
        push(
            l,
            "kvstore.hybrid.disk_bytes_per_user_byte",
            kv.hybrid_disk_bytes_per_user_byte,
            0,
        );
        push(
            l,
            "mq.produce_many_ns_per_record",
            mq.produce_many_ns_per_record,
            0,
        );
        push(l, "mq.poll_ns_per_record", mq.poll_ns_per_record, 0);
        push(l, "mq.wake_latency_us", mq.wake_latency_us, 200);
        push(l, "mq.updates_lag_max", lag.updates as f64, 0);
        push(l, "sampling.offer_ns.random", sampling.random.0, 0);
        push(l, "sampling.offer_ns.topk", sampling.topk.0, 0);
        push(
            l,
            "sampling.offer_ns.edge_weight",
            sampling.edge_weight.0,
            0,
        );
        push(l, "sampling.replace_share.random", sampling.random.1, 0);
        push(l, "sampling.replace_share.topk", sampling.topk.1, 0);
        push(
            l,
            "core.sampler.inproc_updates_per_s",
            reference.updates as f64 / secs(reference.ingest),
            reference.updates,
        );
        push(
            l,
            "core.sampler.busy_share",
            reference.sampler_busy_share,
            0,
        );
        push(
            l,
            "core.sampler.publish_per_update",
            final_marks.samples_end as f64 / updates_end,
            0,
        );
        push(
            l,
            "core.sampler.control_per_update",
            final_marks.control_end as f64 / updates_end,
            0,
        );
        push(l, "core.sampler.backlog_max", lag.backlog as f64, 0);
        push(l, "net.relay.lag_max", lag.relay as f64, 0);
        push(l, "core.serving.apply_lag_max", lag.apply as f64, 0);
        push(l, "membership.owner_of_ns", owner_of_ns, 0);
        push(l, "serve_p99_ms", serve_p99_ms, n_live);
        push(
            l,
            "freshness_p95_ms",
            stats::percentile(&fresh_ms, 0.95),
            fresh_ms.len() as u64,
        );
        push(
            l,
            "bench.gen_late_p99_ms",
            gen_late_p99,
            live.serve.late_ms.len() as u64,
        );
        push(l, "bench.trace_overhead_share", overhead, n_live);
        push(l, "budget.serve_unattributed_share", unattributed, 0);

        eprintln!(
            "spans of `{}` (count, mean us, mean self us):",
            workload.name
        );
        for (name, n, mean_us, self_us) in spans.summary() {
            eprintln!("  {name:<28} {n:>8} {mean_us:>12.1} {self_us:>12.1}");
        }
        std::fs::create_dir_all(&opts.out_dir)
            .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
        let trace_path = opts.out_dir.join(format!("trace-{}.jsonl", workload.name));
        spans
            .write_jsonl(&trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    }
    reference.shutdown();

    Ok(RunResult {
        workload,
        traced: opts.traced,
        metrics,
        attempted: attempted.max(1),
        failed,
        correct: live.serve.malformed + pipelined.serve.malformed == 0,
        valid,
        notes,
        phases,
        gate_compared,
    })
}

/// The `helios` launcher next to this executable, where `run.sh` builds it.
pub fn default_helios() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_default()
        .join("helios")
}
