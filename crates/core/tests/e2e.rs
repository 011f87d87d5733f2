//! End-to-end tests of the Helios deployment: ingest → pre-sample →
//! subscription propagation → query-aware cache → serve.

use helios_core::{HeliosConfig, HeliosDeployment};
use helios_query::{KHopQuery, SampledSubgraph, SamplingStrategy};
use helios_types::{
    EdgeType, EdgeUpdate, GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate,
};
use std::time::Duration;

const USER: VertexType = VertexType(0);
const ITEM: VertexType = VertexType(1);
const CLICK: EdgeType = EdgeType(0);
const COP: EdgeType = EdgeType(1);

fn vertex(id: u64, vt: VertexType, ts: u64) -> GraphUpdate {
    GraphUpdate::Vertex(VertexUpdate {
        vtype: vt,
        id: VertexId(id),
        feature: vec![id as f32, 1.0, 2.0, 3.0],
        ts: Timestamp(ts),
    })
}

fn click(src: u64, dst: u64, ts: u64) -> GraphUpdate {
    GraphUpdate::Edge(EdgeUpdate {
        etype: CLICK,
        src_type: USER,
        src: VertexId(src),
        dst_type: ITEM,
        dst: VertexId(dst),
        ts: Timestamp(ts),
        weight: 1.0,
    })
}

fn cop(src: u64, dst: u64, ts: u64) -> GraphUpdate {
    GraphUpdate::Edge(EdgeUpdate {
        etype: COP,
        src_type: ITEM,
        src: VertexId(src),
        dst_type: ITEM,
        dst: VertexId(dst),
        ts: Timestamp(ts),
        weight: 1.0,
    })
}

fn two_hop_topk(f1: u32, f2: u32) -> KHopQuery {
    KHopQuery::builder(USER)
        .hop(CLICK, ITEM, f1, SamplingStrategy::TopK)
        .hop(COP, ITEM, f2, SamplingStrategy::TopK)
        .build()
        .unwrap()
}

const SETTLE: Duration = Duration::from_secs(20);

/// Users 1..=U each click items; items co-purchase other items.
fn world(users: u64, items_per_user: u64) -> Vec<GraphUpdate> {
    let mut updates = Vec::new();
    let mut ts = 0u64;
    let mut t = || {
        ts += 1;
        ts
    };
    for u in 1..=users {
        updates.push(vertex(u, USER, t()));
    }
    for i in 1000..(1000 + users * items_per_user) {
        updates.push(vertex(i, ITEM, t()));
    }
    // Co-purchase chains among items.
    for i in 1000..(1000 + users * items_per_user) {
        for j in 0..3 {
            let dst = 1000 + ((i - 1000) * 7 + j * 13 + 1) % (users * items_per_user);
            updates.push(cop(i, dst, t()));
        }
    }
    // Clicks last (so hop-2 reservoirs exist when hop-1 subscribes).
    for u in 1..=users {
        for k in 0..items_per_user {
            let item = 1000 + ((u - 1) * items_per_user + k) % (users * items_per_user);
            updates.push(click(u, item, t()));
        }
    }
    updates
}

#[test]
fn two_hop_pipeline_end_to_end() {
    let helios =
        HeliosDeployment::start(HeliosConfig::with_workers(2, 2), two_hop_topk(2, 2)).unwrap();
    helios.ingest_and_settle(&world(8, 5), SETTLE).unwrap();

    for u in 1..=8u64 {
        let sg = helios.serve(VertexId(u)).unwrap();
        assert_eq!(sg.seed, VertexId(u));
        assert_eq!(sg.hop_count(), 2);
        let hop1: Vec<VertexId> = sg.hops[0].flat().collect();
        assert_eq!(hop1.len(), 2, "user {u}: TopK(2) over 5 clicks");
        // Each hop-1 item must have 2 co-purchase samples (every item has
        // 3 co-purchase edges).
        for (parent, children) in &sg.hops[1].groups {
            assert!(hop1.contains(parent));
            assert_eq!(children.len(), 2, "item {parent:?}");
        }
        // Every referenced vertex must have its feature in the cache.
        assert_eq!(
            sg.feature_coverage(),
            1.0,
            "user {u}: missing features {sg:?}"
        );
        // Feature contents propagated correctly.
        let f = sg.feature(VertexId(u)).unwrap();
        assert_eq!(f[0], u as f32);
    }
    helios.shutdown();
}

#[test]
fn topk_results_match_oracle() {
    // TopK is deterministic, so Helios's pre-sampled results must equal
    // ad-hoc sampling over the full graph.
    use helios_gnn::OracleSampler;

    let query = two_hop_topk(3, 2);
    let updates = world(6, 6);
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(3, 2), query.clone()).unwrap();
    helios.ingest_and_settle(&updates, SETTLE).unwrap();
    let oracle = OracleSampler::from_events(updates.iter().cloned());

    let mut rng = rand::thread_rng();
    for u in 1..=6u64 {
        let got = helios.serve(VertexId(u)).unwrap();
        let want = oracle.sample(VertexId(u), &query, &mut rng);
        let norm = |sg: &SampledSubgraph, hop: usize| -> Vec<(u64, Vec<u64>)> {
            sg.hops[hop]
                .groups
                .iter()
                .map(|(p, cs)| {
                    let mut cs: Vec<u64> = cs.iter().map(|c| c.raw()).collect();
                    cs.sort_unstable();
                    (p.raw(), cs)
                })
                .collect::<Vec<_>>()
        };
        let mut got1 = norm(&got, 0);
        let mut want1 = norm(&want, 0);
        got1.sort();
        want1.sort();
        assert_eq!(got1, want1, "user {u} hop 1");
        let mut got2 = norm(&got, 1);
        let mut want2 = norm(&want, 1);
        got2.sort();
        want2.sort();
        assert_eq!(got2, want2, "user {u} hop 2");
    }
    helios.shutdown();
}

#[test]
fn new_edges_are_reflected_after_settle() {
    let helios =
        HeliosDeployment::start(HeliosConfig::with_workers(2, 2), two_hop_topk(2, 2)).unwrap();
    helios.ingest_and_settle(&world(4, 4), SETTLE).unwrap();

    let before = helios.serve(VertexId(1)).unwrap();
    let hop1_before: Vec<VertexId> = before.hops[0].flat().collect();

    // A brand-new item with the newest timestamps: must displace an old
    // hop-1 sample under TopK.
    let new_item = 99_999u64;
    helios
        .ingest_and_settle(
            &[
                vertex(new_item, ITEM, 1_000_000),
                cop(new_item, 1001, 1_000_001),
                cop(new_item, 1002, 1_000_002),
                click(1, new_item, 1_000_003),
            ],
            SETTLE,
        )
        .unwrap();

    let after = helios.serve(VertexId(1)).unwrap();
    let hop1_after: Vec<VertexId> = after.hops[0].flat().collect();
    assert!(
        hop1_after.contains(&VertexId(new_item)),
        "new click must appear: before {hop1_before:?}, after {hop1_after:?}"
    );
    // The new item's own co-purchases must be served (subscription chased
    // the hop-1 change) with features.
    let group = after.hops[1]
        .groups
        .iter()
        .find(|(p, _)| *p == VertexId(new_item))
        .expect("hop-2 group for the new item");
    assert_eq!(group.1.len(), 2);
    assert_eq!(after.feature_coverage(), 1.0, "{after:?}");
    helios.shutdown();
}

#[test]
fn feature_updates_propagate() {
    let helios =
        HeliosDeployment::start(HeliosConfig::with_workers(2, 2), two_hop_topk(2, 2)).unwrap();
    helios.ingest_and_settle(&world(3, 3), SETTLE).unwrap();

    let sg = helios.serve(VertexId(2)).unwrap();
    let item = sg.hops[0].flat().next().unwrap();

    // Refresh that item's feature.
    let refreshed = GraphUpdate::Vertex(VertexUpdate {
        vtype: ITEM,
        id: item,
        feature: vec![-7.0; 4],
        ts: Timestamp(500_000),
    });
    helios.ingest_and_settle(&[refreshed], SETTLE).unwrap();

    let sg2 = helios.serve(VertexId(2)).unwrap();
    assert_eq!(
        sg2.feature(item).unwrap(),
        &[-7.0; 4],
        "feature refresh must reach the serving cache"
    );
    helios.shutdown();
}

#[test]
fn three_hop_query_transitive_subscriptions() {
    // Person-Knows-Person-Knows-Person-like chain on one vertex type.
    let knows = EdgeType(7);
    let person = VertexType(3);
    let q = KHopQuery::builder(person)
        .hop(knows, person, 2, SamplingStrategy::TopK)
        .hop(knows, person, 2, SamplingStrategy::TopK)
        .hop(knows, person, 2, SamplingStrategy::TopK)
        .build()
        .unwrap();
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 3), q).unwrap();

    let mut updates = Vec::new();
    let mut ts = 0u64;
    let n = 30u64;
    for v in 0..n {
        ts += 1;
        updates.push(GraphUpdate::Vertex(VertexUpdate {
            vtype: person,
            id: VertexId(v),
            feature: vec![v as f32; 4],
            ts: Timestamp(ts),
        }));
    }
    // Ring with chords: everyone knows the next 3 people.
    for v in 0..n {
        for d in 1..=3u64 {
            ts += 1;
            updates.push(GraphUpdate::Edge(EdgeUpdate {
                etype: knows,
                src_type: person,
                src: VertexId(v),
                dst_type: person,
                dst: VertexId((v + d) % n),
                ts: Timestamp(ts),
                weight: 1.0,
            }));
        }
    }
    helios.ingest_and_settle(&updates, SETTLE).unwrap();

    for v in 0..n {
        let sg = helios.serve(VertexId(v)).unwrap();
        assert_eq!(sg.hop_count(), 3, "seed {v}");
        assert_eq!(sg.hops[0].edge_count(), 2);
        assert_eq!(sg.hops[1].edge_count(), 4);
        assert_eq!(sg.hops[2].edge_count(), 8, "seed {v}: {sg:?}");
        assert_eq!(sg.feature_coverage(), 1.0, "seed {v}");
    }
    helios.shutdown();
}

#[test]
fn checkpoint_and_restore_preserve_serving_state() {
    let dir = std::env::temp_dir().join(format!("helios-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let query = two_hop_topk(2, 2);
    let updates = world(5, 4);

    let config = HeliosConfig::with_workers(2, 2);
    let baseline: Vec<SampledSubgraph>;
    {
        let helios = HeliosDeployment::start(config.clone(), query.clone()).unwrap();
        helios.ingest_and_settle(&updates, SETTLE).unwrap();
        baseline = (1..=5u64)
            .map(|u| helios.serve(VertexId(u)).unwrap())
            .collect();
        helios.checkpoint(&dir).unwrap();
        helios.shutdown();
    }

    // Restart from the checkpoint; ingest one more click; the reservoirs
    // must continue from the checkpointed state.
    let helios = HeliosDeployment::start_from_checkpoint(config, query, &dir).unwrap();
    // Without replaying anything, subscriptions were checkpointed on the
    // sampling side but the serving caches start empty; re-subscribing
    // happens as updates flow. Ingest a fresh click per user so every
    // reservoir republishes to its subscribers.
    let mut fresh = Vec::new();
    for u in 1..=5u64 {
        fresh.push(click(u, 1000 + u, 2_000_000 + u));
    }
    helios.ingest_and_settle(&fresh, SETTLE).unwrap();

    for (i, u) in (1..=5u64).enumerate() {
        let sg = helios.serve(VertexId(u)).unwrap();
        let hop1: Vec<VertexId> = sg.hops[0].flat().collect();
        assert_eq!(hop1.len(), 2, "user {u}");
        // The fresh click is the newest edge, so it must be in TopK(2);
        // the other slot comes from the *checkpointed* reservoir.
        assert!(hop1.contains(&VertexId(1000 + u)), "user {u}: {hop1:?}");
        let old_hop1: Vec<VertexId> = baseline[i].hops[0].flat().collect();
        assert!(
            hop1.iter().any(|v| old_hop1.contains(v)),
            "user {u}: checkpointed sample must survive ({old_hop1:?} → {hop1:?})"
        );
    }
    helios.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ttl_expiry_removes_stale_samples() {
    let helios =
        HeliosDeployment::start(HeliosConfig::with_workers(2, 2), two_hop_topk(3, 2)).unwrap();
    let mut updates = vec![vertex(1, USER, 1)];
    for (i, ts) in [(1000u64, 10u64), (1001, 20), (1002, 30)] {
        updates.push(vertex(i, ITEM, ts));
        updates.push(click(1, i, ts));
    }
    helios.ingest_and_settle(&updates, SETTLE).unwrap();
    assert_eq!(helios.serve(VertexId(1)).unwrap().hops[0].edge_count(), 3);

    helios.expire_before(Timestamp(15)).unwrap();
    assert!(helios.quiesce(SETTLE));
    let sg = helios.serve(VertexId(1)).unwrap();
    let hop1: Vec<u64> = sg.hops[0].flat().map(|v| v.raw()).collect();
    assert_eq!(hop1.len(), 2, "edge at ts=10 must be expired: {hop1:?}");
    assert!(!hop1.contains(&1000));
    helios.shutdown();
}

#[test]
fn ingestion_latency_is_recorded() {
    let helios =
        HeliosDeployment::start(HeliosConfig::with_workers(1, 1), two_hop_topk(2, 2)).unwrap();
    helios.ingest_and_settle(&world(3, 3), SETTLE).unwrap();
    let total: u64 = helios
        .serving_workers()
        .iter()
        .map(|s| s.ingestion_latency().count())
        .sum();
    assert!(total > 0, "ingestion latency samples must be recorded");
    let p99_ms = helios.serving_workers()[0]
        .ingestion_latency()
        .percentile_ms(99.0);
    assert!(p99_ms < 30_000.0, "p99 ingestion {p99_ms} ms is absurd");
    helios.shutdown();
}

#[test]
fn serving_unknown_seed_returns_empty() {
    let helios =
        HeliosDeployment::start(HeliosConfig::with_workers(1, 2), two_hop_topk(2, 2)).unwrap();
    let sg = helios.serve(VertexId(777)).unwrap();
    assert_eq!(sg.sampled_edge_count(), 0);
    helios.shutdown();
}

#[test]
fn concurrent_serving_while_ingesting() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let helios = Arc::new(
        HeliosDeployment::start(HeliosConfig::with_workers(2, 2), two_hop_topk(2, 2)).unwrap(),
    );
    helios.ingest_and_settle(&world(10, 4), SETTLE).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut servers = Vec::new();
    for t in 0..4 {
        let helios = Arc::clone(&helios);
        let stop = Arc::clone(&stop);
        servers.push(std::thread::spawn(move || {
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let u = 1 + (served + t) % 10;
                let sg = helios.serve(VertexId(u)).unwrap();
                assert_eq!(sg.seed, VertexId(u));
                served += 1;
            }
            served
        }));
    }
    // Ingest while serving (the isolation property of §7.2.3).
    for round in 0..50u64 {
        let mut batch = Vec::new();
        for u in 1..=10u64 {
            batch.push(click(
                u,
                1000 + (round * 10 + u) % 40,
                10_000 + round * 100 + u,
            ));
        }
        helios.ingest_batch(&batch).unwrap();
    }
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = servers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);
    assert!(helios.quiesce(SETTLE));
    match Arc::try_unwrap(helios) {
        Ok(h) => h.shutdown(),
        Err(_) => panic!("serving threads still hold the deployment"),
    }
}

#[test]
fn periodic_checkpoints_fire_and_are_restorable() {
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("helios-periodic-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let query = two_hop_topk(2, 2);
    let config = HeliosConfig::with_workers(2, 2);
    {
        let helios = Arc::new(HeliosDeployment::start(config.clone(), query.clone()).unwrap());
        let _guard = helios.start_periodic_checkpoints(&dir, Duration::from_millis(50));
        helios.ingest_and_settle(&world(4, 3), SETTLE).unwrap();
        // Wait for at least one trigger to fire.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let files = std::fs::read_dir(&dir).unwrap().count();
            if files > 0 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no checkpoint fired");
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(_guard);
        match Arc::try_unwrap(helios) {
            Ok(h) => h.shutdown(),
            Err(_) => panic!("guard still holds the deployment"),
        }
    }
    // Checkpoint files exist for every (worker, shard), plus the
    // topology manifest.
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(
        files,
        config.sampling_workers * config.sampling_threads + 1,
        "one checkpoint file per sampling shard plus manifest.ckpt"
    );
    assert!(dir.join("manifest.ckpt").is_file());
    // And a fresh deployment can restore from them.
    let restored = HeliosDeployment::start_from_checkpoint(config, query, &dir).unwrap();
    restored.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serving_replicas_converge_and_share_load() {
    let mut config = HeliosConfig::with_workers(2, 2);
    config.serving_replicas = 3;
    let helios = HeliosDeployment::start(config, two_hop_topk(2, 2)).unwrap();
    helios.ingest_and_settle(&world(6, 4), SETTLE).unwrap();

    // 2 logical workers × 3 replicas.
    assert_eq!(helios.serving_workers().len(), 6);
    assert_eq!(helios.serving_replicas_of(0).len(), 3);

    // Replicas of the same logical worker converge to identical caches:
    // serving any seed through each replica directly gives the same
    // (TopK-deterministic) result.
    for u in 1..=6u64 {
        let owner = helios.serving_worker_for(VertexId(u)).id();
        let results: Vec<_> = helios
            .serving_replicas_of(owner.0)
            .iter()
            .map(|w| {
                w.serve(VertexId(u), helios_telemetry::TraceCtx::NONE)
                    .unwrap()
            })
            .collect();
        for r in &results[1..] {
            assert_eq!(r.hops, results[0].hops, "replica divergence for {u}");
            assert_eq!(
                r.feature_coverage(),
                results[0].feature_coverage(),
                "feature divergence for {u}"
            );
        }
    }

    // Round-robin spreads requests across replicas.
    for _ in 0..300 {
        let _ = helios.serve(VertexId(1)).unwrap();
    }
    let served: Vec<u64> = helios
        .serving_replicas_of(helios.serving_worker_for(VertexId(1)).id().0)
        .iter()
        .map(|w| w.served())
        .collect();
    let min = *served.iter().min().unwrap();
    assert!(min > 0, "every replica must take load: {served:?}");
    helios.shutdown();
}

#[test]
fn pipeline_lag_is_zero_after_drain() {
    let helios =
        HeliosDeployment::start(HeliosConfig::with_workers(2, 2), two_hop_topk(2, 2)).unwrap();
    helios.ingest_and_settle(&world(6, 4), SETTLE).unwrap();

    let report = helios.broker().lag_report();
    assert!(!report.is_empty(), "workers must have registered consumers");
    // Every worker consumer group drained its topic completely.
    for e in &report {
        assert_eq!(
            e.lag, 0,
            "group {} on topic {} still lags after quiesce",
            e.group, e.topic
        );
    }
    // The update stream was consumed by every sampling worker's group.
    let groups = helios.broker().consumer_groups();
    assert!(groups.len() >= 2, "expected worker groups, got {groups:?}");
    for g in &groups {
        assert_eq!(helios.broker().group_lag(g, "updates"), 0);
    }
    helios.shutdown();
}

#[test]
fn telemetry_snapshot_covers_subsystems() {
    let mut config = HeliosConfig::with_workers(2, 2);
    config.stats_interval = Some(Duration::from_millis(25));
    let helios = HeliosDeployment::start(config, two_hop_topk(2, 2)).unwrap();
    helios.ingest_and_settle(&world(6, 4), SETTLE).unwrap();
    for u in 1..=6u64 {
        let _ = helios.serve(VertexId(u)).unwrap();
    }
    // Let the stats reporter refresh the pipeline gauges at least once.
    std::thread::sleep(Duration::from_millis(120));

    let snap = helios.telemetry_snapshot();
    let subsystems = snap.subsystems();
    for want in ["sampler", "serving", "mq", "actor", "kvstore"] {
        assert!(
            subsystems.iter().any(|s| s == want),
            "snapshot must cover {want}: {subsystems:?}"
        );
    }
    assert!(snap.counter_total("sampler.updates_processed") > 0);
    assert!(snap.counter_total("serving.served") >= 6);
    assert!(snap.counter_total("serving.applied") > 0);
    let hist = snap
        .histogram_total("serving.latency")
        .expect("latency histogram");
    assert!(hist.count > 0);
    // Rendered form mentions each subsystem (what --stats prints).
    let rendered = snap.render();
    for want in ["sampler.", "serving.", "mq.", "kvstore."] {
        assert!(
            rendered.contains(want),
            "render missing {want}:\n{rendered}"
        );
    }
    helios.shutdown();
}

#[test]
fn traces_follow_request_and_update_paths() {
    use helios_telemetry::{drain_spans, set_tracing, to_chrome_trace, to_jsonl};

    let helios =
        HeliosDeployment::start(HeliosConfig::with_workers(2, 2), two_hop_topk(2, 2)).unwrap();
    // Enable tracing only around the traffic we want journaled.
    set_tracing(true);
    helios.ingest_and_settle(&world(4, 3), SETTLE).unwrap();
    let _ = helios.serve(VertexId(1)).unwrap();
    set_tracing(false);
    let spans = drain_spans();

    // One inference request: router.serve → serving.serve → per-stage
    // grandchildren (cache lookup, hop expansion, feature gather, encode).
    let router = spans
        .iter()
        .find(|s| s.name == "router.serve")
        .expect("router root span");
    let serve = spans
        .iter()
        .find(|s| s.name == "serving.serve" && s.trace == router.trace)
        .expect("serving.serve child");
    assert_eq!(serve.parent, router.span, "serve nests under the router");
    for stage in [
        "serving.cache_lookup",
        "serving.hop_expand",
        "serving.feature_gather",
        "serving.encode",
    ] {
        let st = spans
            .iter()
            .find(|s| s.name == stage && s.trace == router.trace)
            .unwrap_or_else(|| panic!("{stage} grandchild"));
        assert_eq!(st.parent, serve.span, "{stage} nests under the serve");
    }

    // One graph update: sampler.poll → sampler.shard → sampler.reservoir,
    // then serving.cache_apply on the same trace across threads and
    // queues. Anchor on an update whose reservoir change reached a
    // serving cache (vertex updates and sub-less edges don't fan out).
    let apply = spans
        .iter()
        .find(|s| {
            s.name == "serving.cache_apply"
                && spans
                    .iter()
                    .any(|r| r.name == "sampler.reservoir" && r.trace == s.trace)
        })
        .expect("an update's trace reaches the serving cache");
    let t = apply.trace;
    let poll = spans
        .iter()
        .find(|s| s.name == "sampler.poll" && s.trace == t)
        .expect("update poll span");
    let shard = spans
        .iter()
        .find(|s| s.name == "sampler.shard" && s.trace == t && s.parent == poll.span)
        .expect("shard span under the poll span");
    assert!(
        spans
            .iter()
            .any(|s| s.name == "sampler.reservoir" && s.trace == t && s.parent == shard.span),
        "reservoir offer nests under the shard actor"
    );
    assert_ne!(
        apply.thread, shard.thread,
        "apply runs on a serving updater thread, not the sampling shard"
    );

    // Dumpable as JSONL (one parseable object per line, ids intact) …
    let jsonl = to_jsonl(&spans);
    assert_eq!(jsonl.lines().count(), spans.len());
    let line = jsonl
        .lines()
        .find(|l| l.contains(&format!("\"span\":{},", apply.span)))
        .expect("apply span serialized");
    assert!(line.contains("\"name\":\"serving.cache_apply\""));
    assert!(line.contains(&format!("\"trace\":{},", apply.trace)));
    assert!(line.contains(&format!("\"parent\":{},", apply.parent)));
    // … and as a chrome://tracing event array.
    let chrome = to_chrome_trace(&spans);
    assert!(chrome.starts_with('[') && chrome.trim_end().ends_with(']'));
    assert!(chrome.contains("\"router.serve\""));
    helios.shutdown();
}

#[test]
fn both_policy_serves_undirected_neighborhoods() {
    // With the `Both` partition policy, an edge (a -CoP-> b) also makes
    // `a` appear among b's out-neighbors, so a query over an undirected
    // relation samples in both directions.
    use helios_types::PartitionPolicy;
    let q = KHopQuery::builder(ITEM)
        .hop(COP, ITEM, 5, SamplingStrategy::TopK)
        .build()
        .unwrap();
    let mut config = HeliosConfig::with_workers(2, 2);
    config.policy = PartitionPolicy::Both;
    let helios = HeliosDeployment::start(config, q).unwrap();

    let updates = vec![
        vertex(100, ITEM, 1),
        vertex(101, ITEM, 1),
        vertex(102, ITEM, 1),
        // Directed edges all *into* 102.
        cop(100, 102, 10),
        cop(101, 102, 11),
    ];
    helios.ingest_and_settle(&updates, SETTLE).unwrap();

    // Under BySrc, 102 would have no out-neighbors; under Both it has the
    // reversed copies.
    let sg = helios.serve(VertexId(102)).unwrap();
    let mut hop1: Vec<u64> = sg.hops[0].flat().map(|v| v.raw()).collect();
    hop1.sort_unstable();
    assert_eq!(hop1, vec![100, 101], "{sg:?}");
    // And the forward direction still works.
    let sg = helios.serve(VertexId(100)).unwrap();
    let hop1: Vec<u64> = sg.hops[0].flat().map(|v| v.raw()).collect();
    assert_eq!(hop1, vec![102]);
    assert_eq!(sg.feature_coverage(), 1.0);
    helios.shutdown();
}
