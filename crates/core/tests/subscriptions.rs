//! Tests of the subscription protocol's bookkeeping (§5.3, Fig. 7):
//! refcounted subscriptions must neither leak cache entries (evicted
//! hop-2 subtrees linger) nor over-evict (entries still referenced by
//! another parent disappear).

use helios_core::{HeliosConfig, HeliosDeployment};
use helios_query::{KHopQuery, SamplingStrategy};
use helios_types::{
    EdgeType, EdgeUpdate, GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

const USER: VertexType = VertexType(0);
const ITEM: VertexType = VertexType(1);
const CLICK: EdgeType = EdgeType(0);
const COP: EdgeType = EdgeType(1);
const SETTLE: Duration = Duration::from_secs(30);

fn vertex(id: u64, vt: VertexType, ts: u64) -> GraphUpdate {
    GraphUpdate::Vertex(VertexUpdate {
        vtype: vt,
        id: VertexId(id),
        feature: vec![id as f32; 2],
        ts: Timestamp(ts),
    })
}

fn edge(
    etype: EdgeType,
    st: VertexType,
    src: u64,
    dt: VertexType,
    dst: u64,
    ts: u64,
) -> GraphUpdate {
    GraphUpdate::Edge(EdgeUpdate {
        etype,
        src_type: st,
        src: VertexId(src),
        dst_type: dt,
        dst: VertexId(dst),
        ts: Timestamp(ts),
        weight: 1.0,
    })
}

fn one_by_one_query() -> KHopQuery {
    KHopQuery::builder(USER)
        .hop(CLICK, ITEM, 1, SamplingStrategy::TopK)
        .hop(COP, ITEM, 1, SamplingStrategy::TopK)
        .build()
        .unwrap()
}

/// TopK(1) hop-1: each new click evicts the previous item. The serving
/// cache must track the *current* chain only — after hundreds of
/// replacements the cache cannot keep growing (no subscription leaks).
#[test]
fn replacements_do_not_leak_cache_entries() {
    let helios =
        HeliosDeployment::start(HeliosConfig::with_workers(2, 1), one_by_one_query()).unwrap();

    // Items 100..400, each with one co-purchase edge to item 900.
    let mut setup = vec![vertex(1, USER, 1), vertex(900, ITEM, 2)];
    for i in 100..400u64 {
        setup.push(vertex(i, ITEM, 3));
        setup.push(edge(COP, ITEM, i, ITEM, 900, 4));
    }
    helios.ingest_and_settle(&setup, SETTLE).unwrap();

    // Click items one after another: each click replaces the hop-1 sample.
    for (k, i) in (100..400u64).enumerate() {
        helios
            .ingest(&edge(CLICK, USER, 1, ITEM, i, 1000 + k as u64))
            .unwrap();
    }
    assert!(helios.quiesce(SETTLE));

    // The final chain must be exactly: 1 -> 399 -> 900, fully featured.
    let sg = helios.serve(VertexId(1)).unwrap();
    let hop1: Vec<u64> = sg.hops[0].flat().map(|v| v.raw()).collect();
    assert_eq!(hop1, vec![399]);
    let hop2: Vec<u64> = sg.hops[1].flat().map(|v| v.raw()).collect();
    assert_eq!(hop2, vec![900]);
    assert_eq!(sg.feature_coverage(), 1.0, "{sg:?}");

    // No leaks: compact away tombstones, then check the cache holds only
    // the live chain (Q1[user] + Q2[current item]; features of 1, 399,
    // 900) — not the 299 evicted subscriptions.
    let sw = &helios.serving_workers()[0];
    sw.expire_before(Timestamp(0)).unwrap(); // compacts tombstones only
    let (samples, features) = sw.cache_stats();
    assert!(
        samples.mem_entries <= 4,
        "sample table leaked: {} entries",
        samples.mem_entries
    );
    assert!(
        features.mem_entries <= 6,
        "feature table leaked: {} entries",
        features.mem_entries
    );
    helios.shutdown();
}

/// Two seeds sample the *same* hop-1 item; when one seed's sample is
/// replaced, the shared item's hop-2 entries and features must survive
/// for the other seed (refcount > 0).
#[test]
fn shared_subscriptions_survive_partial_unsubscribe() {
    let helios =
        HeliosDeployment::start(HeliosConfig::with_workers(2, 1), one_by_one_query()).unwrap();

    let shared = 500u64;
    let mut setup = vec![
        vertex(1, USER, 1),
        vertex(2, USER, 1),
        vertex(shared, ITEM, 1),
        vertex(600, ITEM, 1),
        vertex(901, ITEM, 1),
        edge(COP, ITEM, shared, ITEM, 901, 2),
        edge(COP, ITEM, 600, ITEM, 901, 2),
        // Both users click the shared item.
        edge(CLICK, USER, 1, ITEM, shared, 10),
        edge(CLICK, USER, 2, ITEM, shared, 10),
    ];
    setup.push(vertex(700, ITEM, 1));
    helios.ingest_and_settle(&setup, SETTLE).unwrap();

    // User 1 clicks a newer item: its hop-1 sample moves off `shared`.
    helios
        .ingest_and_settle(&[edge(CLICK, USER, 1, ITEM, 600, 99)], SETTLE)
        .unwrap();

    let sg1 = helios.serve(VertexId(1)).unwrap();
    assert_eq!(
        sg1.hops[0].flat().map(|v| v.raw()).collect::<Vec<_>>(),
        vec![600]
    );
    // User 2 still samples the shared item, with its hop-2 chain intact.
    let sg2 = helios.serve(VertexId(2)).unwrap();
    assert_eq!(
        sg2.hops[0].flat().map(|v| v.raw()).collect::<Vec<_>>(),
        vec![shared]
    );
    assert_eq!(
        sg2.hops[1].flat().map(|v| v.raw()).collect::<Vec<_>>(),
        vec![901]
    );
    assert_eq!(sg2.feature_coverage(), 1.0, "{sg2:?}");
    helios.shutdown();
}

/// A diamond: both hop-1 samples of one seed point at the same hop-2
/// vertex. Replacing ONE of them must not evict the shared hop-2 entry.
#[test]
fn diamond_refcounts() {
    let q = KHopQuery::builder(USER)
        .hop(CLICK, ITEM, 2, SamplingStrategy::TopK)
        .hop(COP, ITEM, 1, SamplingStrategy::TopK)
        .build()
        .unwrap();
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 1), q).unwrap();

    let mut setup = vec![vertex(1, USER, 1), vertex(999, ITEM, 1)];
    for i in [100u64, 101, 102] {
        setup.push(vertex(i, ITEM, 1));
        setup.push(edge(COP, ITEM, i, ITEM, 999, 2));
    }
    setup.push(edge(CLICK, USER, 1, ITEM, 100, 10));
    setup.push(edge(CLICK, USER, 1, ITEM, 101, 11));
    helios.ingest_and_settle(&setup, SETTLE).unwrap();

    let sg = helios.serve(VertexId(1)).unwrap();
    // Both hop-1 items co-purchase 999.
    assert_eq!(sg.hops[1].edge_count(), 2);
    assert!(sg.hops[1].flat().all(|v| v == VertexId(999)));

    // Replace one hop-1 sample (102 is newer than 100).
    helios
        .ingest_and_settle(&[edge(CLICK, USER, 1, ITEM, 102, 50)], SETTLE)
        .unwrap();
    let sg = helios.serve(VertexId(1)).unwrap();
    let hop1: Vec<u64> = sg.hops[0].flat().map(|v| v.raw()).collect();
    assert!(hop1.contains(&102) && hop1.contains(&101), "{hop1:?}");
    // 999 must still be served through both branches with its feature.
    assert_eq!(sg.hops[1].edge_count(), 2, "{sg:?}");
    assert!(sg.feature(VertexId(999)).is_some());
    helios.shutdown();
}

// ---- subscription-churn seeded test ----
//
// The refcount tables are a *derived* index over the reservoir tables:
// whatever interleaving of subscribes, unsubscribes, replacements and TTL
// evictions the stream produced, after a quiesce the subscription state
// must be exactly what a from-scratch derivation over the live reservoir
// contents would produce (the same derivation a `Rebuild` scan runs).
// Any drift is a leak (stale subs pin evicted cache entries forever) or an
// over-eviction (live entries lose their subscription and go stale).

/// One step of churn against a 2-hop CLICK→COP query.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// USER u clicks ITEM i (hop-0 reservoir offer; may evict).
    Click(u64, u64),
    /// ITEM i co-purchased with ITEM j (hop-1 reservoir offer).
    Cop(u64, u64),
    /// Feature update for USER u (also charges the implicit seed sub).
    UserVertex(u64),
    /// Feature update for ITEM i.
    ItemVertex(u64),
    /// TTL expiry of everything older than the recent window.
    Expire,
}

fn churn_op(rng: &mut StdRng) -> ChurnOp {
    match rng.gen_range(0..11) {
        0..=3 => ChurnOp::Click(rng.gen_range(1..=4), rng.gen_range(100..110)),
        4..=7 => ChurnOp::Cop(rng.gen_range(100..110), rng.gen_range(100..110)),
        8 => ChurnOp::UserVertex(rng.gen_range(1..=4)),
        9 => ChurnOp::ItemVertex(rng.gen_range(100..110)),
        _ => ChurnOp::Expire,
    }
}

type Refcounts = HashMap<(u64, u32), u32>;
type Reservoirs = [HashMap<u64, Vec<u64>>; 2];

/// Tiny fan-outs (2 then 1) over a small vertex space force constant
/// reservoir replacement; interleaved TTL expiry tears entries out
/// from under in-flight subscriptions. After quiescing, the global
/// `sample_subs`/`feat_subs` refcounts must equal the from-scratch
/// derivation over the surviving reservoir contents, and the serving
/// caches must hold exactly what those reservoirs and subscriptions say.
#[test]
fn subscription_churn_converges_to_reservoir_contents() {
    for seed in 1..=12u64 {
        churn_case(seed, &churn_ops(seed), false);
    }
}

/// The same churn with every run of updates between two `Expire` ops
/// ingested as one batch, so sampling shards drain many messages at once
/// and their flushes coalesce records and net control traffic.
#[test]
fn subscription_churn_batched_converges_to_reservoir_contents() {
    for seed in 1..=12u64 {
        churn_case(seed, &churn_ops(seed), true);
    }
}

fn churn_ops(seed: u64) -> Vec<ChurnOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rng.gen_range(1..120))
        .map(|_| churn_op(&mut rng))
        .collect()
}

fn churn_query() -> KHopQuery {
    KHopQuery::builder(USER)
        .hop(CLICK, ITEM, 2, SamplingStrategy::TopK)
        .hop(COP, ITEM, 1, SamplingStrategy::TopK)
        .build()
        .unwrap()
}

/// The update `op` ingests at `ts`; `None` for `Expire`.
fn churn_update(op: &ChurnOp, ts: u64) -> Option<GraphUpdate> {
    Some(match *op {
        ChurnOp::Click(u, i) => edge(CLICK, USER, u, ITEM, i, ts),
        ChurnOp::Cop(i, j) => edge(COP, ITEM, i, ITEM, j, ts),
        ChurnOp::UserVertex(u) => vertex(u, USER, ts),
        ChurnOp::ItemVertex(i) => vertex(i, ITEM, ts),
        ChurnOp::Expire => return None,
    })
}

fn churn_case(seed: u64, ops: &[ChurnOp], batched: bool) {
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 2), churn_query()).unwrap();

    let mut ts = 0u64;
    let mut horizon = None;
    let mut pending = Vec::new();
    for op in ops {
        ts += 1;
        let Some(update) = churn_update(op, ts) else {
            helios.ingest_batch(&std::mem::take(&mut pending)).unwrap();
            let h = Timestamp(ts.saturating_sub(10));
            helios.expire_before(h).unwrap();
            horizon = Some(h);
            continue;
        };
        if batched {
            pending.push(update);
        } else {
            helios.ingest(&update).unwrap();
        }
    }
    helios.ingest_batch(&pending).unwrap();
    assert!(
        helios.quiesce(SETTLE),
        "seed {seed}: deployment failed to quiesce"
    );
    check_subscriptions(seed, &helios);

    // An update polled after its shard ran an `Expire` lands in a
    // reservoir below the horizon, where the serving caches' TTL filter
    // already hides it. Expiring again at the same horizon settles both
    // sides on the same contents before they are compared.
    if let Some(h) = horizon {
        helios.expire_before(h).unwrap();
        assert!(
            helios.quiesce(SETTLE),
            "seed {seed}: deployment failed to quiesce after expiry"
        );
    }
    let (res, subs) = check_subscriptions(seed, &helios);
    check_caches(seed, &helios, &res, &subs);
    helios.shutdown();
}

/// A checkpoint restored into a different topology re-derives every
/// subscription. With two sampling workers, one worker's re-derive
/// charges hop-1 cells and features on the other worker's shards; the
/// other worker's own re-derive must not wipe those charges, and the
/// restored deployment must serve what one started in its shape serves.
#[test]
fn rebuild_after_a_topology_change_keeps_cross_worker_charges() {
    for seed in 1..=4u64 {
        let dir =
            std::env::temp_dir().join(format!("helios-rebuild-ckpt-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let updates: Vec<GraphUpdate> = (1..)
            .zip(churn_ops(seed).iter())
            .filter_map(|(ts, op)| churn_update(op, ts))
            .collect();
        {
            let helios =
                HeliosDeployment::start(HeliosConfig::with_workers(2, 1), churn_query()).unwrap();
            helios.ingest_batch(&updates).unwrap();
            assert!(helios.quiesce(SETTLE), "seed {seed}: failed to quiesce");
            helios.checkpoint(&dir).unwrap();
            helios.shutdown();
        }
        let helios = HeliosDeployment::start_from_checkpoint(
            HeliosConfig::with_workers(2, 2),
            churn_query(),
            &dir,
        )
        .unwrap();
        assert!(
            helios.quiesce(SETTLE),
            "seed {seed}: rebuild failed to quiesce"
        );
        let (res, subs) = check_subscriptions(seed, &helios);
        check_caches(seed, &helios, &res, &subs);
        // Every seed serves the bytes a deployment of the restored shape
        // that never checkpointed serves after the same stream.
        let reference =
            HeliosDeployment::start(HeliosConfig::with_workers(2, 2), churn_query()).unwrap();
        reference.ingest_batch(&updates).unwrap();
        assert!(
            reference.quiesce(SETTLE),
            "seed {seed}: reference failed to quiesce"
        );
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for &(s, _) in subs[0].keys() {
            helios.serve_encoded(VertexId(s), &mut got).unwrap();
            reference.serve_encoded(VertexId(s), &mut want).unwrap();
            assert_eq!(
                got, want,
                "seed {seed}: seed vertex {s} serves other bytes than the reference"
            );
        }
        reference.shutdown();
        helios.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Assert the refcounts equal their from-scratch derivation over the
/// reservoir contents; return those contents and the hop subscriptions.
fn check_subscriptions(seed: u64, helios: &HeliosDeployment) -> (Reservoirs, [Refcounts; 2]) {
    // Union the per-shard snapshots into one global view. Keys are
    // sharded by vertex, so summing refcounts merges disjoint maps.
    let mut res: Reservoirs = [HashMap::new(), HashMap::new()];
    let mut seeds: HashMap<u64, u32> = HashMap::new();
    let mut got_samples: [Refcounts; 2] = [HashMap::new(), HashMap::new()];
    let mut got_feats: Refcounts = HashMap::new();
    for w in helios.sampling_workers() {
        for snap in w.inspect().unwrap() {
            for (h, table) in snap.reservoirs.iter().enumerate() {
                for (k, neighbors) in table {
                    res[h].insert(k.raw(), neighbors.iter().map(|v| v.raw()).collect());
                }
            }
            for (h, subs) in snap.sample_subs.iter().enumerate() {
                for (v, by_sew) in subs {
                    for (sew, rc) in by_sew {
                        assert!(*rc > 0, "seed {seed}: zero refcount kept for {v:?}");
                        *got_samples[h].entry((v.raw(), *sew)).or_insert(0) += rc;
                    }
                }
            }
            for (v, by_sew) in &snap.feat_subs {
                for (sew, rc) in by_sew {
                    assert!(*rc > 0, "seed {seed}: zero feat refcount kept for {v:?}");
                    *got_feats.entry((v.raw(), *sew)).or_insert(0) += rc;
                }
            }
            for (v, sew) in &snap.seeds {
                assert!(
                    seeds.insert(v.raw(), *sew).is_none(),
                    "seed {seed}: seed vertex {} tracked by two shards",
                    v.raw()
                );
            }
        }
    }

    // From-scratch derivation. Every seed is charged once to its
    // routed owner: the hop-0 sample sub plus one feature refcount.
    let mut exp_samples: [Refcounts; 2] = [HashMap::new(), HashMap::new()];
    let mut exp_feats: Refcounts = HashMap::new();
    for (&s, &owner) in &seeds {
        assert_eq!(
            owner,
            helios.route_table().owner_of(VertexId(s)).0,
            "seed {seed}: seed vertex {s} charged to a non-owner"
        );
        *exp_samples[0].entry((s, owner)).or_insert(0) += 1;
        *exp_feats.entry((s, owner)).or_insert(0) += 1;
    }
    // Each subscribed hop-0 cell pins its sampled neighbors: one
    // hop-1 sub and one feature refcount per sampled occurrence.
    let hop0_pairs: Vec<(u64, u32)> = exp_samples[0].keys().copied().collect();
    for (k, sew) in hop0_pairs {
        for w in res[0].get(&k).into_iter().flatten() {
            *exp_samples[1].entry((*w, sew)).or_insert(0) += 1;
            *exp_feats.entry((*w, sew)).or_insert(0) += 1;
        }
    }
    // Hop-1 cells cascade features once per *distinct* subscriber
    // (the cascade fires on 0→1 transitions, not per refcount).
    let hop1_pairs: HashSet<(u64, u32)> = exp_samples[1].keys().copied().collect();
    for (w, sew) in hop1_pairs {
        for x in res[1].get(&w).into_iter().flatten() {
            *exp_feats.entry((*x, sew)).or_insert(0) += 1;
        }
    }

    assert_eq!(
        &got_samples[0], &exp_samples[0],
        "seed {seed}: hop-0 (seed) subs diverged"
    );
    assert_eq!(
        &got_samples[1], &exp_samples[1],
        "seed {seed}: hop-1 subs diverged"
    );
    assert_eq!(&got_feats, &exp_feats, "seed {seed}: feature subs diverged");
    (res, got_samples)
}

/// Assert the serving caches converged to what the sampling tier holds,
/// independently of the records that carried it there: every seed
/// serves the subgraph its reservoirs derive, and each worker's sample
/// table holds exactly its subscribed cells with samples in them.
fn check_caches(seed: u64, helios: &HeliosDeployment, res: &Reservoirs, subs: &[Refcounts; 2]) {
    for &(s, _) in subs[0].keys() {
        let served = helios.serve(VertexId(s)).unwrap();
        let got: Vec<Vec<(u64, Vec<u64>)>> = served
            .hops
            .iter()
            .map(|h| {
                h.groups
                    .iter()
                    .map(|(p, c)| (p.raw(), c.iter().map(|v| v.raw()).collect()))
                    .collect()
            })
            .collect();
        assert_eq!(
            got,
            derived_hops(s, res),
            "seed {seed}: serve of {s} diverged"
        );
    }
    for sw in helios.serving_workers() {
        let sew = sw.id().0;
        let expected = (0..2)
            .flat_map(|h| {
                subs[h]
                    .keys()
                    .filter(move |(k, s)| *s == sew && res[h].get(k).is_some_and(|n| !n.is_empty()))
            })
            .count();
        // Timestamp(1) drops tombstones and the ts-0 cells of empty
        // reservoirs, which serve exactly like absent cells.
        sw.expire_before(Timestamp(1)).unwrap();
        assert_eq!(
            sw.cache_stats().0.mem_entries,
            expected,
            "seed {seed}: worker {sew}'s sample table holds other cells"
        );
    }
}

/// The K-hop groups a serve of `s` assembles from `res`: each hop groups
/// the frontier's samples, and assembly stops after a hop with none.
fn derived_hops(s: u64, res: &Reservoirs) -> Vec<Vec<(u64, Vec<u64>)>> {
    let mut hops = Vec::new();
    let mut frontier = vec![s];
    for table in res {
        let groups: Vec<(u64, Vec<u64>)> = frontier
            .iter()
            .map(|v| (*v, table.get(v).cloned().unwrap_or_default()))
            .collect();
        frontier = groups.iter().flat_map(|(_, c)| c.clone()).collect();
        hops.push(groups);
        if frontier.is_empty() {
            break;
        }
    }
    hops
}

/// Random strategy with a churning stream: serving results must always be
/// structurally valid (samples ⊆ true neighbors; counts ≤ fan-outs).
#[test]
fn random_strategy_structural_validity_under_churn() {
    let q = KHopQuery::builder(USER)
        .hop(CLICK, ITEM, 3, SamplingStrategy::Random)
        .hop(COP, ITEM, 2, SamplingStrategy::Random)
        .build()
        .unwrap();
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 2), q).unwrap();

    let mut true_clicks: std::collections::HashMap<u64, std::collections::HashSet<u64>> =
        Default::default();
    let mut true_cops: std::collections::HashMap<u64, std::collections::HashSet<u64>> =
        Default::default();
    let mut updates = Vec::new();
    let mut ts = 0u64;
    for u in 1..=5u64 {
        ts += 1;
        updates.push(vertex(u, USER, ts));
    }
    for i in 100..140u64 {
        ts += 1;
        updates.push(vertex(i, ITEM, ts));
    }
    // Churn: interleaved clicks and co-purchases, many per vertex.
    for round in 0..40u64 {
        for u in 1..=5u64 {
            ts += 1;
            let item = 100 + (u * 7 + round) % 40;
            updates.push(edge(CLICK, USER, u, ITEM, item, ts));
            true_clicks.entry(u).or_default().insert(item);
        }
        for i in 100..140u64 {
            if (i + round) % 5 == 0 {
                ts += 1;
                let j = 100 + (i * 3 + round) % 40;
                updates.push(edge(COP, ITEM, i, ITEM, j, ts));
                true_cops.entry(i).or_default().insert(j);
            }
        }
    }
    helios.ingest_and_settle(&updates, SETTLE).unwrap();

    for u in 1..=5u64 {
        let sg = helios.serve(VertexId(u)).unwrap();
        let hop1: Vec<u64> = sg.hops[0].flat().map(|v| v.raw()).collect();
        assert!(hop1.len() <= 3);
        for &i in &hop1 {
            assert!(
                true_clicks[&u].contains(&i),
                "user {u} sampled non-neighbor {i}"
            );
        }
        for (parent, children) in &sg.hops[1].groups {
            assert!(children.len() <= 2);
            for c in children {
                assert!(
                    true_cops
                        .get(&parent.raw())
                        .is_some_and(|s| s.contains(&c.raw())),
                    "item {parent:?} sampled non-neighbor {c:?}"
                );
            }
        }
        assert_eq!(sg.feature_coverage(), 1.0, "user {u}");
    }
    helios.shutdown();
}
