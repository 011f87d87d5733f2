//! Fig. 18: effect of consistency on inference accuracy (§7.4).
//!
//! The paper trains GraphSAGE for User-to-Item link prediction on real
//! Taobao data, then manually varies Helios's ingestion latency from
//! 0.25 s to 3.5 s and compares inference accuracy against the optimal
//! (all-writes-visible) case. Real Taobao data is not available, so this
//! harness plants the property that makes the experiment meaningful: user
//! interest that *drifts* over time.
//!
//! * items belong to C clusters, their features carry a noisy cluster
//!   signal; user features are pure noise, so the model can only infer a
//!   user's interest from the items in its sampled neighborhood;
//! * in phase 1 each user clicks within an initial cluster; in phase 2
//!   half the users shift to a new cluster;
//! * the user-side query samples clicks by **TopK recency** (Table 2), so
//!   fresh clicks reveal the *current* interest — unless ingestion delay
//!   hides them.
//!
//! Delay is in event-ticks (1 tick = 1 update); delay 0 is the optimal
//! strong-consistency case. The expected shape, as in the paper: flat at
//! small delays, mild degradation only when the delay approaches the
//! drift horizon.

use helios_gnn::{auc, LinkPredictionTrainer, OracleSampler, SageModel, TrainConfig};
use helios_query::{KHopQuery, SamplingStrategy};
use helios_types::{
    EdgeType, EdgeUpdate, GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLUSTERS: usize = 4;
const USERS: u64 = 200;
const ITEMS: u64 = 240;
const FEAT: usize = 16;
const USER_T: VertexType = VertexType(0);
const ITEM_T: VertexType = VertexType(1);
const CLICK: EdgeType = EdgeType(0);
const COP: EdgeType = EdgeType(1);

struct World {
    events: Vec<GraphUpdate>,
    /// (user, current cluster) as of the end of the stream.
    current_cluster: Vec<usize>,
    phase2_start: u64,
    end_ts: u64,
}

fn item_cluster(i: u64) -> usize {
    (i as usize) * CLUSTERS / ITEMS as usize
}

fn items_of(cluster: usize) -> std::ops::Range<u64> {
    let per = ITEMS / CLUSTERS as u64;
    let c = cluster as u64;
    (USERS + c * per)..(USERS + (c + 1) * per)
}

fn build_world(rng: &mut StdRng) -> World {
    let mut events = Vec::new();
    let mut ts = 0u64;
    // Vertices: users (noise features), items (noisy cluster one-hot).
    for u in 0..USERS {
        ts += 1;
        events.push(GraphUpdate::Vertex(VertexUpdate {
            vtype: USER_T,
            id: VertexId(u),
            feature: (0..FEAT).map(|_| rng.gen_range(-0.3..0.3)).collect(),
            ts: Timestamp(ts),
        }));
    }
    for i in USERS..USERS + ITEMS {
        ts += 1;
        let c = item_cluster(i - USERS);
        let mut f: Vec<f32> = (0..FEAT).map(|_| rng.gen_range(-0.3..0.3)).collect();
        f[c] += 1.0;
        events.push(GraphUpdate::Vertex(VertexUpdate {
            vtype: ITEM_T,
            id: VertexId(i),
            feature: f,
            ts: Timestamp(ts),
        }));
    }
    // Co-purchases: in-cluster item-item edges.
    for i in USERS..USERS + ITEMS {
        let c = item_cluster(i - USERS);
        for _ in 0..4 {
            ts += 1;
            let j = rng.gen_range(items_of(c).start..items_of(c).end);
            events.push(GraphUpdate::Edge(EdgeUpdate {
                etype: COP,
                src_type: ITEM_T,
                src: VertexId(i),
                dst_type: ITEM_T,
                dst: VertexId(j),
                ts: Timestamp(ts),
                weight: 1.0,
            }));
        }
    }
    // Phase 1 clicks: initial interest c0(u) = u % C.
    for round in 0..10 {
        let _ = round;
        for u in 0..USERS {
            ts += 1;
            let c0 = u as usize % CLUSTERS;
            let item = rng.gen_range(items_of(c0).start..items_of(c0).end);
            events.push(GraphUpdate::Edge(EdgeUpdate {
                etype: CLICK,
                src_type: USER_T,
                src: VertexId(u),
                dst_type: ITEM_T,
                dst: VertexId(item),
                ts: Timestamp(ts),
                weight: 1.0,
            }));
        }
    }
    let phase2_start = ts;
    // Phase 2: half the users drift to cluster (c0 + 1) % C.
    let mut current_cluster: Vec<usize> = (0..USERS).map(|u| u as usize % CLUSTERS).collect();
    for u in 0..USERS {
        if u % 2 == 0 {
            current_cluster[u as usize] = (current_cluster[u as usize] + 1) % CLUSTERS;
        }
    }
    for round in 0..10 {
        let _ = round;
        for u in 0..USERS {
            ts += 1;
            let c = current_cluster[u as usize];
            let item = rng.gen_range(items_of(c).start..items_of(c).end);
            events.push(GraphUpdate::Edge(EdgeUpdate {
                etype: CLICK,
                src_type: USER_T,
                src: VertexId(u),
                dst_type: ITEM_T,
                dst: VertexId(item),
                ts: Timestamp(ts),
                weight: 1.0,
            }));
        }
    }
    World {
        events,
        current_cluster,
        phase2_start,
        end_ts: ts,
    }
}

/// Accuracy at the balanced (median) threshold — the test set is 50/50,
/// so thresholding at the median score measures separation without
/// requiring the sigmoid head to be calibrated.
fn balanced_accuracy(scores: &[f32], labels: &[f32]) -> f64 {
    let mut sorted = scores.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let threshold = sorted[sorted.len() / 2];
    let correct = scores
        .iter()
        .zip(labels)
        .filter(|(s, l)| (**s > threshold) == (**l > 0.5))
        .count();
    correct as f64 / scores.len() as f64
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0xF18);
    let world = build_world(&mut rng);
    println!(
        "planted-drift Taobao-like world: {} events, drift at tick {}, end {}\n",
        world.events.len(),
        world.phase2_start,
        world.end_ts
    );

    // TopK user query (recency-sensitive, as in Table 2's Taobao row).
    let user_q = KHopQuery::builder(USER_T)
        .hop(CLICK, ITEM_T, 10, SamplingStrategy::TopK)
        .hop(COP, ITEM_T, 5, SamplingStrategy::Random)
        .build()
        .unwrap();
    let item_q = KHopQuery::builder(ITEM_T)
        .hop(COP, ITEM_T, 10, SamplingStrategy::Random)
        .hop(COP, ITEM_T, 5, SamplingStrategy::Random)
        .build()
        .unwrap();

    let oracle = OracleSampler::from_events(world.events.iter().cloned());
    // Train on the full history (clicks from both phases).
    let positives: Vec<(VertexId, VertexId)> = world
        .events
        .iter()
        .filter_map(|e| match e {
            GraphUpdate::Edge(edge) if edge.etype == CLICK => Some((edge.src, edge.dst)),
            _ => None,
        })
        .step_by(5)
        .collect();
    let item_pool: Vec<VertexId> = (USERS..USERS + ITEMS).map(VertexId).collect();
    let mut model = SageModel::new(FEAT, 32, 16, &mut rng);
    let trainer = LinkPredictionTrainer::new(
        TrainConfig {
            epochs: 4,
            lr: 0.1,
            ..Default::default()
        },
        user_q.clone(),
        item_q.clone(),
    );
    let loss = trainer.train(&mut model, &oracle, &positives, &item_pool, &mut rng);
    println!(
        "offline training: {} positives, final loss {loss:.3}\n",
        positives.len()
    );

    // Test at the end of the stream: does the model rank an item from the
    // user's *current* cluster above one from a random other cluster?
    let mut t = helios_telemetry::Table::new(
        "Fig. 18: inference accuracy vs ingestion delay (planted-drift Taobao-like)",
        &["delay (event-ticks)", "AUC", "balanced accuracy"],
    );
    let now = world.end_ts;
    for delay in [0u64, 100, 500, 1000, 1500, 2500, 4000] {
        let horizon = Timestamp(now.saturating_sub(delay));
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        let mut eval_rng = StdRng::seed_from_u64(1);
        for u in 0..USERS {
            let cur = world.current_cluster[u as usize];
            let u_sg = oracle.sample_asof(VertexId(u), &user_q, horizon, &mut eval_rng);
            let zu = model.infer(&u_sg);
            // Positive: an unseen item from the current cluster (features
            // still fully visible — only *recency of clicks* is at stake).
            let pos = eval_rng.gen_range(items_of(cur).start..items_of(cur).end);
            let other = (cur + 1 + eval_rng.gen_range(0..CLUSTERS - 1)) % CLUSTERS;
            let neg = eval_rng.gen_range(items_of(other).start..items_of(other).end);
            for (item, label) in [(pos, 1.0f32), (neg, 0.0)] {
                let i_sg =
                    oracle.sample_asof(VertexId(item), &item_q, Timestamp(now), &mut eval_rng);
                let zi = model.infer(&i_sg);
                scores.push(helios_gnn::tensor::sigmoid(helios_gnn::tensor::dot(
                    &zu, &zi,
                )));
                labels.push(label);
            }
        }
        t.row(&[
            if delay == 0 {
                "0 (optimal)".to_string()
            } else {
                delay.to_string()
            },
            format!("{:.4}", auc(&scores, &labels)),
            format!("{:.4}", balanced_accuracy(&scores, &labels)),
        ]);
    }
    t.print();
    println!(
        "expected shape (as in the paper): flat near the optimal case for realistic delays, \
         degrading only when the delay hides the user's recent interest shift \
         (phase 2 spans {} ticks here)",
        world.end_ts - world.phase2_start
    );
}
