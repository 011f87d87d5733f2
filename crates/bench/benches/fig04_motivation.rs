//! Fig. 4: why graph databases miss the SLO (§3).
//!
//! (a) graph sampling dominates end-to-end inference latency and blows
//!     the 100 ms SLO under concurrency;
//! (b) P99 ≫ average (long tail);
//! (c) latency scales with the number of traversed neighbors — the
//!     degree-skew effect, measured sequentially on a single node;
//! (d) distributed sampling pays per-hop network rounds: latency grows
//!     with both cluster size and hop count.

use helios_bench::{nebulagraph_like, percent_seeds, setup_baseline, tigergraph_like};
use helios_gnn::SageModel;
use helios_graphdb::netsim::NetworkConfig;
use helios_graphdb::GraphDbConfig;
use helios_query::SamplingStrategy;
use helios_telemetry::{Histogram, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.05;

fn main() {
    part_a_b();
    part_c();
    part_d();
}

/// (a)+(b): latency breakdown and tail under concurrency 20.
fn part_a_b() {
    let mut table_a = Table::new(
        "Fig. 4(a): sampling share of end-to-end GNN inference latency (INTER, 2-hop TopK, concurrency 20)",
        &["System", "sampling avg (ms)", "model avg (ms)", "sampling share"],
    );
    let mut table_b = Table::new(
        "Fig. 4(b): average vs P99 sampling latency",
        &["System", "avg (ms)", "P99 (ms)", "P99 - avg (ms)"],
    );
    for (name, cfg) in [
        ("TigerGraph-like", tigergraph_like(4)),
        ("NebulaGraph-like", nebulagraph_like(4)),
    ] {
        let bench = setup_baseline(
            helios_datagen::Preset::Inter,
            SCALE,
            SamplingStrategy::TopK,
            false,
            cfg,
            512,
        );
        let seeds = percent_seeds(&bench.dataset, 1.0);
        let model = SageModel::new(
            bench.dataset.config().feature_dim,
            32,
            16,
            &mut StdRng::seed_from_u64(1),
        );
        let sampling_hist = Histogram::new();
        let model_hist = Histogram::new();
        // Warm up caches/allocator before the measured window.
        helios_bench::drive(20, Duration::from_secs(1), |c, seq| {
            let mut rng = StdRng::seed_from_u64(c as u64 * 7 + seq);
            let seed = seeds[(seq as usize * 17 + c) % seeds.len()];
            let _ = bench.db.execute(seed, &bench.query, &mut rng);
        });
        sampling_hist.reset();
        model_hist.reset();
        let out = helios_bench::drive(20, Duration::from_secs(3), |c, seq| {
            let mut rng = StdRng::seed_from_u64(c as u64 * 100_000 + seq);
            let seed = seeds[(seq as usize * 17 + c) % seeds.len()];
            let t0 = Instant::now();
            let exec = bench.db.execute(seed, &bench.query, &mut rng).unwrap();
            sampling_hist.record_duration(t0.elapsed());
            let t1 = Instant::now();
            let _ = model.infer(&exec.subgraph);
            model_hist.record_duration(t1.elapsed());
        });
        let s = sampling_hist.snapshot();
        let m = model_hist.snapshot();
        let share = s.mean() / (s.mean() + m.mean()).max(1.0);
        table_a.row(&[
            name.to_string(),
            format!("{:.2}", s.mean_ms()),
            format!("{:.3}", m.mean_ms()),
            format!("{:.1}%", share * 100.0),
        ]);
        table_b.row(&[
            name.to_string(),
            format!("{:.2}", s.mean_ms()),
            format!("{:.2}", s.percentile_ms(99.0)),
            format!("{:.2}", s.percentile_ms(99.0) - s.mean_ms()),
        ]);
        let _ = out;
    }
    table_a.print();
    table_b.print();
}

/// (c): traversed neighbors vs latency, sequential, single node, no
/// network — pure data-dependent compute skew.
fn part_c() {
    let bench = setup_baseline(
        helios_datagen::Preset::Inter,
        SCALE,
        SamplingStrategy::TopK,
        false,
        GraphDbConfig::single_node(),
        4096,
    );
    let seeds = percent_seeds(&bench.dataset, 1.0);
    let mut rng = StdRng::seed_from_u64(7);
    let mut points: Vec<(u64, f64)> = Vec::new();
    for &seed in seeds.iter() {
        let t0 = Instant::now();
        let exec = bench.db.execute(seed, &bench.query, &mut rng).unwrap();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        points.push((exec.traversed, us));
    }
    points.sort_by_key(|p| p.0);
    let mut t = Table::new(
        "Fig. 4(c): traversed vertices vs query latency (single node, sequential)",
        &[
            "traversed bucket",
            "queries",
            "avg traversed",
            "avg latency (µs)",
        ],
    );
    let buckets = 5;
    let per = (points.len() / buckets).max(1);
    for b in 0..buckets {
        let lo = b * per;
        let hi = if b == buckets - 1 {
            points.len()
        } else {
            (b + 1) * per
        };
        if lo >= points.len() {
            break;
        }
        let slice = &points[lo..hi];
        let avg_tr = slice.iter().map(|p| p.0).sum::<u64>() as f64 / slice.len() as f64;
        let avg_us = slice.iter().map(|p| p.1).sum::<f64>() / slice.len() as f64;
        t.row(&[
            format!("{}..{}", slice.first().unwrap().0, slice.last().unwrap().0),
            slice.len().to_string(),
            format!("{avg_tr:.0}"),
            format!("{avg_us:.0}"),
        ]);
    }
    t.print();
    let min_tr = points.first().unwrap().0.max(1);
    let max_tr = points.last().unwrap().0;
    println!(
        "traversal spread across queries: {:.0}x (paper reports >100x on full-scale INTER)\n",
        max_tr as f64 / min_tr as f64
    );
}

/// (d): cluster size × hop count (sequential queries, so the numbers are
/// pure per-query cost without queueing).
fn part_d() {
    let mut t = Table::new(
        "Fig. 4(d): distributed sampling latency by [nodes, hops]",
        &["config", "avg (ms)", "P99 (ms)", "net rounds/query"],
    );
    for (nodes, three_hop, label) in [
        (1usize, false, "[1 node, 2 hops]"),
        (1, true, "[1 node, 3 hops]"),
        (4, false, "[4 nodes, 2 hops]"),
        (4, true, "[4 nodes, 3 hops]"),
    ] {
        let cfg = GraphDbConfig {
            network: if nodes == 1 {
                NetworkConfig::zero()
            } else {
                NetworkConfig::paper_scaled()
            },
            sync_replication: false,
            ..tigergraph_like(nodes)
        };
        let bench = setup_baseline(
            helios_datagen::Preset::Inter,
            SCALE,
            SamplingStrategy::TopK,
            three_hop,
            cfg,
            4096,
        );
        let seeds = percent_seeds(&bench.dataset, 0.5);
        let mut rng = StdRng::seed_from_u64(9);
        let hist = Histogram::new();
        let mut rounds = 0u64;
        for &seed in &seeds {
            let t0 = Instant::now();
            let exec = bench.db.execute(seed, &bench.query, &mut rng).unwrap();
            hist.record_duration(t0.elapsed());
            rounds += u64::from(exec.network_rounds);
        }
        let s = hist.snapshot();
        t.row(&[
            label.to_string(),
            format!("{:.3}", s.mean_ms()),
            format!("{:.3}", s.percentile_ms(99.0)),
            format!("{:.1}", rounds as f64 / seeds.len() as f64),
        ]);
    }
    t.print();
    println!("paper: 2→3 hops costs >6.5x; distributed vs single-node up to 1.82x");
}
