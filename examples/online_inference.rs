//! End-to-end online GNN inference (§7.5 in miniature): client threads →
//! front-end routing → Helios serving workers (sampling from the
//! query-aware cache) → model-serving workers (GraphSAGE forward pass),
//! while graph updates keep streaming in. Prints QPS and latency
//! percentiles like Fig. 19.
//!
//! Run with: `cargo run --release --example online_inference`

use helios::prelude::*;
use helios::telemetry::Histogram;
use helios_gnn::{ModelServer, SageModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let show_stats = helios::telemetry::stats_env();
    if helios::telemetry::trace_env() {
        helios::telemetry::set_tracing(true);
    }
    let dataset = Preset::Inter.dataset(0.02);
    let query = dataset.table2_query(SamplingStrategy::Random, false);
    println!(
        "INTER dataset: {} vertices, {} edges; query fan-outs {:?}",
        dataset.total_vertices(),
        dataset.total_edges(),
        query.fanouts()
    );

    // Deploy Helios (2 sampling + 2 serving) plus a model server.
    let mut config = HeliosConfig::with_workers(2, 2);
    config.ops_addr = helios::telemetry::ops_addr_env();
    let helios = Arc::new(HeliosDeployment::start(config, query).unwrap());
    if let Some(addr) = helios.ops_addr() {
        println!("ops server listening on http://{addr}");
    }
    let events: Vec<GraphUpdate> = dataset.events().collect();
    let (replay, live) = events.split_at(events.len() * 9 / 10);
    helios.ingest_batch(replay).unwrap();
    assert!(helios.quiesce(Duration::from_secs(120)));
    println!("warm: replayed {} events", replay.len());

    let mut rng = StdRng::seed_from_u64(7);
    let model = SageModel::new(dataset.config().feature_dim, 32, 16, &mut rng);
    let server = ModelServer::new(model);

    // Live phase: 4 client threads fire inference requests while the
    // remaining 10% of the stream is ingested concurrently.
    let (seed_lo, seed_hi) = dataset.id_range(dataset.seed_population());
    let stop = Arc::new(AtomicBool::new(false));
    let e2e_latency = Arc::new(Histogram::new());
    let mut clients = Vec::new();
    for c in 0..4u64 {
        let helios = Arc::clone(&helios);
        let server = server.clone();
        let stop = Arc::clone(&stop);
        let hist = Arc::clone(&e2e_latency);
        clients.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(100 + c);
            let mut count = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let seed = VertexId(rng.gen_range(seed_lo..seed_hi));
                let start = Instant::now();
                let sg = helios.serve(seed).expect("serve");
                let _embedding = server.infer(&sg);
                hist.record_duration(start.elapsed());
                count += 1;
            }
            count
        }));
    }

    let ingest_start = Instant::now();
    for chunk in live.chunks(2000) {
        helios.ingest_batch(chunk).unwrap();
    }
    let bench_window = Duration::from_secs(3);
    std::thread::sleep(bench_window.saturating_sub(ingest_start.elapsed()));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = clients.into_iter().map(|h| h.join().unwrap()).sum();

    let elapsed = ingest_start.elapsed().as_secs_f64();
    println!(
        "\n--- online inference, 4 clients, live ingestion of {} events ---",
        live.len()
    );
    println!("inference throughput: {:.0} QPS", total as f64 / elapsed);
    println!(
        "end-to-end latency: avg {:.2} ms, P99 {:.2} ms",
        e2e_latency.mean_ms(),
        e2e_latency.percentile_ms(99.0)
    );
    for sw in helios.serving_workers() {
        println!(
            "  serving worker {:?}: {} requests, sampling avg {:.3} ms / P99 {:.3} ms",
            sw.id(),
            sw.served(),
            sw.serve_latency().mean_ms(),
            sw.serve_latency().percentile_ms(99.0)
        );
    }
    assert!(helios.quiesce(Duration::from_secs(60)));
    print!("\n{}", helios::core::DeploymentReport::capture(&helios));
    if show_stats {
        println!("\n--- telemetry snapshot (HELIOS_STATS=1) ---");
        print!("{}", helios.telemetry_snapshot().render());
    }
    match Arc::try_unwrap(helios) {
        Ok(h) => h.shutdown(),
        Err(_) => unreachable!("clients joined"),
    }
}
