//! Fig. 19: online GNN inference end-to-end — client threads → Helios
//! serving workers (K-hop sampling from the query-aware cache) → model
//! serving (GraphSAGE forward). QPS and latency across request
//! concurrency, with live ingestion in the background.

use helios_bench::{drive, setup_helios};
use helios_core::HeliosConfig;
use helios_datagen::Preset;
use helios_gnn::{ModelServer, SageModel};
use helios_query::SamplingStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const SCALE: f64 = 0.03;
const WINDOW: Duration = Duration::from_secs(2);

fn main() {
    let bench = setup_helios(
        Preset::Inter,
        SCALE,
        SamplingStrategy::Random,
        false,
        HeliosConfig::with_workers(2, 2),
    );
    let model = SageModel::new(
        bench.dataset.config().feature_dim,
        32,
        16,
        &mut StdRng::seed_from_u64(3),
    );
    let server = ModelServer::new(model);

    let mut t = helios_telemetry::Table::new(
        format!("Fig. 19: end-to-end online GNN inference (INTER, scale {SCALE})"),
        &["concurrency", "QPS", "avg (ms)", "P99 (ms)"],
    );
    for conc in [4usize, 8, 16, 32] {
        let srv = server.clone();
        let out = drive(conc, WINDOW, |c, seq| {
            let seed = bench.seeds[(seq as usize * 23 + c * 3) % bench.seeds.len()];
            let sg = bench.deployment.serve(seed).unwrap();
            let _embedding = srv.infer(&sg);
        });
        t.row(&[
            conc.to_string(),
            format!("{:.0}", out.qps),
            format!("{:.2}", out.avg_ms),
            format!("{:.2}", out.p99_ms),
        ]);
    }
    t.print();
    println!(
        "model requests served: {}; paper: up to 17,000 QPS with P99 below ~100 ms",
        server.request_count()
    );
}
