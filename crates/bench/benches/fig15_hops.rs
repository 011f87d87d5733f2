//! Fig. 15: impact of sampling hop count — a 3-hop query ([25,10,5])
//! multiplies the per-request lookup work ~5× over the 2-hop query
//! ([25,10]), so throughput drops and latency rises, but both stay
//! bounded (no traversal, no network).

use helios_bench::{drive, setup_helios};
use helios_core::HeliosConfig;
use helios_datagen::Preset;
use helios_query::SamplingStrategy;
use std::time::Duration;

const SCALE: f64 = 0.03;
const WINDOW: Duration = Duration::from_secs(2);

fn main() {
    let mut t = helios_telemetry::Table::new(
        format!("Fig. 15: 2-hop vs 3-hop serving (INTER, Random, scale {SCALE})"),
        &[
            "hops",
            "lookup bound",
            "conc.",
            "QPS",
            "avg (ms)",
            "P99 (ms)",
        ],
    );
    for three_hop in [false, true] {
        let bench = setup_helios(
            Preset::Inter,
            SCALE,
            SamplingStrategy::Random,
            three_hop,
            HeliosConfig::with_workers(2, 2),
        );
        let bound = bench.query.max_feature_lookups();
        for conc in [8usize, 32] {
            let out = drive(conc, WINDOW, |c, seq| {
                let seed = bench.seeds[(seq as usize * 7 + c) % bench.seeds.len()];
                let _ = bench.deployment.serve(seed).unwrap();
            });
            t.row(&[
                if three_hop {
                    "3".into()
                } else {
                    "2".to_string()
                },
                bound.to_string(),
                conc.to_string(),
                format!("{:.0}", out.qps),
                format!("{:.3}", out.avg_ms),
                format!("{:.3}", out.p99_ms),
            ]);
        }
        bench.shutdown();
    }
    t.print();
    println!(
        "paper: the 3-hop query is ~5x the serving work; throughput drops but stays >5000 QPS, \
         P99 <100ms at moderate concurrency"
    );
}
