//! Fig. 10: end-to-end serving latency (average and P99) vs request
//! concurrency. Paper result: baseline latency grows to seconds under
//! load with a >150 ms tail gap; Helios stays under 50 ms P99 with a tail
//! gap within 20 ms.

use helios_bench::{drive, nebulagraph_like, percent_seeds, setup_baseline, setup_helios};
use helios_core::HeliosConfig;
use helios_datagen::Preset;
use helios_query::SamplingStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const SCALE: f64 = 0.03;
const WINDOW: Duration = Duration::from_secs(2);

fn main() {
    let mut t = helios_telemetry::Table::new(
        format!("Fig. 10: serving latency vs concurrency (INTER & FIN, scale {SCALE})"),
        &[
            "Dataset",
            "Strategy",
            "Conc.",
            "Base avg",
            "Base P99",
            "Helios avg",
            "Helios P99",
            "P99 speedup",
        ],
    );
    for preset in [Preset::Inter, Preset::Fin] {
        for strategy in [SamplingStrategy::TopK, SamplingStrategy::Random] {
            let baseline = setup_baseline(preset, SCALE, strategy, false, nebulagraph_like(4), 512);
            let helios = setup_helios(
                preset,
                SCALE,
                strategy,
                false,
                HeliosConfig::with_workers(2, 2),
            );
            let bseeds = percent_seeds(&baseline.dataset, 1.0);
            for conc in [8usize, 32] {
                let base = drive(conc, WINDOW, |c, seq| {
                    let mut rng = StdRng::seed_from_u64(c as u64 * 999_983 + seq);
                    let seed = bseeds[(seq as usize * 13 + c * 5) % bseeds.len()];
                    let _ = baseline
                        .db
                        .execute(seed, &baseline.query, &mut rng)
                        .unwrap();
                });
                let hel = drive(conc, WINDOW, |c, seq| {
                    let seed = helios.seeds[(seq as usize * 13 + c * 5) % helios.seeds.len()];
                    let _ = helios.deployment.serve(seed).unwrap();
                });
                t.row(&[
                    preset.name().to_string(),
                    strategy.name().to_string(),
                    conc.to_string(),
                    format!("{:.2}ms", base.avg_ms),
                    format!("{:.2}ms", base.p99_ms),
                    format!("{:.3}ms", hel.avg_ms),
                    format!("{:.3}ms", hel.p99_ms),
                    format!("{:.0}x", base.p99_ms / hel.p99_ms.max(1e-6)),
                ]);
            }
            helios.shutdown();
        }
    }
    t.print();
    println!("paper: up to 32x (TopK) / 24x (Random) P99 reduction; Helios tail gap < 20 ms");
}
