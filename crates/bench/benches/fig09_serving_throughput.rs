//! Fig. 9: end-to-end serving throughput (QPS), Helios vs the graph
//! database baselines, TopK and Random queries, across request
//! concurrency. Paper result: up to 184× (TopK) / 47× (Random) over the
//! baselines, with Helios flat across strategies.
//!
//! The multicore extension re-runs Helios with N pinned threads calling
//! `serve_encoded` directly — what N connections do to a `NetServer` —
//! across a cores sweep, reporting QPS per core count.
//!
//! `HELIOS_BENCH_QUICK=1` shrinks scales, windows, and the preset matrix
//! to a CI smoke.

use helios_bench::{
    drive, drive_pinned, percent_seeds, setup_baseline, setup_helios, tigergraph_like,
    write_bench_json, BenchOutcome, BenchRecord,
};
use helios_core::HeliosConfig;
use helios_datagen::Preset;
use helios_query::SamplingStrategy;
use helios_types::affinity::available_cores;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn quick() -> bool {
    helios_telemetry::env_flag("HELIOS_BENCH_QUICK")
}

fn scale() -> f64 {
    if quick() {
        0.015
    } else {
        0.03
    }
}

fn window() -> Duration {
    Duration::from_millis(if quick() { 300 } else { 2000 })
}

fn main() {
    let scale = scale();
    let concurrency: &[usize] = if quick() { &[8] } else { &[8, 32] };
    let presets: &[Preset] = if quick() {
        &[Preset::Inter]
    } else {
        &[Preset::Bi, Preset::Inter, Preset::Fin]
    };
    let mut t = helios_telemetry::Table::new(
        format!("Fig. 9: serving throughput (QPS), scale {scale}"),
        &[
            "Dataset",
            "Strategy",
            "Conc.",
            "Baseline QPS",
            "Helios QPS",
            "speedup",
        ],
    );
    let mut records: Vec<BenchRecord> = Vec::new();
    for &preset in presets {
        for strategy in [SamplingStrategy::TopK, SamplingStrategy::Random] {
            // Paired setups over identical event streams.
            let baseline = setup_baseline(preset, scale, strategy, false, tigergraph_like(4), 512);
            let helios = setup_helios(
                preset,
                scale,
                strategy,
                false,
                HeliosConfig::with_workers(2, 2),
            );
            let bseeds = percent_seeds(&baseline.dataset, 1.0);
            for &conc in concurrency {
                let base: BenchOutcome = drive(conc, window(), |c, seq| {
                    let mut rng = StdRng::seed_from_u64(c as u64 * 1_000_000 + seq);
                    let seed = bseeds[(seq as usize * 31 + c * 7) % bseeds.len()];
                    let _ = baseline
                        .db
                        .execute(seed, &baseline.query, &mut rng)
                        .unwrap();
                });
                let hel: BenchOutcome = drive(conc, window(), |c, seq| {
                    let seed = helios.seeds[(seq as usize * 31 + c * 7) % helios.seeds.len()];
                    let _ = helios.deployment.serve(seed).unwrap();
                });
                t.row(&[
                    preset.name().to_string(),
                    strategy.name().to_string(),
                    conc.to_string(),
                    format!("{:.0}", base.qps),
                    format!("{:.0}", hel.qps),
                    format!("{:.1}x", hel.qps / base.qps.max(1.0)),
                ]);
                records.push(BenchRecord::capture(
                    format!("{}/{}/conc{conc}", preset.name(), strategy.name()),
                    &hel,
                    &helios,
                ));
            }
            helios.shutdown();
        }
    }
    t.print();

    // Multicore extension: Helios-only cores sweep, serving threads
    // pinned and tracking cores.
    let cores = available_cores();
    let mut m = helios_telemetry::Table::new(
        format!(
            "Fig. 9 (multicore): Helios serving vs cores (INTER Random, pinned, host has {cores} core(s))"
        ),
        &["cores", "threads", "Helios QPS", "P99 (ms)"],
    );
    let core_sweep: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 4, 8] };
    for &n in core_sweep {
        let helios = setup_helios(
            Preset::Inter,
            scale,
            SamplingStrategy::Random,
            false,
            HeliosConfig::with_workers(2, 1),
        );
        let out = drive_pinned(n, n.min(cores.max(1)), window(), |c, seq| {
            helios.serve_encoded(helios.seeds[(seq as usize * 31 + c * 7) % helios.seeds.len()]);
        });
        m.row(&[
            n.min(cores.max(1)).to_string(),
            n.to_string(),
            format!("{:.0}", out.qps),
            format!("{:.3}", out.p99_ms),
        ]);
        records.push(BenchRecord::capture(
            format!("multicore/threads{n}"),
            &out,
            &helios,
        ));
        helios.shutdown();
    }
    m.print();
    write_bench_json("fig09_serving_throughput", &records);
    println!("paper: Helios up to 184x (TopK) and 47x (Random) higher QPS; Helios is strategy-insensitive");
}
