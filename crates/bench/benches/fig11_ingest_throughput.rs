//! Fig. 11: graph-update ingestion throughput, Helios (eventual
//! consistency + pre-sampling) vs the baselines (strong-consistency
//! ingestion). Paper result: Helios ≥1.32× the baselines; the BI dataset
//! peaks because vertex updates skip pre-sampling computation.

use helios_bench::{setup_baseline, tigergraph_like};
use helios_core::{HeliosConfig, HeliosDeployment};
use helios_datagen::Preset;
use helios_query::SamplingStrategy;
use helios_types::GraphUpdate;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.03;

fn helios_ingest_rate(preset: Preset, strategy: SamplingStrategy) -> (f64, u64) {
    let dataset = preset.dataset(SCALE);
    let query = dataset.table2_query(strategy, false);
    let deployment =
        HeliosDeployment::start(HeliosConfig::with_workers(2, 2), query).expect("start");
    let events: Vec<GraphUpdate> = dataset.events().collect();
    let t0 = Instant::now();
    deployment.ingest_batch(&events).unwrap();
    assert!(deployment.quiesce(Duration::from_secs(600)));
    let secs = t0.elapsed().as_secs_f64();
    let n = events.len() as u64;
    deployment.shutdown();
    (n as f64 / secs, n)
}

fn main() {
    let mut t = helios_telemetry::Table::new(
        format!("Fig. 11: update ingestion throughput (records/s), scale {SCALE}"),
        &[
            "Dataset",
            "records",
            "Baseline rec/s",
            "Helios TopK rec/s",
            "Helios Random rec/s",
            "best speedup",
        ],
    );
    for preset in [Preset::Bi, Preset::Inter, Preset::Fin] {
        let baseline = setup_baseline(
            preset,
            SCALE,
            SamplingStrategy::TopK,
            false,
            tigergraph_like(4),
            // Small write groups: strong consistency is paid per
            // transaction batch, not amortized over huge bulk loads.
            64,
        );
        let base_rate = baseline.dataset.events().count() as f64 / baseline.ingest_secs;
        let (topk, n) = helios_ingest_rate(preset, SamplingStrategy::TopK);
        let (random, _) = helios_ingest_rate(preset, SamplingStrategy::Random);
        t.row(&[
            preset.name().to_string(),
            n.to_string(),
            format!("{:.0}", base_rate),
            format!("{:.0}", topk),
            format!("{:.0}", random),
            format!("{:.2}x", topk.max(random) / base_rate.max(1.0)),
        ]);
    }
    t.print();
    println!(
        "paper: Helios >1.32x baselines (eventual vs strong consistency); \
         single sampling worker sustains >1.49M rec/s at testbed scale"
    );
}
