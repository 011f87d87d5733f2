//! Fig. 16: sample-cache footprint per serving worker vs the number of
//! serving workers. The cache holds only the sampled topology + features
//! of a *slice* of the seed space, so the per-worker ratio to the raw
//! dataset shrinks as serving scales out (paper: 62% → 19% from 1 to 4
//! workers, with partial overlap between workers).

use helios_bench::setup_helios;
use helios_core::HeliosConfig;
use helios_datagen::Preset;
use helios_query::SamplingStrategy;

const SCALE: f64 = 0.03;

fn main() {
    // Raw dataset size: the wire bytes of every update event.
    let dataset = Preset::Inter.dataset(SCALE);
    let dataset_bytes: u64 = dataset.events().map(|e| e.wire_size() as u64).sum();

    let mut t = helios_telemetry::Table::new(
        format!("Fig. 16: cache ratio per serving worker (INTER, hybrid cache, scale {SCALE})"),
        &[
            "serving workers",
            "total cache (KB)",
            "avg per worker (KB)",
            "per-worker ratio",
        ],
    );
    for workers in [1usize, 2, 4] {
        let dir =
            std::env::temp_dir().join(format!("helios-fig16-{}-{workers}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = HeliosConfig::with_workers(2, workers);
        config.cache_dir = Some(dir.clone());
        // Small memtables so the hybrid mode actually spills to disk.
        config.cache_memtable_budget = 256 << 10;
        let bench = setup_helios(
            Preset::Inter,
            SCALE,
            SamplingStrategy::Random,
            false,
            config,
        );
        let total = bench.deployment.total_cache_bytes();
        let per_worker = total as f64 / workers as f64;
        t.row(&[
            workers.to_string(),
            format!("{:.0}", total as f64 / 1024.0),
            format!("{:.0}", per_worker / 1024.0),
            format!("{:.1}%", per_worker / dataset_bytes as f64 * 100.0),
        ]);
        bench.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    t.print();
    println!("paper: per-node cache ratio falls 62% -> 19% going from 1 to 4 serving nodes");
}
