//! Hybrid-cache before/after: the Fig. 9/11-style serve-latency and
//! ingest-throughput measurements with the serving caches purely in
//! memory vs in hybrid memory+disk mode (what `HELIOS_CACHE_DIR` turns
//! on for every fig* run). The hybrid column exercises memtable
//! rotation, the background flusher, incremental compaction, and the
//! block cache; the acceptance bar is that serving stays close to the
//! in-memory baseline because no request ever blocks on disk I/O.

use helios_bench::{drive, percent_seeds, setup_helios, BenchOutcome};
use helios_core::HeliosConfig;
use helios_datagen::Preset;
use helios_query::SamplingStrategy;
use std::time::Duration;

const SCALE: f64 = 0.03;
const WINDOW: Duration = Duration::from_secs(2);
const CONCURRENCY: usize = 8;

struct ModeOutcome {
    ingest_rate: f64,
    serve: BenchOutcome,
    sst_files: u64,
    disk_bytes: u64,
    cache_hits: u64,
    cache_misses: u64,
}

fn run_mode(preset: Preset, dir: Option<std::path::PathBuf>) -> ModeOutcome {
    let mut config = HeliosConfig::with_workers(2, 2);
    // Pin the mode regardless of the environment: `Some` = hybrid,
    // otherwise force in-memory even under `HELIOS_CACHE_DIR` (the
    // harness only fills `cache_dir` when it is still `None`... which a
    // sentinel empty env var would leave; be explicit instead).
    match &dir {
        Some(d) => {
            config.cache_dir = Some(d.clone());
            // Small memtables so the stream genuinely spills: rotation,
            // flush, and compaction all happen during ingest, and serving
            // reads SSTs through the block cache.
            config.cache_memtable_budget = 16 << 10;
        }
        None => config.cache_dir = None,
    }
    let bench = setup_helios(preset, SCALE, SamplingStrategy::TopK, false, config);
    let ingest_rate = bench.events.len() as f64 / bench.ingest_secs;
    let seeds = percent_seeds(&bench.dataset, 1.0);
    let serve = drive(CONCURRENCY, WINDOW, |c, seq| {
        let seed = seeds[(seq as usize * 31 + c * 7) % seeds.len()];
        let _ = bench.deployment.serve(seed).unwrap();
    });
    let mut sst_files = 0;
    let mut disk_bytes = 0;
    let mut cache_hits = 0;
    let mut cache_misses = 0;
    for w in bench.deployment.serving_workers() {
        let (samples, features) = w.cache_stats();
        for st in [samples, features] {
            sst_files += st.sst_files as u64;
            disk_bytes += st.disk_bytes;
            cache_hits += st.block_cache_hits;
            cache_misses += st.block_cache_misses;
        }
    }
    bench.shutdown();
    ModeOutcome {
        ingest_rate,
        serve,
        sst_files,
        disk_bytes,
        cache_hits,
        cache_misses,
    }
}

fn main() {
    let mut t = helios_telemetry::Table::new(
        format!(
            "Hybrid-cache before/after (scale {SCALE}, conc {CONCURRENCY}): \
             in-memory vs memory+disk serving caches"
        ),
        &[
            "Dataset",
            "Mode",
            "ingest rec/s",
            "serve QPS",
            "avg ms",
            "p99 ms",
            "SSTs",
            "disk MB",
            "blk hit%",
        ],
    );
    for preset in [Preset::Bi, Preset::Inter] {
        let mem = run_mode(preset, None);
        let dir = std::env::temp_dir().join(format!(
            "helios-hybrid-mode-{}-{}",
            std::process::id(),
            preset.name()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let hyb = run_mode(preset, Some(dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        for (mode, out) in [("memory", &mem), ("hybrid", &hyb)] {
            let probes = out.cache_hits + out.cache_misses;
            t.row(&[
                preset.name().to_string(),
                mode.to_string(),
                format!("{:.0}", out.ingest_rate),
                format!("{:.0}", out.serve.qps),
                format!("{:.3}", out.serve.avg_ms),
                format!("{:.3}", out.serve.p99_ms),
                out.sst_files.to_string(),
                format!("{:.1}", out.disk_bytes as f64 / (1 << 20) as f64),
                if probes == 0 {
                    "-".into()
                } else {
                    format!("{:.0}%", out.cache_hits as f64 / probes as f64 * 100.0)
                },
            ]);
        }
        println!(
            "{}: hybrid serve p99 {:.2}x of memory, ingest {:.2}x",
            preset.name(),
            hyb.serve.p99_ms / mem.serve.p99_ms.max(f64::EPSILON),
            hyb.ingest_rate / mem.ingest_rate.max(f64::EPSILON),
        );
    }
    t.print();
}
