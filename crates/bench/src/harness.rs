//! Shared experiment machinery: deployment setup, concurrent load
//! driving, latency/throughput collection.

use helios_core::{HeliosConfig, HeliosDeployment};
use helios_datagen::{Dataset, Preset};
use helios_metrics::Histogram;
use helios_query::{KHopQuery, SamplingStrategy};
use helios_types::{GraphUpdate, VertexId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of a timed concurrent run.
#[derive(Debug, Clone, Copy)]
pub struct BenchOutcome {
    /// Completed operations.
    pub count: u64,
    /// Operations per second over the measurement window.
    pub qps: f64,
    /// Mean per-operation latency, milliseconds.
    pub avg_ms: f64,
    /// Median per-operation latency, milliseconds.
    pub p50_ms: f64,
    /// P99 per-operation latency, milliseconds.
    pub p99_ms: f64,
}

/// Drive `op` from `concurrency` client threads for `window`, measuring
/// each call. `op(client, seq)` performs one request.
pub fn drive<F>(concurrency: usize, window: Duration, op: F) -> BenchOutcome
where
    F: Fn(usize, u64) + Send + Sync,
{
    drive_inner(concurrency, None, window, op)
}

/// Like [`drive`], but pins client `c` to core `c % cores` before the
/// measurement loop — the multicore serving sweeps use this so client
/// threads — which are the serving threads — spread over a known core
/// set instead of wherever the scheduler lands them.
/// Pinning is best effort: on non-Linux hosts or restricted cpusets the
/// clients just run unpinned.
pub fn drive_pinned<F>(concurrency: usize, cores: usize, window: Duration, op: F) -> BenchOutcome
where
    F: Fn(usize, u64) + Send + Sync,
{
    drive_inner(concurrency, Some(cores), window, op)
}

fn drive_inner<F>(
    concurrency: usize,
    pin_cores: Option<usize>,
    window: Duration,
    op: F,
) -> BenchOutcome
where
    F: Fn(usize, u64) + Send + Sync,
{
    let op = &op;
    let hist = Histogram::new();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..concurrency {
            let hist = &hist;
            let stop = &stop;
            handles.push(scope.spawn(move || {
                if let Some(cores) = pin_cores {
                    let _ = helios_types::affinity::pin_to_core(c % cores.max(1));
                }
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    op(c, seq);
                    hist.record_duration(t0.elapsed());
                    seq += 1;
                }
                seq
            }));
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let snap = hist.snapshot();
    BenchOutcome {
        count: total,
        qps: total as f64 / elapsed,
        avg_ms: snap.mean_ms(),
        p50_ms: snap.percentile_ms(50.0),
        p99_ms: snap.percentile_ms(99.0),
    }
}

/// One labeled measurement destined for a `BENCH_<experiment>.json`
/// machine-readable snapshot (QPS, p50/p99, memory high-water).
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// What was measured, e.g. `"INTER/Random/conc8"`.
    pub label: String,
    /// Operations per second.
    pub qps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// P99 latency, milliseconds.
    pub p99_ms: f64,
    /// Accountant high-water mark at capture, bytes (0 when the
    /// measurement had no deployment attached).
    pub mem_high_water_bytes: i64,
}

impl BenchRecord {
    /// Capture `out` under `label`, folding the deployment's current
    /// footprint into its memory high-water mark first so the recorded
    /// peak covers at least the end of the measurement window.
    pub fn capture(label: impl Into<String>, out: &BenchOutcome, helios: &HeliosBench) -> Self {
        let acct = helios.deployment.mem_accountant();
        acct.export();
        BenchRecord {
            label: label.into(),
            qps: out.qps,
            p50_ms: out.p50_ms,
            p99_ms: out.p99_ms,
            mem_high_water_bytes: acct.high_water_bytes(),
        }
    }

    /// A record with no deployment (baseline measurements).
    pub fn bare(label: impl Into<String>, out: &BenchOutcome) -> Self {
        BenchRecord {
            label: label.into(),
            qps: out.qps,
            p50_ms: out.p50_ms,
            p99_ms: out.p99_ms,
            mem_high_water_bytes: 0,
        }
    }
}

/// Write `BENCH_<experiment>.json` (into `HELIOS_BENCH_JSON_DIR`, or the
/// working directory when unset) and return its path. Dependency-free
/// JSON: flat records with numeric fields and escaped string labels.
pub fn write_bench_json(experiment: &str, records: &[BenchRecord]) -> std::path::PathBuf {
    let dir = std::env::var_os("HELIOS_BENCH_JSON_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let path = dir.join(format!("BENCH_{experiment}.json"));
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            let label = r.label.replace('\\', "\\\\").replace('"', "\\\"");
            format!(
                "    {{\"label\":\"{label}\",\"qps\":{:.1},\"p50_ms\":{:.4},\"p99_ms\":{:.4},\"mem_high_water_bytes\":{}}}",
                r.qps, r.p50_ms, r.p99_ms, r.mem_high_water_bytes
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"experiment\": \"{experiment}\",\n  \"records\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("BENCH json write failed for {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
    path
}

/// A deployed Helios instance pre-loaded with a dataset.
pub struct HeliosBench {
    /// The running deployment.
    pub deployment: Arc<HeliosDeployment>,
    /// The dataset it was loaded with.
    pub dataset: Dataset,
    /// The replayed events (for paired baselines / further streaming).
    pub events: Vec<GraphUpdate>,
    /// Seed vertices of the query's seed population.
    pub seeds: Vec<VertexId>,
    /// Seconds spent replaying + settling (ingest wall time).
    pub ingest_secs: f64,
    /// The registered query.
    pub query: KHopQuery,
}

impl HeliosBench {
    /// One direct `serve_encoded` into the calling thread's reusable
    /// reply buffer — what a `NetServer` connection thread does per
    /// request, so N driver threads stand for N connections.
    pub fn serve_encoded(&self, seed: VertexId) {
        thread_local! {
            static REPLY: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        REPLY.with(|reply| {
            self.deployment
                .serve_encoded(seed, &mut reply.borrow_mut())
                .expect("serve")
        });
    }

    /// Tear down: with `HELIOS_STATS=1` print the deployment's telemetry
    /// snapshot first, so every fig* experiment gets per-subsystem
    /// counters for free; then stop the deployment if this handle is the
    /// last owner.
    pub fn shutdown(self) {
        if helios_telemetry::stats_env() {
            let snap = self.deployment.telemetry_snapshot();
            println!("--- telemetry snapshot (HELIOS_STATS=1) ---");
            print!("{}", snap.render());
            println!(
                "serving.decode_errors total: {}",
                snap.counter_total("serving.decode_errors")
            );
        }
        if let Ok(d) = Arc::try_unwrap(self.deployment) {
            d.shutdown();
        }
    }
}

/// Generate the dataset, start Helios, replay the full stream and wait
/// for the pipeline to settle.
pub fn setup_helios(
    preset: Preset,
    scale: f64,
    strategy: SamplingStrategy,
    three_hop: bool,
    mut config: HeliosConfig,
) -> HeliosBench {
    let dataset = preset.dataset(scale);
    let query = dataset.table2_query(strategy, three_hop);
    // `HELIOS_OPS_ADDR=127.0.0.1:9100` exposes /metrics etc. for the
    // duration of the experiment (unless the caller already set one).
    if config.ops_addr.is_none() {
        config.ops_addr = helios_telemetry::ops_addr_env();
    }
    // `HELIOS_CACHE_DIR=/mnt/tmpfs` switches the serving caches to hybrid
    // (memory + disk) mode under a unique per-run subdirectory, for the
    // before/after comparisons in EXPERIMENTS.md (unless the caller
    // already picked a cache dir).
    if config.cache_dir.is_none() {
        config.cache_dir = helios_telemetry::cache_dir_env();
    }
    let deployment =
        Arc::new(HeliosDeployment::start(config, query.clone()).expect("start helios"));
    if let Some(addr) = deployment.ops_addr() {
        println!("ops server listening on http://{addr}");
    }
    let events: Vec<GraphUpdate> = dataset.events().collect();
    let t0 = Instant::now();
    deployment.ingest_batch(&events).expect("ingest");
    assert!(
        deployment.quiesce(Duration::from_secs(600)),
        "helios did not settle"
    );
    let ingest_secs = t0.elapsed().as_secs_f64();
    let seeds = percent_seeds(&dataset, 1.0);
    HeliosBench {
        deployment,
        dataset,
        events,
        seeds,
        ingest_secs,
        query,
    }
}

/// All (or a fraction of) seed-population vertex ids, in a shuffled but
/// deterministic order.
pub fn percent_seeds(dataset: &Dataset, fraction: f64) -> Vec<VertexId> {
    let (lo, hi) = dataset.id_range(dataset.seed_population());
    let mut seeds: Vec<VertexId> = (lo..hi).map(VertexId).collect();
    // Deterministic shuffle (splitmix-style walk).
    let n = seeds.len();
    let mut j = 0usize;
    for i in 0..n {
        j = (j
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407))
            % n.max(1);
        seeds.swap(i, j);
    }
    let keep = ((n as f64) * fraction).ceil() as usize;
    seeds.truncate(keep.max(1).min(n));
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_counts_and_measures() {
        let out = drive(2, Duration::from_millis(100), |_c, _s| {
            std::thread::sleep(Duration::from_millis(1));
        });
        assert!(out.count > 10);
        assert!(out.qps > 10.0);
        assert!(out.avg_ms >= 1.0);
        assert!(out.p99_ms >= out.avg_ms * 0.5);
    }

    #[test]
    fn drive_pinned_works_like_drive() {
        // Pinning is best effort, so this must pass on any host.
        let out = drive_pinned(2, helios_types::affinity::available_cores(), Duration::from_millis(50), |_c, _s| {
            std::thread::sleep(Duration::from_millis(1));
        });
        assert!(out.count > 5);
        assert!(out.avg_ms >= 1.0);
    }

    #[test]
    fn bench_json_is_written_and_well_formed() {
        let dir = std::env::temp_dir().join(format!("helios-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("HELIOS_BENCH_JSON_DIR", &dir);
        let out = BenchOutcome {
            count: 10,
            qps: 1234.5,
            avg_ms: 0.5,
            p50_ms: 0.4,
            p99_ms: 2.25,
        };
        let path = write_bench_json(
            "unit_test",
            &[BenchRecord::bare("quote\"label", &out)],
        );
        std::env::remove_var("HELIOS_BENCH_JSON_DIR");
        assert_eq!(path.file_name().unwrap(), "BENCH_unit_test.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"experiment\": \"unit_test\""));
        assert!(body.contains("\"qps\":1234.5"));
        assert!(body.contains("\"p50_ms\":0.4000"));
        assert!(body.contains("\"p99_ms\":2.2500"));
        assert!(body.contains("\"mem_high_water_bytes\":0"));
        assert!(body.contains("quote\\\"label"), "labels are escaped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeds_are_deterministic_and_bounded() {
        let d = Preset::Inter.dataset(0.01);
        let a = percent_seeds(&d, 0.5);
        let b = percent_seeds(&d, 0.5);
        assert_eq!(a, b);
        let (lo, hi) = d.id_range(d.seed_population());
        assert!(a.iter().all(|v| (lo..hi).contains(&v.raw())));
        assert!(a.len() <= (hi - lo) as usize);
    }
}
