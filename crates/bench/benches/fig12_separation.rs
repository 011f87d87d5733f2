//! Fig. 12: impact of sampling/serving separation — serving throughput
//! and latency must stay stable while the graph-update ingestion rate
//! climbs, because pre-sampling and serving run on physically separate
//! workers/threads (§7.2.3).

use helios_bench::{drive, setup_helios};
use helios_core::HeliosConfig;
use helios_datagen::Preset;
use helios_query::SamplingStrategy;
use helios_types::GraphUpdate;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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
    // Fresh updates to stream during serving, with ever-newer timestamps.
    let last_ts = bench.events.last().map(|e| e.ts().millis()).unwrap_or(0);
    let edge_pool: Vec<GraphUpdate> = bench
        .events
        .iter()
        .filter(|e| e.is_edge())
        .cloned()
        .collect();

    let mut t = helios_telemetry::Table::new(
        "Fig. 12: serving stability under concurrent ingestion (INTER, concurrency 16)",
        &[
            "ingest rate (rec/s)",
            "achieved rec/s",
            "QPS",
            "avg (ms)",
            "P99 (ms)",
        ],
    );
    for target_rate in [0u64, 2_000, 10_000, 50_000] {
        let stop = AtomicBool::new(false);
        let outcome = std::thread::scope(|scope| {
            // Background ingestion at the target rate.
            let deployment = &bench.deployment;
            let stop = &stop;
            let pool = &edge_pool;
            let ingested = scope.spawn(move || {
                if target_rate == 0 {
                    return 0u64;
                }
                let mut count = 0u64;
                let start = Instant::now();
                let batch = 200usize;
                let mut ts = last_ts + 1;
                while !stop.load(Ordering::Relaxed) {
                    let due = (start.elapsed().as_secs_f64() * target_rate as f64) as u64;
                    while count < due && !stop.load(Ordering::Relaxed) {
                        let mut updates = Vec::with_capacity(batch);
                        for k in 0..batch {
                            let mut e = pool[(count as usize + k) % pool.len()].clone();
                            if let GraphUpdate::Edge(ref mut edge) = e {
                                ts += 1;
                                edge.ts = helios_types::Timestamp(ts);
                            }
                            updates.push(e);
                        }
                        deployment.ingest_batch(&updates).unwrap();
                        count += batch as u64;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                count
            });

            let out = drive(16, WINDOW, |c, seq| {
                let seed = bench.seeds[(seq as usize * 13 + c * 3) % bench.seeds.len()];
                let _ = bench.deployment.serve(seed).unwrap();
            });
            stop.store(true, Ordering::Relaxed);
            let achieved = ingested.join().unwrap() as f64 / WINDOW.as_secs_f64();
            (out, achieved)
        });
        let (out, achieved) = outcome;
        t.row(&[
            target_rate.to_string(),
            format!("{achieved:.0}"),
            format!("{:.0}", out.qps),
            format!("{:.3}", out.avg_ms),
            format!("{:.3}", out.p99_ms),
        ]);
        // Let the pipeline settle between rates so runs are comparable.
        assert!(bench.deployment.quiesce(Duration::from_secs(600)));
    }
    t.print();
    println!("paper: serving QPS and latency remain almost flat as ingestion load rises");
}
