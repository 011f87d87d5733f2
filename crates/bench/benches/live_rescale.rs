//! Dynamic rescale experiment (membership PR): serve latency while the
//! serving fleet is scaled out and back in under load, versus steady
//! state. The paper's elasticity argument (§4.1 replication "based on the
//! ad-hoc skewness") only holds if a handoff is cheap from the client's
//! point of view; the acceptance bar here is **serve p99 during a
//! handoff ≤ 2× steady-state p99**.
//!
//! Three measured windows, identical load (32 client threads, direct
//! serves, plus one thread continuously re-streaming the update log so
//! the cache-apply path is always busy):
//!   1. steady state at 2 serving workers;
//!   2. the same, with continuous handoffs (2→4→2→…) — this window
//!      observes epoch bumps, Prepare snapshot floods and scale-in
//!      unsubscribe cascades;
//!   3. steady state again after the cycling stops.
//!
//! The ingest load runs in windows 1 and 3 too: the ratio isolates what
//! the *handoff* adds, not what concurrent ingestion costs.

use helios_bench::{drive, setup_helios};
use helios_core::HeliosConfig;
use helios_datagen::Preset;
use helios_query::SamplingStrategy;
use helios_telemetry::EventKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

const SCALE: f64 = 0.03;
const WINDOW: Duration = Duration::from_secs(2);
const CONCURRENCY: usize = 32;

fn main() {
    let bench = setup_helios(
        Preset::Inter,
        SCALE,
        SamplingStrategy::Random,
        false,
        HeliosConfig::with_workers(2, 2),
    );
    let d = &bench.deployment;
    let serve = |c: usize, seq: u64| {
        let seed = bench.seeds[(seq as usize * 29 + c * 11) % bench.seeds.len()];
        let _ = bench.deployment.serve(seed).unwrap();
    };

    // Background ingest: re-stream the update log for the whole
    // experiment, so all three windows pay the same cache-apply cost.
    let stop_ingest = AtomicBool::new(false);
    let (steady, during, after, handoffs) = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop_ingest.load(Ordering::Relaxed) {
                d.ingest_batch(&bench.events).unwrap();
            }
        });
        let steady = drive(CONCURRENCY, WINDOW, serve);

        // Window 2: same load while handoffs cycle continuously, so
        // Prepare/Commit scans race live traffic.
        let stop_scale = AtomicBool::new(false);
        let handoffs = AtomicU64::new(0);
        let during = std::thread::scope(|s2| {
            s2.spawn(|| {
                while !stop_scale.load(Ordering::Relaxed) {
                    d.scale_to(4).unwrap();
                    handoffs.fetch_add(1, Ordering::Relaxed);
                    d.scale_to(2).unwrap();
                    handoffs.fetch_add(1, Ordering::Relaxed);
                }
            });
            let out = drive(CONCURRENCY, WINDOW, serve);
            stop_scale.store(true, Ordering::Relaxed);
            out
        });

        let after = drive(CONCURRENCY, WINDOW, serve);
        stop_ingest.store(true, Ordering::Relaxed);
        (steady, during, after, handoffs.load(Ordering::Relaxed))
    });
    assert!(d.quiesce(Duration::from_secs(600)), "did not re-settle");

    let epoch = d.route_epoch();
    let bumps = d
        .flight_recorder()
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::EpochBump)
        .count();
    let mut t = helios_telemetry::Table::new(
        "Dynamic rescale: serve latency under continuous 2→4→2 handoffs (INTER Random, conc. 32)",
        &["window", "QPS", "avg (ms)", "P99 (ms)"],
    );
    for (label, out) in [
        ("steady (2 workers)", steady),
        ("during handoffs", during),
        ("after (2 workers)", after),
    ] {
        t.row(&[
            label.to_string(),
            format!("{:.0}", out.qps),
            format!("{:.3}", out.avg_ms),
            format!("{:.3}", out.p99_ms),
        ]);
    }
    t.print();
    let ratio = during.p99_ms / steady.p99_ms.max(1e-9);
    println!("handoffs completed: {handoffs} (final epoch {epoch}, {bumps} epoch bumps recorded)");
    println!("handoff/steady p99 ratio: {ratio:.2}x (acceptance: <= 2x steady-state p99)");
    assert!(
        ratio <= 2.0,
        "serve p99 during handoff regressed beyond 2x steady state"
    );
    bench.shutdown();
}
