//! Profiler overhead: the cooperative frame stacks and the `/profile`
//! sampler must be cheap enough to leave on.
//!
//! Three paired serve measurements over one deployment, each driving N
//! threads that call `serve_encoded` directly (what N connections do to a
//! `NetServer`):
//!
//! * **annotation off** — `set_profiling_enabled(false)`: frame guards
//!   cost one relaxed load, the un-instrumented baseline;
//! * **idle** — annotation on, nobody collecting (the always-on
//!   production state; acceptance bound: p99 ≤ 1.05× the off baseline);
//! * **collecting** — annotation on while a `/profile`-style collector
//!   samples every registered thread at the default interval.
//!
//! Emits `BENCH_profiler_overhead.json` and prints the measured ratios;
//! EXPERIMENTS.md records the numbers. `HELIOS_BENCH_QUICK=1` shrinks
//! windows for a CI smoke.

use helios_bench::{
    drive, percent_seeds, setup_helios, write_bench_json, BenchOutcome, BenchRecord,
};
use helios_core::HeliosConfig;
use helios_datagen::Preset;
use helios_query::SamplingStrategy;
use helios_telemetry::Profiler;
use helios_types::profile::set_profiling_enabled;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn quick() -> bool {
    helios_telemetry::env_flag("HELIOS_BENCH_QUICK")
}

fn window() -> Duration {
    Duration::from_millis(if quick() { 400 } else { 2000 })
}

fn main() {
    let scale = if quick() { 0.015 } else { 0.03 };
    let conc = if quick() { 4 } else { 8 };
    let helios = setup_helios(
        Preset::Inter,
        scale,
        SamplingStrategy::Random,
        false,
        HeliosConfig::with_workers(2, 2),
    );
    let seeds = percent_seeds(&helios.dataset, 1.0);
    let serve = |c: usize, seq: u64| {
        helios.serve_encoded(seeds[(seq as usize * 31 + c * 7) % seeds.len()]);
    };

    // Warm up once so caches, thread scratch and interned labels are hot
    // before any measured window.
    drive(conc, window() / 2, serve);

    set_profiling_enabled(false);
    let off: BenchOutcome = drive(conc, window(), serve);
    set_profiling_enabled(true);
    let idle: BenchOutcome = drive(conc, window(), serve);

    // Collector running: sample all registered threads for the whole
    // window, like a long `GET /profile` would.
    let profiler = Profiler::new(helios.deployment.telemetry());
    let stop = AtomicBool::new(false);
    let collecting: BenchOutcome = std::thread::scope(|scope| {
        let stop = &stop;
        let profiler = &profiler;
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = profiler.collect_collapsed(Duration::from_millis(50));
            }
        });
        let out = drive(conc, window(), serve);
        stop.store(true, Ordering::Relaxed);
        out
    });

    let mut t = helios_telemetry::Table::new(
        format!("Profiler overhead (INTER Random, conc {conc}, scale {scale})"),
        &["Mode", "QPS", "P50 (ms)", "P99 (ms)", "P99 vs off"],
    );
    for (mode, out) in [("off", &off), ("idle", &idle), ("collecting", &collecting)] {
        t.row(&[
            mode.to_string(),
            format!("{:.0}", out.qps),
            format!("{:.3}", out.p50_ms),
            format!("{:.3}", out.p99_ms),
            format!("{:.3}x", out.p99_ms / off.p99_ms.max(f64::EPSILON)),
        ]);
    }
    t.print();

    let records = vec![
        BenchRecord::capture("annotation_off", &off, &helios),
        BenchRecord::capture("annotation_idle", &idle, &helios),
        BenchRecord::capture("collecting", &collecting, &helios),
    ];
    write_bench_json("profiler_overhead", &records);
    println!(
        "idle overhead {:.3}x off-baseline p99 (bound 1.05x); collecting {:.3}x",
        idle.p99_ms / off.p99_ms.max(f64::EPSILON),
        collecting.p99_ms / off.p99_ms.max(f64::EPSILON),
    );
    helios.shutdown();
}
