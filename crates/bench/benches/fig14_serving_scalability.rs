//! Fig. 14: scalability of serving — (a) scale-up with serving threads,
//! (b) scale-out with serving workers, plus the multicore extension
//! (c): a threads×cores sweep with the threads pinned. A serving thread
//! is a caller's thread — one per connection in the deployed system — so
//! each sweep drives N threads calling `serve_encoded` directly, which is
//! what N connections do to a `NetServer`.
//!
//! `HELIOS_BENCH_QUICK=1` shrinks scales, windows, and sweep points to a
//! CI smoke that exercises every code path in seconds.

use helios_bench::{drive, drive_pinned, setup_helios, BenchOutcome};
use helios_core::HeliosConfig;
use helios_datagen::Preset;
use helios_query::SamplingStrategy;
use helios_types::affinity::available_cores;
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

/// `threads` serving threads over `workers` serving workers (INTER
/// Random), pinned round-robin over `pin_cores` cores when given.
fn run(workers: usize, threads: usize, pin_cores: Option<usize>) -> BenchOutcome {
    let bench = setup_helios(
        Preset::Inter,
        scale(),
        SamplingStrategy::Random,
        false,
        HeliosConfig::with_workers(2, workers),
    );
    let op = |c: usize, seq: u64| {
        bench.serve_encoded(bench.seeds[(seq as usize * 29 + c * 11) % bench.seeds.len()]);
    };
    let out = match pin_cores {
        Some(cores) => drive_pinned(threads, cores, window(), op),
        None => drive(threads, window(), op),
    };
    bench.shutdown();
    out
}

fn row(label: Vec<String>, out: &BenchOutcome) -> Vec<String> {
    let mut row = label;
    row.extend([
        format!("{:.0}", out.qps),
        format!("{:.3}", out.avg_ms),
        format!("{:.3}", out.p99_ms),
    ]);
    row
}

fn main() {
    let threads_sweep: &[usize] = if quick() { &[2, 4] } else { &[2, 4, 8, 16] };
    let mut a = helios_metrics::Table::new(
        "Fig. 14(a): serving scale-up (2 serving workers, varying serving threads, INTER Random)",
        &["threads", "QPS", "avg (ms)", "P99 (ms)"],
    );
    for &threads in threads_sweep {
        a.row(&row(vec![threads.to_string()], &run(2, threads, None)));
    }
    a.print();

    let workers_sweep: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 4] };
    let threads = if quick() { 4 } else { 8 };
    let mut b = helios_metrics::Table::new(
        format!(
            "Fig. 14(b): serving scale-out ({threads} serving threads, varying serving workers)"
        ),
        &["workers", "QPS", "avg (ms)", "P99 (ms)"],
    );
    for &workers in workers_sweep {
        b.row(&row(
            vec![workers.to_string()],
            &run(workers, threads, None),
        ));
    }
    b.print();

    let cores = available_cores();
    let mut c = helios_metrics::Table::new(
        format!(
            "Fig. 14(c): multicore sweep (1 serving worker, threads pinned, host has {cores} core(s))"
        ),
        &["threads", "cores", "QPS", "avg (ms)", "P99 (ms)"],
    );
    let core_sweep: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 4, 8] };
    for &n in core_sweep {
        // Threads track cores: the near-N× claim is N threads on N cores.
        let pinned = n.min(cores.max(1));
        c.row(&row(
            vec![n.to_string(), pinned.to_string()],
            &run(1, n, Some(pinned)),
        ));
    }
    c.print();

    println!(
        "paper: QPS grows near-linearly with serving threads/workers; \
         P99 falls from 83ms to 24ms going 1 -> 4 workers"
    );
}
