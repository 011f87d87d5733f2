//! Telemetry overhead: the observability layer must be cheap-by-default.
//!
//! Measures (a) the raw instrument primitives (counter bumps, inert and
//! recording spans) and (b) the full serving path with tracing disabled
//! vs enabled. The disabled-path numbers are the contract: a `span()`
//! call with tracing off is two relaxed atomic loads, so `serve` with
//! telemetry disabled must sit on top of the un-instrumented baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use helios_core::{HeliosConfig, HeliosDeployment};
use helios_query::{KHopQuery, SamplingStrategy};
use helios_telemetry::{clear_spans, set_trace_sample_rate, set_tracing, span, Registry, TraceCtx};
use helios_types::{
    EdgeType, EdgeUpdate, GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate,
};

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry");
    let registry = Registry::new();
    let counter = registry.counter("bench.ops", &[("worker", "0")]);
    g.bench_function("counter_incr", |b| b.iter(|| counter.incr()));

    let hist = registry.histogram("bench.latency", &[]);
    g.bench_function("histogram_record", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            hist.record(i % 10_000);
        });
    });

    set_tracing(false);
    g.bench_function("span_disabled", |b| {
        b.iter(|| span("bench.span", TraceCtx::NONE))
    });

    g.bench_function("span_enabled_pair", |b| {
        set_tracing(true);
        let mut n = 0u64;
        b.iter(|| {
            let root = span("bench.root", TraceCtx::root());
            let child = span("bench.child", root.ctx());
            drop(child);
            drop(root);
            n += 1;
            // Keep the thread journal bounded while measuring.
            if n.is_multiple_of(8192) {
                clear_spans();
            }
        });
        set_tracing(false);
        clear_spans();
    });
    g.finish();
}

/// A small 2-hop deployment with enough edges that `serve` does real
/// cache lookups.
fn small_deployment() -> HeliosDeployment {
    let user = VertexType(0);
    let item = VertexType(1);
    let click = EdgeType(0);
    let cop = EdgeType(1);
    let query = KHopQuery::builder(user)
        .hop(click, item, 5, SamplingStrategy::TopK)
        .hop(cop, item, 3, SamplingStrategy::TopK)
        .build()
        .unwrap();
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(1, 1), query).unwrap();
    let mut updates = Vec::new();
    let mut ts = 0u64;
    for u in 0..64u64 {
        ts += 1;
        updates.push(GraphUpdate::Vertex(VertexUpdate {
            vtype: user,
            id: VertexId(u),
            feature: vec![1.0; 8],
            ts: Timestamp(ts),
        }));
        for k in 0..8u64 {
            ts += 1;
            updates.push(GraphUpdate::Edge(EdgeUpdate {
                etype: click,
                src_type: user,
                src: VertexId(u),
                dst_type: item,
                dst: VertexId(1000 + (u * 8 + k) % 256),
                ts: Timestamp(ts),
                weight: 1.0,
            }));
        }
    }
    for i in 0..256u64 {
        for k in 0..4u64 {
            ts += 1;
            updates.push(GraphUpdate::Edge(EdgeUpdate {
                etype: cop,
                src_type: item,
                src: VertexId(1000 + i),
                dst_type: item,
                dst: VertexId(1000 + (i + k + 1) % 256),
                ts: Timestamp(ts),
                weight: 1.0,
            }));
        }
    }
    helios.ingest_batch(&updates).unwrap();
    assert!(helios.quiesce(std::time::Duration::from_secs(30)));
    helios
}

fn bench_serve_path(c: &mut Criterion) {
    let helios = small_deployment();
    let mut g = c.benchmark_group("serve");

    set_tracing(false);
    g.bench_function("tracing_disabled", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            helios.serve(VertexId(i % 64)).unwrap()
        });
    });

    g.bench_function("tracing_enabled", |b| {
        set_tracing(true);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            if i.is_multiple_of(1024) {
                clear_spans();
            }
            helios.serve(VertexId(i % 64)).unwrap()
        });
        set_tracing(false);
        clear_spans();
    });

    // The production configuration: tracing left on with 1% head
    // sampling. The acceptance bound is within 5% of tracing_disabled —
    // 99 of 100 serves pay only the per-span sample check.
    g.bench_function("tracing_sampled_1pct", |b| {
        set_tracing(true);
        set_trace_sample_rate(0.01);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            if i.is_multiple_of(1024) {
                clear_spans();
            }
            helios.serve(VertexId(i % 64)).unwrap()
        });
        set_tracing(false);
        set_trace_sample_rate(1.0);
        clear_spans();
    });
    g.finish();
    helios.shutdown();
}

/// `HELIOS_BENCH_QUICK=1` shrinks the run to a CI smoke: correctness of
/// the bench harness (it builds, runs, and the instrumented paths don't
/// panic), not statistical confidence.
fn config() -> Criterion {
    let quick = helios_telemetry::env_flag("HELIOS_BENCH_QUICK");
    let c = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(if quick {
            50
        } else {
            300
        }))
        .sample_size(if quick { 10 } else { 20 });
    c.measurement_time(std::time::Duration::from_millis(if quick {
        200
    } else {
        1000
    }))
}

criterion_group!(
    name = benches;
    config = config();
    targets = bench_primitives, bench_serve_path
);
criterion_main!(benches);
