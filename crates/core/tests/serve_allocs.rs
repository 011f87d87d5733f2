//! The serve path's allocation promise, pinned: once the serving
//! thread's scratch and the caller's `out` buffer have grown to fit a
//! fixed seed set, `serve_encoded` — on a worker and through the
//! deployment's routing front-end — allocates nothing.
//!
//! This binary installs its own counting allocator. The count is kept per
//! thread, so the deployment's updater, sampler and stats threads do not
//! show up in the serving thread's tally.

use helios_core::{HeliosConfig, HeliosDeployment};
use helios_query::{KHopQuery, SamplingStrategy};
use helios_telemetry::TraceCtx;
use helios_types::{
    EdgeType, EdgeUpdate, GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const USER: VertexType = VertexType(0);
const ITEM: VertexType = VertexType(1);
const CLICK: EdgeType = EdgeType(0);
const COP: EdgeType = EdgeType(1);
const USERS: u64 = 32;
const SERVES: u64 = 1000;

fn two_hop() -> KHopQuery {
    KHopQuery::builder(USER)
        .hop(CLICK, ITEM, 4, SamplingStrategy::Random)
        .hop(COP, ITEM, 3, SamplingStrategy::TopK)
        .build()
        .unwrap()
}

fn workload() -> Vec<GraphUpdate> {
    let mut out = Vec::new();
    let mut ts = 0u64;
    let mut next_ts = || {
        ts += 1;
        Timestamp(ts)
    };
    for v in (1..=USERS).chain(100..164) {
        out.push(GraphUpdate::Vertex(VertexUpdate {
            vtype: if v <= USERS { USER } else { ITEM },
            id: VertexId(v),
            feature: vec![v as f32; 8],
            ts: next_ts(),
        }));
    }
    for u in 1..=USERS {
        for k in 0..6 {
            out.push(GraphUpdate::Edge(EdgeUpdate {
                etype: CLICK,
                src_type: USER,
                src: VertexId(u),
                dst_type: ITEM,
                dst: VertexId(100 + (u * 7 + k) % 64),
                ts: next_ts(),
                weight: 1.0,
            }));
        }
    }
    for i in 100..164u64 {
        for k in 0..4 {
            out.push(GraphUpdate::Edge(EdgeUpdate {
                etype: COP,
                src_type: ITEM,
                src: VertexId(i),
                dst_type: ITEM,
                dst: VertexId(100 + (i * 3 + k) % 64),
                ts: next_ts(),
                weight: k as f32,
            }));
        }
    }
    out
}

#[test]
fn steady_state_serve_encoded_allocates_nothing() {
    let mut config = HeliosConfig::with_workers(2, 2);
    config.stats_interval = None;
    let helios = HeliosDeployment::start(config, two_hop()).unwrap();
    helios
        .ingest_and_settle(&workload(), Duration::from_secs(30))
        .unwrap();
    let seeds = || (0..SERVES).map(|i| VertexId(1 + i % USERS));
    let mut out = Vec::new();

    // Warm-up: the thread's scratch and `out` grow to the largest reply.
    for seed in seeds() {
        helios.serve_encoded(seed, &mut out).unwrap();
        assert!(!out.is_empty());
    }
    let worker_allocs = allocs_in(|| {
        for seed in seeds() {
            let worker = helios.serving_worker_for(seed);
            worker
                .serve_encoded(seed, TraceCtx::NONE, &mut out)
                .unwrap();
        }
    });
    let deployment_allocs = allocs_in(|| {
        for seed in seeds() {
            helios.serve_encoded(seed, &mut out).unwrap();
        }
    });
    assert_eq!(
        worker_allocs, 0,
        "ServingWorker::serve_encoded: {worker_allocs} allocations over {SERVES} serves"
    );
    assert_eq!(
        deployment_allocs, 0,
        "HeliosDeployment::serve_encoded: {deployment_allocs} allocations over {SERVES} serves"
    );
    helios.shutdown();
}
