//! Tests for the batched serving hot path: `apply_batch` must be
//! indistinguishable from sequential `apply`, and malformed sample-queue
//! records must be counted as decode errors — not as applied — without
//! wedging the drain accounting.

use helios_core::messages::{SampleEntryLite, SampleMsg};
use helios_core::sampler::topics;
use helios_core::{HeliosConfig, HeliosDeployment};
use helios_query::{KHopQuery, SamplingStrategy};
use helios_telemetry::TraceCtx;
use helios_types::{
    EdgeType, EdgeUpdate, GraphUpdate, QueryHopId, Timestamp, VertexId, VertexType, VertexUpdate,
};
use std::time::Duration;

const USER: VertexType = VertexType(0);
const ITEM: VertexType = VertexType(1);
const CLICK: EdgeType = EdgeType(0);
const COP: EdgeType = EdgeType(1);
const SETTLE: Duration = Duration::from_secs(20);

fn two_hop_topk() -> KHopQuery {
    KHopQuery::builder(USER)
        .hop(CLICK, ITEM, 2, SamplingStrategy::TopK)
        .hop(COP, ITEM, 2, SamplingStrategy::TopK)
        .build()
        .unwrap()
}

fn entries(neighbors: &[u64]) -> Vec<SampleEntryLite> {
    neighbors
        .iter()
        .map(|&n| SampleEntryLite {
            neighbor: VertexId(n),
            ts: Timestamp(1),
            weight: 1.0,
        })
        .collect()
}

/// A mixed batch — sample updates, overwrites of the same key, feature
/// updates, and evictions — applied via `apply_batch` must leave the
/// cache in exactly the state sequential `apply` calls produce.
#[test]
fn apply_batch_matches_sequential_apply() {
    let msgs = vec![
        SampleMsg::SampleUpdate {
            hop: QueryHopId(0),
            key: VertexId(1),
            entries: entries(&[10, 11]),
            caused_at: 0,
            trace: TraceCtx::NONE,
        },
        SampleMsg::FeatureUpdate {
            vertex: VertexId(1),
            feature: vec![1.0],
            ts: Timestamp(1),
            caused_at: 0,
            trace: TraceCtx::NONE,
        },
        SampleMsg::FeatureUpdate {
            vertex: VertexId(10),
            feature: vec![10.0],
            ts: Timestamp(1),
            caused_at: 0,
            trace: TraceCtx::NONE,
        },
        SampleMsg::FeatureUpdate {
            vertex: VertexId(11),
            feature: vec![11.0],
            ts: Timestamp(1),
            caused_at: 0,
            trace: TraceCtx::NONE,
        },
        SampleMsg::SampleUpdate {
            hop: QueryHopId(1),
            key: VertexId(10),
            entries: entries(&[20]),
            caused_at: 0,
            trace: TraceCtx::NONE,
        },
        SampleMsg::FeatureUpdate {
            vertex: VertexId(20),
            feature: vec![20.0],
            ts: Timestamp(1),
            caused_at: 0,
            trace: TraceCtx::NONE,
        },
        // Same-key overwrite later in the batch must win.
        SampleMsg::SampleUpdate {
            hop: QueryHopId(0),
            key: VertexId(1),
            entries: entries(&[10]),
            caused_at: 0,
            trace: TraceCtx::NONE,
        },
        // Eviction after an update must stick.
        SampleMsg::FeatureUpdate {
            vertex: VertexId(99),
            feature: vec![99.0],
            ts: Timestamp(1),
            caused_at: 0,
            trace: TraceCtx::NONE,
        },
        SampleMsg::EvictFeature {
            vertex: VertexId(99),
        },
    ];

    let batched =
        HeliosDeployment::start(HeliosConfig::with_workers(1, 1), two_hop_topk()).unwrap();
    let sequential =
        HeliosDeployment::start(HeliosConfig::with_workers(1, 1), two_hop_topk()).unwrap();
    let wb = &batched.serving_workers()[0];
    let ws = &sequential.serving_workers()[0];
    wb.apply_batch(&msgs);
    for m in &msgs {
        ws.apply(m);
    }

    let sb = wb.serve(VertexId(1), TraceCtx::NONE).unwrap();
    let ss = ws.serve(VertexId(1), TraceCtx::NONE).unwrap();
    assert_eq!(sb.hops.len(), ss.hops.len());
    for (hb, hs) in sb.hops.iter().zip(&ss.hops) {
        assert_eq!(hb.groups, hs.groups);
    }
    assert_eq!(sb.features, ss.features);
    // And the overwrite actually won: hop 0 of seed 1 is [10], not [10, 11].
    let hop1: Vec<VertexId> = sb.hops[0].flat().collect();
    assert_eq!(hop1, vec![VertexId(10)]);
    assert_eq!(sb.feature(VertexId(20)).unwrap(), &[20.0]);
    assert!(sb.feature(VertexId(99)).is_none());

    batched.shutdown();
    sequential.shutdown();
}

/// Malformed records on the sample queue are counted in
/// `serving.decode_errors`, are excluded from `serving.applied`, and do
/// not wedge `quiesce`'s drain accounting.
#[test]
fn malformed_sample_records_counted_not_applied() {
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(1, 1), two_hop_topk()).unwrap();

    // Inject garbage straight onto the serving worker's sample queue.
    let topic = helios.broker().topic(&topics::samples(0)).unwrap();
    topic
        .produce(7, bytes::Bytes::from_static(&[0xFF, 0xEE, 0xDD]))
        .unwrap();

    // A real workload alongside the garbage.
    let mut updates = vec![
        GraphUpdate::Vertex(VertexUpdate {
            vtype: USER,
            id: VertexId(1),
            feature: vec![1.0],
            ts: Timestamp(1),
        }),
        GraphUpdate::Vertex(VertexUpdate {
            vtype: ITEM,
            id: VertexId(1000),
            feature: vec![2.0],
            ts: Timestamp(2),
        }),
    ];
    updates.push(GraphUpdate::Edge(EdgeUpdate {
        etype: CLICK,
        src_type: USER,
        src: VertexId(1),
        dst_type: ITEM,
        dst: VertexId(1000),
        ts: Timestamp(3),
        weight: 1.0,
    }));
    helios.ingest_and_settle(&updates, SETTLE).unwrap();

    let total_errors: u64 = helios
        .serving_workers()
        .iter()
        .map(|w| w.decode_errors())
        .sum();
    assert_eq!(total_errors, 1, "exactly the injected garbage record");

    // The drain equation applied + decode_errors == produced still holds,
    // so quiesce converges rather than hanging.
    assert!(helios.quiesce(SETTLE));

    // And the real update made it through.
    let sg = helios.serve(VertexId(1)).unwrap();
    let hop1: Vec<VertexId> = sg.hops[0].flat().collect();
    assert_eq!(hop1, vec![VertexId(1000)]);
    helios.shutdown();
}
