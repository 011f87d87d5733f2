//! Failure injection: corrupt queue records, worker shutdown, and
//! mismatched checkpoint topology must degrade gracefully, never wedge
//! the pipeline.

use bytes::Bytes;
use helios_core::sampler::topics;
use helios_core::{HeliosConfig, HeliosDeployment};
use helios_query::{KHopQuery, SamplingStrategy};
use helios_telemetry::EventKind;
use helios_types::{
    EdgeType, EdgeUpdate, GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate,
};
use std::time::Duration;

const USER: VertexType = VertexType(0);
const ITEM: VertexType = VertexType(1);
const CLICK: EdgeType = EdgeType(0);
const SETTLE: Duration = Duration::from_secs(30);

fn one_hop() -> KHopQuery {
    KHopQuery::builder(USER)
        .hop(CLICK, ITEM, 3, SamplingStrategy::TopK)
        .build()
        .unwrap()
}

fn world() -> Vec<GraphUpdate> {
    let mut updates = Vec::new();
    for u in 1..=4u64 {
        updates.push(GraphUpdate::Vertex(VertexUpdate {
            vtype: USER,
            id: VertexId(u),
            feature: vec![u as f32; 2],
            ts: Timestamp(u),
        }));
        for k in 0..3u64 {
            updates.push(GraphUpdate::Edge(EdgeUpdate {
                etype: CLICK,
                src_type: USER,
                src: VertexId(u),
                dst_type: ITEM,
                dst: VertexId(100 + u * 10 + k),
                ts: Timestamp(10 + u * 10 + k),
                weight: 1.0,
            }));
        }
    }
    updates
}

/// Garbage records on every topic: the pollers must skip them, the drain
/// accounting must stay consistent (quiesce still converges), and the
/// valid records around them must be fully processed.
#[test]
fn corrupt_queue_records_are_skipped() {
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 2), one_hop()).unwrap();
    let broker = helios.broker().clone();

    // Corruption on the updates topic, interleaved with valid traffic.
    let updates_topic = broker.topic(topics::UPDATES).unwrap();
    for p in 0..updates_topic.partition_count() {
        updates_topic
            .produce_to(
                helios_types::PartitionId(p),
                0,
                Bytes::from_static(b"\xDE\xAD\xBE\xEF garbage"),
            )
            .unwrap();
    }
    helios.ingest_batch(&world()).unwrap();
    // Corruption on the control topic too.
    let control_topic = broker.topic(topics::CONTROL).unwrap();
    for p in 0..control_topic.partition_count() {
        control_topic
            .produce_to(helios_types::PartitionId(p), 0, Bytes::from_static(b"\xFF"))
            .unwrap();
    }
    // And on a sample queue (the serving side counts-but-skips).
    let sample_topic = broker.topic(&topics::samples(0)).unwrap();
    sample_topic
        .produce(0, Bytes::from_static(b"\x99 not a sample msg"))
        .unwrap();

    assert!(
        helios.quiesce(SETTLE),
        "corruption must not wedge drain accounting"
    );
    for u in 1..=4u64 {
        let sg = helios.serve(VertexId(u)).unwrap();
        assert_eq!(sg.hops[0].edge_count(), 3, "user {u}");
    }
    helios.shutdown();
}

/// A serving worker can be shut down while the rest of the system runs;
/// its cache stays readable (the paper's serving workers are stateless
/// consumers of their queue — restartable at will).
#[test]
fn serving_worker_shutdown_leaves_cache_readable() {
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(1, 2), one_hop()).unwrap();
    helios.ingest_and_settle(&world(), SETTLE).unwrap();

    // Stop worker 0's threads.
    helios.serving_workers()[0].shutdown();

    // All seeds still serve: workers route by hash, and the stopped
    // worker's cache remains readable.
    for u in 1..=4u64 {
        let sg = helios.serve(VertexId(u)).unwrap();
        assert_eq!(sg.hops[0].edge_count(), 3, "user {u}");
    }
    helios.shutdown();
}

/// The coordinator detects a dead worker via missed heartbeats.
#[test]
fn dead_worker_detected_by_heartbeat() {
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(1, 1), one_hop()).unwrap();
    // Stop the serving worker's polling loops (its beacon goes quiet).
    helios.serving_workers()[0].shutdown();
    std::thread::sleep(Duration::from_millis(120));
    let dead = helios
        .coordinator()
        .dead_workers(Duration::from_millis(100));
    assert!(
        dead.iter().any(|n| n.starts_with("sew0")),
        "stopped serving worker must be reported dead: {dead:?}"
    );
    // Sampling workers still beat.
    assert!(!dead.iter().any(|n| n.starts_with("saw")), "{dead:?}");
    helios.shutdown();
}

/// Restoring a checkpoint into a *different* topology (more serving
/// workers, more sampling threads) is detected via the checkpoint
/// manifest: a `TopologyMismatch` flight event is raised and every
/// subscription is rebuilt from reservoir contents under the fresh
/// routing table, so restored data is re-routed to the workers that now
/// own it instead of being silently stranded on checkpoint-era owners.
#[test]
fn checkpoint_topology_mismatch_rebuilds_and_reroutes() {
    let dir = std::env::temp_dir().join(format!("helios-faults-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut config = HeliosConfig::with_workers(1, 1);
        config.sampling_threads = 2;
        let helios = HeliosDeployment::start(config, one_hop()).unwrap();
        helios.ingest_and_settle(&world(), SETTLE).unwrap();
        helios.checkpoint(&dir).unwrap();
        helios.shutdown();
    }
    // Restart with MORE serving workers and MORE threads than were
    // checkpointed.
    let mut config = HeliosConfig::with_workers(1, 2);
    config.sampling_threads = 4;
    let helios = HeliosDeployment::start_from_checkpoint(config, one_hop(), &dir).unwrap();
    // The mismatch was recorded: checkpointed 1 serving worker, now 2.
    let mismatches: Vec<_> = helios
        .flight_recorder()
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::TopologyMismatch)
        .collect();
    assert_eq!(mismatches.len(), 1, "one TopologyMismatch event");
    assert_eq!(mismatches[0].a, 1, "checkpointed serving workers");
    assert_eq!(mismatches[0].b, 2, "configured serving workers");
    // The rebuild republished every restored reservoir to its owner under
    // the new table; wait for the pushes to land.
    assert!(helios.quiesce(SETTLE), "rebuild pushes drain");
    // Restored seeds serve their checkpointed neighbors from whichever
    // worker the router now assigns them to — no stranded data.
    for u in 1..=4u64 {
        let seed = VertexId(u);
        assert_eq!(
            helios.serving_worker_for(seed).id(),
            helios.router().owner_of(seed),
            "front-end and router agree on the owner of seed {u}"
        );
        let sg = helios.serve(seed).unwrap();
        assert_eq!(
            sg.hops[0].flat().count(),
            3,
            "seed {u} serves its checkpointed hop-0 samples"
        );
    }
    // Fresh ingestion proceeds normally.
    helios
        .ingest_and_settle(
            &[GraphUpdate::Edge(EdgeUpdate {
                etype: CLICK,
                src_type: USER,
                src: VertexId(1),
                dst_type: ITEM,
                dst: VertexId(999),
                ts: Timestamp(10_000),
                weight: 1.0,
            })],
            SETTLE,
        )
        .unwrap();
    let sg = helios.serve(VertexId(1)).unwrap();
    assert!(sg.hops[0].flat().any(|v| v == VertexId(999)));
    helios.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
