//! Metrics-drift check: every instrument a fully-wired deployment
//! exports must be documented in README.md's metrics reference table.
//! Adding a metric without documenting it (or renaming one and leaving
//! the stale row) fails this test — CI runs it so the docs cannot
//! drift from the code.

use helios_core::{FreshnessConfig, HeliosConfig, HeliosDeployment};
use helios_query::{KHopQuery, SamplingStrategy};
use helios_telemetry::{Profiler, SloConfig};
use helios_types::{
    EdgeType, EdgeUpdate, GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate,
};
use std::collections::BTreeSet;
use std::time::Duration;

fn two_hop_query() -> KHopQuery {
    KHopQuery::builder(VertexType(0))
        .hop(EdgeType(0), VertexType(1), 2, SamplingStrategy::Random)
        .build()
        .unwrap()
}

fn read_readme() -> String {
    for candidate in ["README.md", "../README.md", "../../README.md"] {
        if let Ok(text) = std::fs::read_to_string(candidate) {
            return text;
        }
    }
    panic!("README.md not found relative to the test's working directory");
}

#[test]
fn exported_metrics_are_documented_in_readme() {
    let cache_dir = std::env::temp_dir().join(format!("helios-drift-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Wire up every subsystem that registers instruments: hybrid cache,
    // ops server, stats reporter (mem ledger ticks), freshness prober
    // (e2e.* + SLO burn), and a profiler collection (profiling.*).
    let mut config = HeliosConfig::with_workers(2, 1);
    config.ops_addr = Some("127.0.0.1:0".into());
    config.stats_interval = Some(Duration::from_millis(25));
    config.freshness = Some(FreshnessConfig {
        interval: Duration::from_millis(20),
        probe_timeout: Duration::from_secs(5),
        marker_vertex: u64::MAX - 1,
        slo: SloConfig::default(),
    });
    config.cache_dir = Some(cache_dir.clone());
    config.memory_budget_bytes = Some(1 << 30);
    let helios = HeliosDeployment::start(config, two_hop_query()).unwrap();

    let mut updates = Vec::new();
    for u in 1..=64u64 {
        updates.push(GraphUpdate::Vertex(VertexUpdate {
            vtype: VertexType(0),
            id: VertexId(u),
            feature: vec![u as f32],
            ts: Timestamp(u),
        }));
        updates.push(GraphUpdate::Edge(EdgeUpdate {
            etype: EdgeType(0),
            src_type: VertexType(0),
            src: VertexId(u),
            dst_type: VertexType(1),
            dst: VertexId(1000 + u),
            ts: Timestamp(1000 + u),
            weight: 1.0,
        }));
    }
    helios.ingest_batch(&updates).unwrap();
    assert!(helios.quiesce(Duration::from_secs(60)));
    for u in 1..=16u64 {
        let _ = helios.serve(VertexId(u));
    }
    let profiler = Profiler::new(helios.telemetry());
    let _ = profiler.collect_collapsed(Duration::from_millis(50));
    std::thread::sleep(Duration::from_millis(120)); // a few stats ticks

    let snap = helios.telemetry_snapshot();
    let mut names: BTreeSet<String> = BTreeSet::new();
    for key in snap.counters.keys() {
        names.insert(helios_telemetry::registry::instrument_name(key).to_string());
    }
    for key in snap.gauges.keys() {
        names.insert(helios_telemetry::registry::instrument_name(key).to_string());
    }
    for key in snap.histograms.keys() {
        names.insert(helios_telemetry::registry::instrument_name(key).to_string());
    }
    assert!(
        names.len() >= 10,
        "suspiciously few instruments registered: {names:?}"
    );
    assert!(names.contains("mem.bytes"), "mem ledger not exporting");

    let readme = read_readme();
    let undocumented: Vec<&String> = names
        .iter()
        .filter(|name| !readme.contains(&format!("`{name}`")))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metrics exported but missing from README.md's metrics reference table \
         (document them or remove the instrument): {undocumented:?}"
    );

    helios.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
