//! Always-on tail-sampled tracing, end to end: per-stage latency
//! attribution on the serve and update paths, tail retention of slow
//! traces, the `/traces` ops endpoint, and exemplars on `/metrics`.
//!
//! Tracing state (enable flag, sample rate, span journals) is process
//! global, so this file keeps everything in one sequential test.

use helios_core::{HeliosConfig, HeliosDeployment};
use helios_query::{KHopQuery, SamplingStrategy};
use helios_types::{
    EdgeType, EdgeUpdate, GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate,
};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const USER: VertexType = VertexType(0);
const ITEM: VertexType = VertexType(1);
const CLICK: EdgeType = EdgeType(0);
const SETTLE: Duration = Duration::from_secs(20);

fn world(users: u64, items_per_user: u64) -> Vec<GraphUpdate> {
    let mut updates = Vec::new();
    let mut ts = 0u64;
    for u in 1..=users {
        ts += 1;
        updates.push(GraphUpdate::Vertex(VertexUpdate {
            vtype: USER,
            id: VertexId(u),
            feature: vec![u as f32, 1.0],
            ts: Timestamp(ts),
        }));
    }
    for i in 1000..(1000 + users * items_per_user) {
        ts += 1;
        updates.push(GraphUpdate::Vertex(VertexUpdate {
            vtype: ITEM,
            id: VertexId(i),
            feature: vec![i as f32, 2.0],
            ts: Timestamp(ts),
        }));
    }
    for u in 1..=users {
        for k in 0..items_per_user {
            ts += 1;
            let item = 1000 + ((u - 1) * items_per_user + k) % (users * items_per_user);
            updates.push(GraphUpdate::Edge(EdgeUpdate {
                etype: CLICK,
                src_type: USER,
                src: VertexId(u),
                dst_type: ITEM,
                dst: VertexId(item),
                ts: Timestamp(ts),
                weight: 1.0,
            }));
        }
    }
    updates
}

fn query() -> KHopQuery {
    KHopQuery::builder(USER)
        .hop(CLICK, ITEM, 3, SamplingStrategy::TopK)
        .build()
        .unwrap()
}

/// Minimal HTTP/1.0 GET against the embedded ops server.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect ops server");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: helios\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let mut parts = raw.splitn(2, "\r\n\r\n");
    let head = parts.next().unwrap_or_default().to_string();
    let body = parts.next().unwrap_or_default().to_string();
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body)
}

#[test]
fn tail_sampled_tracing_attributes_every_stage() {
    let mut config = HeliosConfig::with_workers(2, 2);
    // Every serve is "slow" against a 1 ns threshold, so retention is
    // deterministic — no timing games needed to induce a slow request.
    config.trace_slow_threshold = Duration::from_nanos(1);
    config.trace_sample = 1.0;
    config.retained_traces = 64;
    config.ops_addr = Some("127.0.0.1:0".into());
    config.stats_interval = Some(Duration::from_millis(25));
    let helios = HeliosDeployment::start(config, query()).unwrap();

    helios_telemetry::set_tracing(true);
    helios.ingest_and_settle(&world(8, 4), SETTLE).unwrap();
    for _ in 0..25 {
        for u in 1..=8u64 {
            let _ = helios.serve(VertexId(u)).unwrap();
        }
    }
    helios_telemetry::set_tracing(false);

    // --- Per-stage histograms exist on the serve and update paths. ----
    let snap = helios.telemetry_snapshot();
    let stage = snap
        .histogram_total("serving.stage_latency")
        .expect("stage histograms");
    let total = snap
        .histogram_total("serving.latency")
        .expect("end-to-end histogram");
    assert!(total.count >= 200, "200 serves");
    assert_eq!(
        stage.count,
        4 * total.count,
        "four stages per serve: cache_lookup, hop_expand, feature_gather, encode"
    );
    // The stage decomposition accounts for the end-to-end time: stage
    // sums may only miss loop scaffolding between the stage clocks
    // (acceptance bound: within 10%).
    let ratio = stage.sum as f64 / total.sum.max(1) as f64;
    assert!(
        (0.9..=1.02).contains(&ratio),
        "stage sums ≈ end-to-end sum, got ratio {ratio:.3} ({} vs {})",
        stage.sum,
        total.sum
    );
    for h in [
        "router.route_latency",
        "serving.cache_apply_latency",
        "sampler.apply_latency",
        "sampler.propagate_latency",
    ] {
        let s = snap
            .histogram_total(h)
            .unwrap_or_else(|| panic!("{h} registered"));
        assert!(s.count > 0, "{h} recorded ({s:?})");
    }
    // mq dwell from the wire-level produced_at stamp, on both consumers.
    let dwell = snap.histogram_total("mq.dwell").expect("mq.dwell");
    assert!(dwell.count > 0, "dwell recorded");
    // apply + propagate = the sampler's total busy split: neither side
    // exceeds the updates processed count.
    let apply = snap.histogram_total("sampler.apply_latency").unwrap();
    assert_eq!(
        apply.count,
        snap.counter_total("sampler.updates_processed"),
        "one apply observation per update"
    );

    // --- Tail retention: slow serves are kept with their stage spans. --
    let retained = helios.retained_traces();
    retained.sweep();
    assert!(!retained.is_empty(), "slow serves retained");
    assert!(retained.interesting() > 0);
    let summary = retained
        .list()
        .into_iter()
        .find(|s| s.root_name == "router.serve" && s.reasons.contains(&"slow"))
        .expect("a retained slow serve");
    let spans = retained.get(summary.trace).expect("trace fetchable");
    let root = spans.iter().find(|s| s.parent == 0).expect("root span");
    let root_dur = root.end_ns - root.start_ns;
    let stage_sum: u64 = spans
        .iter()
        .filter(|s| {
            matches!(
                s.name,
                "serving.cache_lookup"
                    | "serving.hop_expand"
                    | "serving.feature_gather"
                    | "serving.encode"
            )
        })
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    assert!(stage_sum > 0, "stage spans present: {spans:?}");
    assert!(
        stage_sum <= root_dur,
        "stages nest inside the root ({stage_sum} vs {root_dur})"
    );

    // --- `/traces` ops endpoint: list, fetch, chrome export. -----------
    let addr = helios.ops_addr().expect("ops server bound");
    let (status, body) = http_get(addr, "/traces");
    assert!(status.contains("200"), "{status}");
    assert!(
        body.contains(&format!("\"trace\":{}", summary.trace)),
        "{body}"
    );
    assert!(body.contains("\"reasons\":[\"slow\"]"), "{body}");
    let (status, body) = http_get(addr, &format!("/traces?id={}", summary.trace));
    assert!(status.contains("200"), "{status}");
    for stage_name in ["serving.cache_lookup", "serving.hop_expand"] {
        assert!(body.contains(stage_name), "{stage_name} in trace: {body}");
    }
    let (status, body) = http_get(addr, &format!("/traces?id={}&format=chrome", summary.trace));
    assert!(status.contains("200"), "{status}");
    assert!(body.starts_with('[') && body.trim_end().ends_with(']'));

    // --- `/metrics`: histogram buckets carry trace-id exemplars. -------
    let (status, metrics) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let exemplar_line = metrics
        .lines()
        .find(|l| l.starts_with("serving_latency_bucket{") && l.contains("trace_id"))
        .expect("an exemplared serve bucket");
    assert!(
        exemplar_line.contains(" # {trace_id=\""),
        "OpenMetrics exemplar syntax: {exemplar_line}"
    );
    assert!(
        metrics
            .lines()
            .any(|l| l.starts_with("serving_ingestion_latency_bucket{") && l.contains("trace_id")),
        "update path exemplars too"
    );

    // --- Reporter tick folded dwell percentiles into gauges. -----------
    std::thread::sleep(Duration::from_millis(120));
    let snap = helios.telemetry_snapshot();
    assert!(
        snap.gauge_total("mq.dwell_p99_ns") >= snap.gauge_total("mq.dwell_p50_ns"),
        "dwell percentile gauges populated by the stats reporter"
    );
    assert!(snap.gauge_total("mq.dwell_p99_ns") > 0);

    // --- Head sampling: rate 0 records nothing new. --------------------
    helios_telemetry::set_tracing(true);
    helios_telemetry::set_trace_sample_rate(0.0);
    let cursor = helios_telemetry::current_span_cursor();
    for u in 1..=8u64 {
        let _ = helios.serve(VertexId(u)).unwrap();
    }
    let (spans, _) = helios_telemetry::read_spans_since(cursor);
    assert!(
        spans.is_empty(),
        "sample rate 0 must record no spans: {spans:?}"
    );
    helios_telemetry::set_trace_sample_rate(1.0);
    helios_telemetry::set_tracing(false);

    helios.shutdown();
}
