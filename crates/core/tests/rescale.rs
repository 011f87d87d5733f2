//! Live elastic-membership tests: scale the serving fleet out and back in
//! while updates and queries are flowing, and prove nothing was dropped —
//! zero serve errors mid-handoff, and (after a quiesce) byte-identical
//! served subgraphs to a deployment that never rescaled. Sampler shard
//! RNGs are seeded from `(worker, shard)` only, so two deployments fed
//! the same stream hold identical reservoirs regardless of how the
//! serving side was resized along the way.

use helios_core::{HeliosConfig, HeliosDeployment, ScalePolicy, ScaleSignals};
use helios_query::{KHopQuery, SampledSubgraph, SamplingStrategy};
use helios_telemetry::EventKind;
use helios_types::{
    EdgeType, EdgeUpdate, GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

const USER: VertexType = VertexType(0);
const ITEM: VertexType = VertexType(1);
const CLICK: EdgeType = EdgeType(0);
const COP: EdgeType = EdgeType(1);
const SETTLE: Duration = Duration::from_secs(60);
const USERS: u64 = 24;

fn vertex(id: u64, vt: VertexType, ts: u64) -> GraphUpdate {
    GraphUpdate::Vertex(VertexUpdate {
        vtype: vt,
        id: VertexId(id),
        feature: vec![id as f32, (id % 7) as f32],
        ts: Timestamp(ts),
    })
}

fn edge(
    etype: EdgeType,
    st: VertexType,
    src: u64,
    dt: VertexType,
    dst: u64,
    ts: u64,
) -> GraphUpdate {
    GraphUpdate::Edge(EdgeUpdate {
        etype,
        src_type: st,
        src: VertexId(src),
        dst_type: dt,
        dst: VertexId(dst),
        ts: Timestamp(ts),
        weight: 1.0 + (src % 5) as f32,
    })
}

fn query() -> KHopQuery {
    // Random at hop 0 on purpose: it consumes the sampler shard RNG, so
    // reference equality below also proves rescales never touch it.
    KHopQuery::builder(USER)
        .hop(CLICK, ITEM, 2, SamplingStrategy::Random)
        .hop(COP, ITEM, 2, SamplingStrategy::TopK)
        .build()
        .unwrap()
}

/// Deterministic churny workload in `segments` chunks: every user keeps
/// clicking a rotating window of items (constant reservoir replacement),
/// items keep co-purchasing, features keep updating.
fn workload(segments: usize) -> Vec<Vec<GraphUpdate>> {
    let mut ts = 0u64;
    let mut out = Vec::new();
    let mut setup = Vec::new();
    for u in 1..=USERS {
        ts += 1;
        setup.push(vertex(u, USER, ts));
    }
    for i in 100..140u64 {
        ts += 1;
        setup.push(vertex(i, ITEM, ts));
    }
    out.push(setup);
    for seg in 0..segments.saturating_sub(1) as u64 {
        let mut chunk = Vec::new();
        for round in 0..6u64 {
            for u in 1..=USERS {
                ts += 1;
                let item = 100 + (u * 3 + seg * 11 + round) % 40;
                chunk.push(edge(CLICK, USER, u, ITEM, item, ts));
            }
            for i in 100..140u64 {
                if (i + seg + round) % 4 == 0 {
                    ts += 1;
                    let j = 100 + (i * 5 + seg + round) % 40;
                    chunk.push(edge(COP, ITEM, i, ITEM, j, ts));
                }
            }
            for i in 100..140u64 {
                if (i + round) % 9 == 0 {
                    ts += 1;
                    chunk.push(vertex(i, ITEM, ts));
                }
            }
        }
        out.push(chunk);
    }
    out
}

type Normalized = (
    Vec<(u64, Vec<u64>)>,
    Vec<(u64, Vec<u64>)>,
    BTreeMap<u64, Vec<u32>>,
);

/// Order-independent form of a served subgraph, features as exact bits.
fn normalize(sg: &SampledSubgraph) -> Normalized {
    let mut hops: Vec<Vec<(u64, Vec<u64>)>> = sg
        .hops
        .iter()
        .map(|h| {
            let mut groups: Vec<(u64, Vec<u64>)> = h
                .groups
                .iter()
                .map(|(p, cs)| {
                    let mut cs: Vec<u64> = cs.iter().map(|v| v.raw()).collect();
                    cs.sort_unstable();
                    (p.raw(), cs)
                })
                .collect();
            groups.sort();
            groups
        })
        .collect();
    let feats: BTreeMap<u64, Vec<u32>> = sg
        .features
        .iter()
        .map(|(v, f)| (v.raw(), f.iter().map(|x| x.to_bits()).collect()))
        .collect();
    assert_eq!(hops.len(), 2);
    let h1 = hops.pop().unwrap();
    let h0 = hops.pop().unwrap();
    (h0, h1, feats)
}

fn serve_all(helios: &HeliosDeployment) -> Vec<Normalized> {
    (1..=USERS)
        .map(|u| normalize(&helios.serve(VertexId(u)).unwrap()))
        .collect()
}

/// A deployment that never rescaled, fed the same stream — the ground
/// truth the elastic runs must converge to.
fn reference(chunks: &[Vec<GraphUpdate>]) -> Vec<Normalized> {
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 2), query()).unwrap();
    for c in chunks {
        helios.ingest_batch(c).unwrap();
    }
    assert!(helios.quiesce(SETTLE));
    let served = serve_all(&helios);
    helios.shutdown();
    served
}

/// The headline acceptance test: 2 → 4 → 3 mid-stream, with a prober
/// hammering serves the whole time. Zero serve errors, and the final
/// state is indistinguishable from never having rescaled.
#[test]
fn live_rescale_preserves_served_samples() {
    let chunks = workload(4);
    let expect = reference(&chunks);

    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 2), query()).unwrap();
    helios.ingest_batch(&chunks[0]).unwrap();
    helios.ingest_batch(&chunks[1]).unwrap();

    let stop = AtomicBool::new(false);
    let errors = AtomicU64::new(0);
    let probes = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let u = 1 + i % USERS;
                if helios.serve(VertexId(u)).is_err() {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                probes.fetch_add(1, Ordering::Relaxed);
                i += 1;
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        // Keep updates flowing while the first handoff runs.
        s.spawn(|| helios.ingest_batch(&chunks[2]).unwrap());
        assert_eq!(helios.scale_to(4).unwrap(), 1);
        assert_eq!(helios.serving_workers().len(), 4);
        s.spawn(|| helios.ingest_batch(&chunks[3]).unwrap());
        assert_eq!(helios.scale_to(3).unwrap(), 2);
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "serve errors during handoff ({} probes)",
        probes.load(Ordering::Relaxed)
    );
    assert!(probes.load(Ordering::Relaxed) > 0);

    assert!(helios.quiesce(SETTLE));
    assert_eq!(helios.route_epoch(), 2);
    assert_eq!(helios.router().table().workers(), 3);
    assert_eq!(helios.serving_workers().len(), 3);

    let got = serve_all(&helios);
    for (u, (g, e)) in got.iter().zip(expect.iter()).enumerate() {
        assert_eq!(
            g,
            e,
            "user {} diverged from never-rescaled reference",
            u + 1
        );
    }

    // The handoff left its audit trail in the flight recorder.
    let events = helios.flight_recorder().events();
    let bumps: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::EpochBump)
        .map(|e| e.a)
        .collect();
    assert_eq!(bumps, vec![1, 2], "{events:?}");
    let started = events
        .iter()
        .filter(|e| e.kind == EventKind::HandoffStarted)
        .count();
    let completed = events
        .iter()
        .filter(|e| e.kind == EventKind::HandoffCompleted)
        .count();
    assert_eq!((started, completed), (2, 2));
    helios.shutdown();
}

/// Scale-out → scale-in cycles under continuous ingest; `HELIOS_RESCALE_SOAK`
/// raises the cycle count (CI runs the reduced default). Ends back at the
/// starting size and must be cache-equivalent to the never-rescaled run.
#[test]
fn rescale_soak_cycles_stay_cache_equivalent() {
    let cycles: usize = std::env::var("HELIOS_RESCALE_SOAK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let chunks = workload(2 * cycles + 1);
    let expect = reference(&chunks);

    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 2), query()).unwrap();
    helios.ingest_batch(&chunks[0]).unwrap();
    let mut epoch = 0;
    for cycle in 0..cycles {
        std::thread::scope(|s| {
            s.spawn(|| helios.ingest_batch(&chunks[1 + 2 * cycle]).unwrap());
            epoch = helios.scale_to(4).unwrap();
        });
        std::thread::scope(|s| {
            s.spawn(|| helios.ingest_batch(&chunks[2 + 2 * cycle]).unwrap());
            epoch = helios.scale_to(2).unwrap();
        });
    }
    assert_eq!(epoch, 2 * cycles as u64);
    assert!(helios.quiesce(SETTLE));
    assert_eq!(serve_all(&helios), expect);

    // Scale-in tore down every departed worker's subscriptions: the
    // samplers hold refcounts only for serving workers 0 and 1.
    for w in helios.sampling_workers() {
        for snap in w.inspect().unwrap() {
            for subs in snap.sample_subs.iter().chain([&snap.feat_subs]) {
                for (v, by_sew) in subs {
                    for sew in by_sew.keys() {
                        assert!(*sew < 2, "stale sub for {v:?} on departed sew{sew}");
                    }
                }
            }
        }
    }
    helios.shutdown();
}

/// A serving worker re-created by a later scale-out inherits its
/// predecessor's `serving.applied` counter but reads a fresh sample
/// queue. The drain equation counts only what the new worker consumed,
/// so the deployment still quiesces — and serves what a never-rescaled
/// deployment does.
#[test]
fn a_worker_recreated_by_rescale_still_drains() {
    let chunks = workload(3);
    let expect = reference(&chunks);
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 2), query()).unwrap();
    helios.ingest_batch(&chunks[0]).unwrap();
    helios.scale_to(3).unwrap();
    helios.ingest_batch(&chunks[1]).unwrap();
    assert!(helios.quiesce(SETTLE));
    helios.scale_to(2).unwrap();
    helios.scale_to(3).unwrap();
    helios.ingest_batch(&chunks[2]).unwrap();
    assert!(
        helios.quiesce(SETTLE),
        "the re-created worker never drained"
    );
    assert_eq!(serve_all(&helios), expect);
    helios.shutdown();
}

/// An abandoned handoff must leave no trace: an impossible deadline makes
/// every attempt time out before its prepare watermark, and afterwards
/// routing is untouched, a `HandoffAborted` event carries each attempt's
/// epoch (strictly increasing — abandoned epochs are burned, never
/// reused), serves still succeed, and the Abort broadcasts discharge the
/// charges the abandoned Prepare scans made, so samplers converge back to
/// subscriptions for the original two workers only.
#[test]
fn abandoned_rescale_rolls_back_and_burns_epochs() {
    let mut config = HeliosConfig::with_workers(2, 2);
    // Smallest valid timeout: it has passed by the time `scale_to` waits
    // for the prepare acks, and the deadline is checked first, so the
    // attempt abandons even if every shard has already acked.
    config.rescale_timeout = Duration::from_nanos(1);
    let helios = HeliosDeployment::start(config, query()).unwrap();
    let chunks = workload(2);
    helios.ingest_batch(&chunks[0]).unwrap();
    helios.ingest_batch(&chunks[1]).unwrap();
    assert!(helios.quiesce(SETTLE));

    assert!(helios.scale_to(4).is_err(), "zero deadline must abandon");
    assert!(helios.scale_to(3).is_err(), "retry must abandon too");

    // Routing never moved off the initial table.
    assert_eq!(helios.route_epoch(), 0);
    assert_eq!(helios.router().table().workers(), 2);
    // Every attempt burned its own epoch: 1, then 2 — the retry's
    // watermarks can never be satisfied by the first attempt's scans.
    let aborted: Vec<u64> = helios
        .flight_recorder()
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::HandoffAborted)
        .map(|e| e.a)
        .collect();
    assert_eq!(aborted, vec![1, 2]);
    // Queries are unaffected.
    for u in 1..=USERS {
        helios.serve(VertexId(u)).unwrap();
    }
    // The Abort broadcasts roll the abandoned Prepare charges back:
    // samplers converge to holding subscriptions for workers 0/1 only
    // (the prepared-but-never-committed owners 2/3 are discharged).
    let deadline = std::time::Instant::now() + SETTLE;
    'converge: loop {
        let stale = helios
            .sampling_workers()
            .iter()
            .flat_map(|w| w.inspect().unwrap())
            .any(|snap| {
                snap.sample_subs
                    .iter()
                    .chain([&snap.feat_subs])
                    .flat_map(|subs| subs.values())
                    .any(|by_sew| by_sew.keys().any(|sew| *sew >= 2))
            });
        if !stale {
            break 'converge;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned charges never discharged"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    helios.shutdown();
}

/// Minimal test-side HTTP client (one request per connection).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    let (head, body) = out.split_once("\r\n\r\n").unwrap();
    (head.lines().next().unwrap().to_string(), body.to_string())
}

/// The ops-plane surface: `/membership` reports the live table, `/scale`
/// drives a handoff from an HTTP request, `/vars` exports the epoch.
#[test]
fn scale_endpoint_drives_live_rescale() {
    let mut config = HeliosConfig::with_workers(2, 2);
    config.ops_addr = Some("127.0.0.1:0".into());
    config.stats_interval = Some(Duration::from_millis(50));
    let helios = std::sync::Arc::new(HeliosDeployment::start(config, query()).unwrap());
    helios.register_scale_endpoint();
    let addr = helios.ops_addr().unwrap();

    let chunks = workload(2);
    helios.ingest_batch(&chunks[0]).unwrap();
    helios.ingest_batch(&chunks[1]).unwrap();
    assert!(helios.quiesce(SETTLE));

    let (status, body) = http_get(addr, "/membership");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"epoch\":0"), "{body}");
    assert!(body.contains("\"workers\":2"), "{body}");

    let (status, _) = http_get(addr, "/scale");
    assert!(status.contains("400"), "{status}");
    let (status, body) = http_get(addr, "/scale?target=3");
    assert!(status.contains("202"), "{status} {body}");

    // 202 means "running in the background": poll for the commit.
    let deadline = std::time::Instant::now() + SETTLE;
    while helios.route_epoch() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "scale never committed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(helios.serving_workers().len(), 3);
    let (_, body) = http_get(addr, "/membership");
    assert!(body.contains("\"epoch\":1"), "{body}");
    assert!(body.contains("\"workers\":3"), "{body}");

    // The stats reporter exports the new epoch to /vars.
    let deadline = std::time::Instant::now() + SETTLE;
    loop {
        let (_, vars) = http_get(addr, "/vars");
        if vars.contains("\"membership.epoch\":1") && vars.contains("\"membership.workers\":3") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stats never caught up: {vars}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Serving still answers for every user after the HTTP-driven handoff.
    for u in 1..=USERS {
        helios.serve(VertexId(u)).unwrap();
    }
    // The background scale thread has finished (epoch committed), so the
    // Arc is unique again modulo a tiny race; spin briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut helios = Some(helios);
    loop {
        match std::sync::Arc::try_unwrap(helios.take().unwrap()) {
            Ok(h) => {
                h.shutdown();
                break;
            }
            Err(back) => {
                assert!(std::time::Instant::now() < deadline, "arc still shared");
                helios = Some(back);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// The autoscaler closes the loop: sustained p99 pressure (threshold 0
/// makes any serve traffic qualify) scales out without anyone calling
/// `scale_to` directly.
#[test]
fn autoscaler_scales_out_under_pressure() {
    let helios = std::sync::Arc::new(
        HeliosDeployment::start(HeliosConfig::with_workers(2, 2), query()).unwrap(),
    );
    let chunks = workload(2);
    helios.ingest_batch(&chunks[0]).unwrap();
    helios.ingest_batch(&chunks[1]).unwrap();
    assert!(helios.quiesce(SETTLE));
    // Put real latency samples in the histograms so p99 > 0.
    for u in 1..=USERS {
        helios.serve(VertexId(u)).unwrap();
    }
    let signals: ScaleSignals = helios.scale_signals();
    assert!(signals.serve_p99_ms > 0.0, "{signals:?}");

    let policy = ScalePolicy {
        max_workers: 3,
        out_p99_ms: 0.0, // any observed serve latency counts as pressure
        in_p99_ms: 0.0,  // …and calm is unreachable: never scale back in
        sustain_out: 2,
        cooldown: 2,
        ..Default::default()
    };
    let guard = helios.start_autoscaler(policy, Duration::from_millis(10));
    let deadline = std::time::Instant::now() + SETTLE;
    while helios.route_epoch() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "autoscaler never scaled out"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(helios.router().table().workers(), 3);
    assert_eq!(helios.serving_workers().len(), 3);
    drop(guard);
    let helios = std::sync::Arc::try_unwrap(helios).ok().expect("sole owner");
    helios.shutdown();
}
