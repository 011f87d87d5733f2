//! Resource-observability integration tests: the memory ledger tracking
//! reference byte counts across ingest → flush → evict, `/healthz`
//! flipping under sustained budget pressure (and recovering on drain),
//! the accounting surviving a rescale soak, and `/profile` naming the
//! fleet's threads.

use helios_core::{HeliosConfig, HeliosDeployment};
use helios_query::{KHopQuery, SamplingStrategy};
use helios_types::{
    EdgeType, EdgeUpdate, GraphUpdate, PartitionId, Timestamp, VertexId, VertexType, VertexUpdate,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn two_hop_query() -> KHopQuery {
    KHopQuery::builder(VertexType(0))
        .hop(EdgeType(0), VertexType(1), 2, SamplingStrategy::Random)
        .build()
        .unwrap()
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect ops server");
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    let (head, body) = out.split_once("\r\n\r\n").expect("http response head");
    (head.lines().next().unwrap().to_string(), body.to_string())
}

fn small_workload(n_seeds: u64) -> Vec<GraphUpdate> {
    let mut updates = Vec::new();
    for u in 1..=n_seeds {
        updates.push(GraphUpdate::Vertex(VertexUpdate {
            vtype: VertexType(0),
            id: VertexId(u),
            feature: vec![u as f32; 8],
            ts: Timestamp(u),
        }));
        updates.push(GraphUpdate::Edge(EdgeUpdate {
            etype: EdgeType(0),
            src_type: VertexType(0),
            src: VertexId(u),
            dst_type: VertexType(1),
            dst: VertexId(1000 + u % 64),
            ts: Timestamp(1000 + u),
            weight: 1.0,
        }));
    }
    updates
}

fn within_5pct(accounted: i64, reference: i64, what: &str) {
    let diff = (accounted - reference).abs() as f64;
    assert!(
        diff <= 0.05 * (reference.max(1) as f64),
        "{what}: accounted {accounted} vs reference {reference} (>5% off)"
    );
}

/// Sum of the broker's retained log bytes, re-derived from every
/// partition of every topic — the reference the `mq_log` gauge must
/// match.
fn broker_log_bytes(helios: &HeliosDeployment) -> i64 {
    let mut total = 0usize;
    for name in helios.broker().topic_names() {
        let topic = helios.broker().topic(&name).unwrap();
        for p in 0..topic.partition_count() {
            total += topic.partition(PartitionId(p)).unwrap().bytes();
        }
    }
    total as i64
}

/// Acceptance test: `mem.bytes` gauge deltas match independently-derived
/// reference byte counts within 5% across ingest → flush → evict, and
/// the ledger is exported over `/metrics`.
#[test]
fn mem_gauges_match_reference_counts_across_ingest_flush_evict() {
    let cache_dir = std::env::temp_dir().join(format!("helios-mem-acct-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut config = HeliosConfig::with_workers(1, 1);
    config.ops_addr = Some("127.0.0.1:0".into());
    config.stats_interval = None; // exports are driven manually, deterministically
    config.memory_budget_bytes = Some(1 << 30);
    config.cache_dir = Some(cache_dir.clone());
    config.cache_shards = 1;
    config.cache_memtable_budget = 2048; // tiny: ingest forces rotations + flushes
    let helios = HeliosDeployment::start(config, two_hop_query()).unwrap();
    let ops = helios.ops_addr().expect("ops server bound");
    let acct = helios.mem_accountant().clone();

    // Ingest: memtable-backed components rise with the data.
    helios.ingest_batch(&small_workload(300)).unwrap();
    assert!(helios.quiesce(Duration::from_secs(60)));
    acct.export();

    let accounted_tables =
        acct.component_bytes("sample_table") + acct.component_bytes("feature_table");
    let reference_tables: i64 = helios
        .serving_workers()
        .iter()
        .map(|w| {
            let (s, f) = w.cache_stats();
            (s.mem_bytes + f.mem_bytes) as i64
        })
        .sum();
    within_5pct(
        accounted_tables,
        reference_tables,
        "cache tables after ingest",
    );
    within_5pct(
        acct.component_bytes("mq_log"),
        broker_log_bytes(&helios),
        "mq log",
    );
    assert_eq!(
        acct.component_bytes("trace_retention"),
        helios.retained_traces().retained_bytes(),
        "trace retention gauge is the store's own cell"
    );

    // The tiny memtable budget forced flushes during ingest: data moved
    // from memtables into SSTs, and the index granules are accounted.
    assert!(
        acct.component_bytes("sst_index") > 0,
        "flushes happened, SST index bytes accounted"
    );

    // Serve a few queries so the block cache loads granules.
    for u in 1..=20u64 {
        let _ = helios.serve(VertexId(u));
    }
    acct.export();
    assert!(
        acct.component_bytes("block_cache") >= 0,
        "block cache gauge never goes negative"
    );

    // Evict: TTL-expire everything, and let the re-publication it
    // triggers from the sampler shards land. The memtable-backed bytes
    // keep matching the stores' own accounting. (They need not fall: with
    // a 2 KB budget the live memtables hold whatever the last rotation
    // left, often nothing, and the re-published entries land on top.)
    helios.expire_before(Timestamp(u64::MAX - 1)).unwrap();
    assert!(helios.quiesce(Duration::from_secs(60)));
    acct.export();
    let after_evict = acct.component_bytes("sample_table") + acct.component_bytes("feature_table");
    let reference_after: i64 = helios
        .serving_workers()
        .iter()
        .map(|w| {
            let (s, f) = w.cache_stats();
            (s.mem_bytes + f.mem_bytes) as i64
        })
        .sum();
    within_5pct(after_evict, reference_after, "cache tables after evict");

    // The ledger is visible over /metrics with component labels.
    let (status, body) = http_get(ops, "/metrics");
    assert!(status.contains("200"), "{status}");
    for component in [
        "sample_table",
        "feature_table",
        "block_cache",
        "sst_index",
        "serve_scratch",
        "mq_log",
        "trace_retention",
    ] {
        assert!(
            body.contains(&format!("component=\"{component}\"")),
            "/metrics lacks mem.bytes component {component}:\n{body}"
        );
    }
    assert!(body.contains("mem_bytes{"), "mem.bytes exported");
    assert!(
        body.contains("mem_budget_fraction_permille"),
        "budget fraction exported when a budget is set"
    );

    helios.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// `/healthz` flips to 503 after sustained (two-tick) budget pressure
/// and recovers once the ledger drains; the crossing records a
/// `MemPressure` flight event.
#[test]
fn healthz_flips_on_sustained_memory_pressure_and_recovers() {
    let mut config = HeliosConfig::with_workers(1, 1);
    config.ops_addr = Some("127.0.0.1:0".into());
    config.stats_interval = Some(Duration::from_millis(25));
    config.memory_budget_bytes = Some(4 << 20);
    let helios = HeliosDeployment::start(config, two_hop_query()).unwrap();
    let ops = helios.ops_addr().expect("ops server bound");

    helios.ingest_batch(&small_workload(8)).unwrap();
    assert!(helios.quiesce(Duration::from_secs(60)));
    let (status, body) = http_get(ops, "/healthz");
    assert!(
        status.contains("200"),
        "under-budget deployment 503: {body}"
    );

    // Push the ledger over budget through a registered component gauge —
    // the same path every real component uses, sized deterministically.
    let ballast = helios.mem_accountant().register("test_ballast", &[]);
    ballast.add(64 << 20);
    let deadline = Instant::now() + Duration::from_secs(10);
    let (status, body) = loop {
        let (status, body) = http_get(ops, "/healthz");
        if status.contains("503") || Instant::now() > deadline {
            break (status, body);
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        status.contains("503"),
        "sustained pressure never degraded: {body}"
    );
    assert!(
        body.contains("\"component\":\"memory\",\"healthy\":false"),
        "memory probe not the failing one: {body}"
    );
    assert!(
        helios
            .flight_recorder()
            .events()
            .iter()
            .any(|e| e.kind == helios_telemetry::EventKind::MemPressure),
        "budget crossing recorded no MemPressure event"
    );

    // Drain: the ledger falls below budget, the streak resets, health
    // recovers without a restart.
    ballast.sub(64 << 20);
    let deadline = Instant::now() + Duration::from_secs(10);
    let (status, body) = loop {
        let (status, body) = http_get(ops, "/healthz");
        if status.contains("200") || Instant::now() > deadline {
            break (status, body);
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.contains("200"), "drained ledger still 503: {body}");

    helios.shutdown();
}

/// Rescale soak: scale out, push traffic, scale back in — the ledger
/// follows the fleet (joining workers' gauges adopted, departing
/// workers' bytes released) and stays within a generous budget.
#[test]
fn mem_accounting_survives_rescale_soak() {
    let mut config = HeliosConfig::with_workers(2, 1);
    config.stats_interval = None;
    config.memory_budget_bytes = Some(1 << 30);
    let helios = HeliosDeployment::start(config, two_hop_query()).unwrap();
    let acct = helios.mem_accountant().clone();

    helios.ingest_batch(&small_workload(100)).unwrap();
    assert!(helios.quiesce(Duration::from_secs(60)));
    helios.scale_to(3).unwrap();
    helios.ingest_batch(&small_workload(200)).unwrap();
    assert!(helios.quiesce(Duration::from_secs(60)));

    // Scaled-out fleet: every live replica's table gauges are adopted.
    acct.export();
    let live_sum = |helios: &HeliosDeployment| -> i64 {
        helios
            .serving_workers()
            .iter()
            .map(|w| {
                let g = w.mem_gauges();
                g.sample_table.get() + g.feature_table.get()
            })
            .sum()
    };
    let accounted = acct.component_bytes("sample_table") + acct.component_bytes("feature_table");
    assert_eq!(
        accounted,
        live_sum(&helios),
        "scaled-out ledger equals the live fleet's gauges"
    );
    assert!(accounted > 0, "three workers hold data");

    helios.scale_to(1).unwrap();
    assert!(helios.quiesce(Duration::from_secs(60)));
    // Departed workers shut down; their stores drop and release their
    // bytes back out of the ledger (dead entries read 0).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        acct.export();
        let accounted =
            acct.component_bytes("sample_table") + acct.component_bytes("feature_table");
        if accounted == live_sum(&helios) || Instant::now() > deadline {
            assert_eq!(
                accounted,
                live_sum(&helios),
                "scaled-in ledger equals the surviving fleet's gauges"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let tick = acct.export();
    assert!(!tick.over_budget, "soak stayed within budget");
    for c in acct.components() {
        assert!(
            acct.component_bytes(&c) >= 0,
            "component {c} went negative: {}",
            acct.component_bytes(&c)
        );
    }

    helios.shutdown();
}

/// `GET /profile?seconds=1` returns non-empty folded stacks naming at
/// least one cache updater and one kv flusher thread, and bumps the
/// `profiling.samples` counter.
#[test]
fn profile_endpoint_names_updaters_and_flushers() {
    let cache_dir = std::env::temp_dir().join(format!("helios-profile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut config = HeliosConfig::with_workers(1, 1);
    config.ops_addr = Some("127.0.0.1:0".into());
    config.cache_dir = Some(cache_dir.clone());
    config.cache_shards = 1;
    let helios = HeliosDeployment::start(config, two_hop_query()).unwrap();
    let ops = helios.ops_addr().expect("ops server bound");

    helios.ingest_batch(&small_workload(32)).unwrap();
    assert!(helios.quiesce(Duration::from_secs(60)));

    let (status, body) = http_get(ops, "/profile?seconds=1");
    assert!(status.contains("200"), "{status}: {body}");
    assert!(!body.trim().is_empty(), "collapsed output empty");
    assert!(
        body.lines().any(|l| l.contains("-updater-")),
        "no updater thread in profile:\n{body}"
    );
    assert!(
        body.lines().any(|l| l.contains("helios-kv-flush")),
        "no kv flusher thread in profile:\n{body}"
    );
    // Every folded line is "stack count".
    for line in body.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        count.parse::<u64>().expect("count is a number");
    }
    let snap = helios.telemetry_snapshot();
    assert!(
        snap.counter_total("profiling.samples") > 0,
        "collection bumped profiling.samples"
    );

    helios.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
