//! Multi-process smoke: gateway + two serving workers + one sampling
//! worker as real OS processes, driven over loopback TCP through the
//! client SDK. Ingests a small dataset, checks 64 seeds' replies byte for
//! byte against an in-process `HeliosDeployment` fed the same events,
//! serves 1k requests, checks every worker's ops plane (memory ledger,
//! health probes, profiler), then kills a serving worker and asserts the
//! gateway degrades by shedding/erroring promptly — never by hanging —
//! and that /healthz turns 503 naming the dead worker.
//!
//! Under `cargo test` the binary comes from `CARGO_BIN_EXE_helios`; the
//! raw-rustc harness sets `HELIOS_BIN` instead.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use helios_core::{HeliosConfig, HeliosDeployment, Watermarks};
use helios_datagen::Preset;
use helios_net::Client;
use helios_query::SamplingStrategy;
use helios_types::VertexId;

const PRESET: &str = "inter";
const SCALE: &str = "0.004";
const SAMPLING_WORKERS: usize = 1;
const SERVING_WORKERS: usize = 2;

fn helios_bin() -> String {
    option_env!("CARGO_BIN_EXE_helios")
        .map(str::to_string)
        .or_else(|| std::env::var("HELIOS_BIN").ok())
        .expect("neither CARGO_BIN_EXE_helios nor HELIOS_BIN is set")
}

struct Role {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
    ops: Option<String>,
}

fn spawn_role(mut args: Vec<String>) -> Role {
    for flag in [
        "--preset",
        PRESET,
        "--scale",
        SCALE,
        "--sampling-workers",
        &SAMPLING_WORKERS.to_string(),
        "--serving-workers",
        &SERVING_WORKERS.to_string(),
    ] {
        args.push(flag.to_string());
    }
    let mut child = Command::new(helios_bin())
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn helios child");
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("stdout piped");
    let mut addr = None;
    let mut ops = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("child stdout");
        if let Some(o) = line.strip_prefix("HELIOS_NET_OPS ") {
            ops = Some(o.trim().to_string());
        } else if let Some(a) = line.strip_prefix("HELIOS_NET_LISTEN ") {
            addr = Some(a.trim().to_string());
            break;
        }
    }
    Role {
        child,
        stdin,
        addr: addr.expect("child announced no listen address"),
        ops,
    }
}

fn stop_role(mut role: Role) {
    drop(role.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(15);
    while role.child.try_wait().map(|s| s.is_none()).unwrap_or(false) {
        if Instant::now() > deadline {
            let _ = role.child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = role.child.wait();
}

fn http_get(addr: &str, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

/// `mem.bytes{component=<component>}` summed over a `/metrics` body, or
/// `None` when the component is not exported.
fn mem_bytes(metrics: &str, component: &str) -> Option<f64> {
    let label = format!("component=\"{component}\"");
    let values: Vec<f64> = metrics
        .lines()
        .filter(|l| l.starts_with("mem_bytes{") && l.contains(&label))
        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
        .collect();
    (!values.is_empty()).then(|| values.iter().sum())
}

/// The components a `/healthz` body names.
fn probed(healthz: &str) -> Vec<String> {
    healthz
        .split("\"component\":\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn multiprocess_deployment_serves_and_sheds_on_worker_death() {
    let overall = Instant::now();
    // Topology: two serving workers, one sampling worker, one gateway;
    // every role runs its ops plane on an ephemeral port.
    let ops = || ["--ops-addr".to_string(), "127.0.0.1:0".to_string()];
    let serve_worker = |sew: &str| {
        let mut args = vec!["serve-worker".to_string(), "--sew".into(), sew.into()];
        args.extend(ops());
        spawn_role(args)
    };
    let worker0 = serve_worker("0");
    let worker1 = serve_worker("1");
    let mut args = vec![
        "sampling-worker".to_string(),
        "--serve-workers".into(),
        format!("{},{}", worker0.addr, worker1.addr),
    ];
    args.extend(ops());
    let sampling = spawn_role(args);
    let gateway = spawn_role(vec![
        "gateway".into(),
        "--workers".into(),
        format!("{},{}", worker0.addr, worker1.addr),
        "--sampling".into(),
        sampling.addr.clone(),
        "--ops-addr".into(),
        "127.0.0.1:0".into(),
    ]);

    // Ingest the same dataset every process derives its query from — and
    // the same events, in the same order, into an in-process reference
    // with the same config and query.
    let dataset = Preset::Inter.dataset(SCALE.parse().unwrap());
    let events: Vec<_> = dataset.events().collect();
    let client = Client::connect(&gateway.addr);
    for batch in events.chunks(512) {
        client.ingest(batch.to_vec()).expect("ingest via gateway");
    }
    let reference = HeliosDeployment::start(
        HeliosConfig::with_workers(SAMPLING_WORKERS, SERVING_WORKERS),
        dataset.table2_query(SamplingStrategy::Random, false),
    )
    .expect("in-process reference");
    reference
        .ingest_and_settle(&events, Duration::from_secs(120))
        .expect("reference quiesces");

    // Drain: the sampling host's and each serve host's `StatsOk` joined
    // into one drain equation, drained on two identical polls in a row.
    let sampling_client = Client::connect(&sampling.addr);
    let worker_clients = [
        Client::connect(&worker0.addr),
        Client::connect(&worker1.addr),
    ];
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut last: Option<Watermarks> = None;
    loop {
        assert!(Instant::now() < deadline, "pipeline did not drain in 120s");
        let stats = sampling_client.stats().expect("sampling stats");
        let workers: Vec<_> = worker_clients
            .iter()
            .map(|wc| wc.stats().expect("serve worker stats"))
            .collect();
        let marks = Watermarks::from_stats(&stats, &workers);
        if marks.drained() && last.as_ref() == Some(&marks) {
            break;
        }
        last = Some(marks);
        std::thread::sleep(Duration::from_millis(100));
    }

    // Byte identity: seeds served over TCP through the gateway reproduce
    // the in-process reply exactly — or fail on both sides.
    let (lo, hi) = dataset.id_range(dataset.seed_population());
    let seeds: Vec<VertexId> = (lo..hi).map(VertexId).collect();
    let mut want = Vec::new();
    let mut identical = 0;
    for i in 0..64usize {
        let seed = seeds[(i * 31) % seeds.len()];
        match (client.serve(seed), reference.serve_encoded(seed, &mut want)) {
            (Ok(got), Ok(())) => {
                assert!(
                    got[..] == want[..],
                    "seed {seed:?}: TCP reply ({} bytes) differs from the in-process one ({} \
                     bytes)",
                    got.len(),
                    want.len()
                );
                identical += 1;
            }
            (Err(_), Err(_)) => {}
            (got, inproc) => panic!(
                "seed {seed:?}: in-process {} but TCP {}",
                if inproc.is_ok() { "served" } else { "failed" },
                if got.is_ok() { "served" } else { "failed" },
            ),
        }
    }
    assert!(identical > 0, "no seed served on either side");
    reference.shutdown();

    // Healthy deployment: 1k serves through the SDK, all successful.
    for i in 0..1000usize {
        let seed = seeds[(i * 31) % seeds.len()];
        client.serve(seed).expect("serve over TCP");
    }
    let healthz = http_get(gateway.ops.as_ref().unwrap(), "/healthz");
    assert!(
        healthz.starts_with("HTTP/1.1 200"),
        "healthy deployment reported: {}",
        healthz.lines().next().unwrap_or("")
    );

    // Every serve worker exports its memory ledger — caches, the serving
    // threads' scratch and its local sample queue — once a stats tick has
    // run since the serves above. The pipeline has drained, so the sample
    // queue's updaters have passed every record and its log holds none.
    for worker in [&worker0, &worker1] {
        let ops = worker
            .ops
            .as_ref()
            .expect("serve worker announced its ops address");
        let deadline = Instant::now() + Duration::from_secs(10);
        let metrics = loop {
            let metrics = http_get(ops, "/metrics");
            let ready = mem_bytes(&metrics, "serve_scratch").is_some_and(|b| b > 0.0)
                && mem_bytes(&metrics, "mq_log") == Some(0.0);
            if ready || Instant::now() > deadline {
                break metrics;
            }
            std::thread::sleep(Duration::from_millis(100));
        };
        for component in [
            "sample_table",
            "feature_table",
            "block_cache",
            "serve_scratch",
            "mq_log",
        ] {
            assert!(
                mem_bytes(&metrics, component).is_some(),
                "serve worker at {ops} exports no mem.bytes for {component}"
            );
        }
        assert!(
            mem_bytes(&metrics, "serve_scratch").unwrap() > 0.0,
            "serve worker at {ops}: mem.bytes{{component=serve_scratch}} is 0"
        );
        let log = mem_bytes(&metrics, "mq_log").unwrap();
        assert_eq!(
            log, 0.0,
            "serve worker at {ops}: mem.bytes{{component=mq_log}} is {log} after the drain"
        );
        // Which probes run, not whether they pass: the suite also runs
        // under a deliberately tiny memory budget.
        let components = probed(&http_get(ops, "/healthz"));
        for probe in ["memory", "kvstore", "mq"] {
            assert!(
                components.iter().any(|c| c == probe),
                "serve worker /healthz lacks the {probe} probe: {components:?}"
            );
        }
    }
    let components = probed(&http_get(sampling.ops.as_ref().unwrap(), "/healthz"));
    for probe in ["memory", "mq", "sampler"] {
        assert!(
            components.iter().any(|c| c == probe),
            "sampling worker /healthz lacks the {probe} probe: {components:?}"
        );
    }

    // A serve worker's profile, taken while a client streams serves,
    // shows the serve stages on its connection threads.
    let streaming = AtomicBool::new(true);
    let profile = std::thread::scope(|s| {
        s.spawn(|| {
            let mut i = 0usize;
            while streaming.load(Ordering::Relaxed) {
                let _ = client.serve(seeds[(i * 31) % seeds.len()]);
                i += 1;
            }
        });
        let profile = http_get(worker0.ops.as_ref().unwrap(), "/profile?seconds=1");
        streaming.store(false, Ordering::Relaxed);
        profile
    });
    assert!(
        profile
            .lines()
            .any(|l| l.starts_with("net-conn-") && l.contains(";serve")),
        "no serve stage on a connection thread in the profile:\n{profile}"
    );

    // Kill worker 0 the hard way and keep serving: every request must
    // complete promptly — served by worker 1 or failed explicitly — and
    // /healthz must flip to 503 naming the dead worker.
    let mut dead = worker0;
    dead.child.kill().expect("kill worker 0");
    let _ = dead.child.wait();
    let mut errors = 0usize;
    let mut served = 0usize;
    let t0 = Instant::now();
    for i in 0..200usize {
        let seed = seeds[(i * 31) % seeds.len()];
        match client.serve(seed) {
            Ok(_) => served += 1,
            Err(_) => errors += 1,
        }
    }
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "serves against a half-dead deployment took {:?} — requests are hanging",
        t0.elapsed()
    );
    assert!(errors > 0, "killing a worker produced no visible errors");
    assert!(served > 0, "the surviving worker served nothing");

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut healthz = String::new();
    while Instant::now() < deadline {
        healthz = http_get(gateway.ops.as_ref().unwrap(), "/healthz");
        if healthz.starts_with("HTTP/1.1 503") {
            break;
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    assert!(
        healthz.starts_with("HTTP/1.1 503"),
        "healthz never went 503 after worker death: {}",
        healthz.lines().next().unwrap_or("")
    );
    assert!(
        healthz.contains("serve-worker-0"),
        "dead worker id missing from healthz: {healthz}"
    );

    stop_role(gateway);
    stop_role(sampling);
    stop_role(worker1);
    assert!(
        overall.elapsed() < Duration::from_secs(300),
        "smoke exceeded its runtime bound"
    );
}
