//! Network-plane integration tests over loopback: transport equivalence
//! (in-process vs TCP), client pipelining under a bounded in-flight
//! budget, corrupt-frame handling, gateway admission control, the
//! gateway's worker-aware /healthz aggregation, serve-scratch accounting
//! on a serve worker's connection threads, and socket release when a
//! client is dropped.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use helios_core::HeliosConfig;
use helios_net::{
    Client, Gateway, GatewayConfig, InProcTransport, NetMetrics, NetServer, NetService, Payload,
    ServeHost, ServeHostConfig, TcpOptions, TcpTransport, Transport,
};
use helios_query::{KHopQuery, SamplingStrategy};
use helios_telemetry::Registry;
use helios_types::{EdgeType, HeliosError, VertexId, VertexType};

/// A deterministic service: the reply for seed `v` is a function of `v`,
/// so in-process and TCP replies can be compared byte for byte.
struct EchoService {
    delay: Duration,
    served: AtomicU64,
}

impl EchoService {
    fn new(delay: Duration) -> Arc<EchoService> {
        Arc::new(EchoService {
            delay,
            served: AtomicU64::new(0),
        })
    }
}

impl NetService for EchoService {
    fn serve_encoded(&self, seed: VertexId, out: &mut Vec<u8>) -> helios_types::Result<()> {
        if self.delay > Duration::ZERO {
            std::thread::sleep(self.delay);
        }
        if seed.raw() == u64::MAX {
            return Err(HeliosError::NotFound("sentinel seed".into()));
        }
        self.served.fetch_add(1, Ordering::Relaxed);
        out.extend_from_slice(&seed.raw().to_le_bytes());
        out.extend_from_slice(&(seed.raw().wrapping_mul(0x9E37_79B9)).to_le_bytes());
        Ok(())
    }

    fn handle(&self, payload: Payload) -> Payload {
        match payload {
            Payload::HealthReq => Payload::HealthOk {
                healthy: true,
                detail: "echo".into(),
            },
            Payload::StatsReq => Payload::StatsOk {
                entries: vec![("served".into(), self.served.load(Ordering::Relaxed))],
            },
            other => Payload::Error {
                code: helios_net::ErrCode::NotFound,
                message: format!("echo does not handle {}", other.kind_name()),
            },
        }
    }
}

#[test]
fn tcp_replies_are_byte_identical_to_in_process() {
    let service = EchoService::new(Duration::ZERO);
    let server =
        NetServer::start("127.0.0.1:0", service.clone(), NetMetrics::disabled(), None).unwrap();
    let inproc = InProcTransport::new(service);
    let tcp = TcpTransport::connect(&server.addr().to_string());
    for raw in [0u64, 1, 7, 1 << 40, u64::MAX - 1] {
        let seed = VertexId(raw);
        let a = match inproc.call(Payload::Serve { seed }).unwrap() {
            Payload::ServeOk { bytes } => bytes,
            other => panic!("unexpected {}", other.kind_name()),
        };
        let b = match tcp.call(Payload::Serve { seed }).unwrap() {
            Payload::ServeOk { bytes } => bytes,
            other => panic!("unexpected {}", other.kind_name()),
        };
        assert_eq!(a, b, "seed {raw}: transports disagree");
    }
    // Errors also cross the wire as errors, not as mangled successes.
    let seed = VertexId(u64::MAX);
    assert!(inproc.call(Payload::Serve { seed }).is_err());
    assert!(tcp.call(Payload::Serve { seed }).is_err());
    server.shutdown();
}

#[test]
fn client_pipelines_within_a_bounded_inflight_budget() {
    let service = EchoService::new(Duration::from_millis(2));
    let server =
        NetServer::start("127.0.0.1:0", service.clone(), NetMetrics::disabled(), None).unwrap();
    let client = Client::with_options(
        &server.addr().to_string(),
        TcpOptions {
            pool: 1,
            inflight: 8,
            ..Default::default()
        },
    );
    // Issue far more requests than the budget; begin_serve blocks when
    // the window is full, so this cannot balloon memory — and every
    // completion must still resolve to the right seed's bytes.
    let completions: Vec<_> = (0..64u64)
        .map(|raw| (raw, client.begin_serve(VertexId(raw)).unwrap()))
        .collect();
    for (raw, completion) in completions {
        let bytes = completion.wait().unwrap();
        assert_eq!(&bytes[..8], &raw.to_le_bytes());
    }
    assert_eq!(service.served.load(Ordering::Relaxed), 64);
    // The typed helpers ride the same pipelined transport.
    assert_eq!(client.health().unwrap().0, true);
    assert_eq!(client.stats().unwrap()[0].1, 64);
    server.shutdown();
}

#[test]
fn corrupt_frames_get_a_clean_codec_error_and_are_counted() {
    let registry = Arc::new(Registry::new());
    let metrics = NetMetrics::new(&registry, "test");
    let service = EchoService::new(Duration::ZERO);
    let server = NetServer::start("127.0.0.1:0", service, metrics, None).unwrap();

    // Hand the server plain garbage: it must reply with a codec error
    // frame (best effort), bump `serving.decode_errors`, and close the
    // connection rather than wedge or panic.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"this is not a helios frame at all!!")
        .unwrap();
    stream.flush().unwrap();
    let mut reply = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let _ = stream.read_to_end(&mut reply); // server closes after the error
    let deadline = Instant::now() + Duration::from_secs(5);
    while registry.snapshot().counter_total("serving.decode_errors") == 0
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        registry.snapshot().counter_total("serving.decode_errors"),
        1,
        "decode error not counted"
    );

    // A well-formed connection still works after the bad one.
    let tcp = TcpTransport::connect(&server.addr().to_string());
    assert!(tcp.call(Payload::HealthReq).is_ok());
    server.shutdown();
}

#[test]
fn gateway_sheds_with_an_explicit_overloaded_error() {
    let service = EchoService::new(Duration::from_millis(50));
    let server = NetServer::start("127.0.0.1:0", service, NetMetrics::disabled(), None).unwrap();
    let gateway = Gateway::start(GatewayConfig {
        workers: vec![server.addr().to_string()],
        admission: 1,
        ..Default::default()
    })
    .unwrap();
    let client = Arc::new(Client::connect(&gateway.addr().to_string()));

    let sheds = AtomicU64::new(0);
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let client = Arc::clone(&client);
            let (sheds, served) = (&sheds, &served);
            scope.spawn(move || {
                for raw in 0..4u64 {
                    match client.serve(VertexId(raw)) {
                        Ok(_) => {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(HeliosError::Overloaded(_)) => {
                            sheds.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("expected shed or success, got {e}"),
                    }
                }
            });
        }
    });
    // With a budget of one and a 50 ms service time, 8x4 concurrent
    // requests cannot all be admitted: the excess must shed explicitly
    // (and promptly — the scope above would hang otherwise).
    assert!(sheds.load(Ordering::Relaxed) > 0, "nothing was shed");
    assert!(served.load(Ordering::Relaxed) > 0, "nothing was admitted");
    let stats = client.stats().unwrap();
    let shed_total = stats
        .iter()
        .find(|(k, _)| k == "gateway.shed_total")
        .map(|(_, v)| *v)
        .unwrap();
    assert_eq!(shed_total, sheds.load(Ordering::Relaxed));

    // Once the burst is over the budget frees up again.
    assert!(client.serve(VertexId(9)).is_ok());
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn gateway_healthz_reports_dead_workers_as_503() {
    let service = EchoService::new(Duration::ZERO);
    let live = NetServer::start("127.0.0.1:0", service, NetMetrics::disabled(), None).unwrap();
    // Reserve (then release) a port nothing listens on: worker 1 is dead.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let gateway = Gateway::start(GatewayConfig {
        workers: vec![live.addr().to_string(), dead_addr],
        ops_addr: Some("127.0.0.1:0".into()),
        probe_timeout: Duration::from_millis(200),
        ..Default::default()
    })
    .unwrap();

    let ops = gateway.ops_addr().expect("ops server configured");
    let mut stream = TcpStream::connect(ops).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 503"),
        "expected 503 with a dead worker, got: {}",
        response.lines().next().unwrap_or("")
    );
    assert!(
        response.contains("serve-worker-1"),
        "dead worker id missing from healthz body: {response}"
    );
    assert!(
        response.contains("serve-worker-0"),
        "live worker missing from healthz body: {response}"
    );
    gateway.shutdown();
    live.shutdown();
}

/// A one-serving-worker host for the serve-scratch and socket-release
/// tests.
fn serve_host() -> ServeHost {
    let query = KHopQuery::builder(VertexType(0))
        .hop(EdgeType(0), VertexType(1), 2, SamplingStrategy::Random)
        .build()
        .unwrap();
    ServeHost::start(ServeHostConfig {
        sew: 0,
        listen: "127.0.0.1:0".into(),
        ops_addr: None,
        config: HeliosConfig::with_workers(1, 1),
        query,
    })
    .unwrap()
}

/// Poll `read` until it returns 0 or `within` passes; returns the last
/// value read.
fn settles_to_zero(within: Duration, read: impl Fn() -> i64) -> i64 {
    let deadline = Instant::now() + within;
    while read() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    read()
}

/// A serve worker's connection threads are its serving threads: each
/// charges its reusable scratch to the worker's `serve_scratch` gauge
/// (the cell behind `mem.bytes{component=serve_scratch}`) while it lives
/// and releases it when its connection closes.
#[test]
fn serve_scratch_is_charged_by_connection_threads_and_released_on_close() {
    let host = serve_host();
    let scratch = host.worker().mem_gauges().serve_scratch.clone();
    assert_eq!(scratch.get(), 0, "no serving thread yet");

    // Two pooled connections, so two server threads serve and charge.
    let client = Client::with_options(
        &host.addr().to_string(),
        TcpOptions {
            pool: 2,
            ..TcpOptions::default()
        },
    );
    for raw in 0..16u64 {
        client.serve(VertexId(raw)).expect("serve");
    }
    assert_eq!(host.worker().served(), 16);
    assert!(
        scratch.get() > 0,
        "connection threads served but charged no scratch"
    );

    // Dropping the client closes its connections, ending their server
    // threads, whose thread-local scratch releases its share as it drops.
    drop(client);
    assert_eq!(
        settles_to_zero(Duration::from_secs(5), || scratch.get()),
        0,
        "closed connections still hold scratch"
    );
    host.shutdown();
}

/// Dropping a `Client` closes its sockets: the serve host's connection
/// threads end, so its live-connection gauge and serve scratch return to
/// zero without waiting for the host to hang up.
#[test]
fn dropping_a_client_closes_its_connections() {
    let host = serve_host();
    let connections = || {
        host.registry()
            .snapshot()
            .gauge("net.connections{role=worker}")
    };
    let scratch = host.worker().mem_gauges().serve_scratch.clone();
    let client = Client::connect(&host.addr().to_string());
    client.serve(VertexId(1)).expect("serve");
    assert!(connections() > 0, "the serve arrived on no connection");
    drop(client);
    let within = Duration::from_secs(5);
    assert_eq!(
        settles_to_zero(within, connections),
        0,
        "a dropped client left its connections open"
    );
    assert_eq!(
        settles_to_zero(within, || scratch.get()),
        0,
        "a dropped client's connection threads still hold scratch"
    );
    host.shutdown();
}
