//! The front-end gateway: one address for the whole fleet.
//!
//! Clients speak the wire protocol to the gateway; the gateway routes
//! serve requests to the owning serving worker (same slot-based
//! `RouteTable` the in-process router uses, so a seed lands on the same
//! worker either way), forwards update batches to the sampling host, and
//! aggregates fleet health behind one `/healthz`.
//!
//! ## Admission control
//!
//! The gateway holds a bounded in-flight budget. A serve request that
//! arrives with the budget full is **shed**: it gets an immediate
//! `Error { Overloaded }` reply (counted in `gateway.shed_total`) instead
//! of a queue slot. Admitted requests are pipelined downstream; per
//! client connection, replies are written in request order by a
//! dedicated responder thread, so a slow seed never deadlocks the
//! stream — and nothing in the gateway queues without a bound.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver};
use helios_membership::RouteTable;
use helios_telemetry::registry::{Counter, Gauge, Registry};
use helios_telemetry::{HealthReport, Histogram, OpsServer, OpsState};
use helios_types::Result;
use parking_lot::Mutex;

use crate::transport::{Completion, NetMetrics, TcpOptions, TcpTransport, Transport};
use crate::wire::{self, ErrCode, Payload};

/// Gateway tuning and topology.
pub struct GatewayConfig {
    /// Address to listen on for client traffic (`127.0.0.1:0` works).
    pub listen: String,
    /// Serving-worker endpoints, indexed by serving worker id.
    pub workers: Vec<String>,
    /// Sampling-host endpoint for update ingestion, when ingest flows
    /// through the gateway.
    pub sampling: Option<String>,
    /// Bounded in-flight serve budget; requests beyond it are shed.
    pub admission: usize,
    /// Route-table slots. Must match the serving tier's
    /// `HeliosConfig::route_slots`, or seeds land on workers whose
    /// caches never saw them; the default mirrors the config default.
    pub route_slots: usize,
    /// Per-worker health probe timeout.
    pub probe_timeout: Duration,
    /// Ops/metrics HTTP address; `None` disables the ops server.
    pub ops_addr: Option<String>,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            listen: "127.0.0.1:0".into(),
            workers: Vec::new(),
            sampling: None,
            admission: 256,
            route_slots: 64,
            probe_timeout: Duration::from_millis(500),
            ops_addr: None,
        }
    }
}

struct GatewayMetrics {
    shed: Arc<Counter>,
    admitted: Arc<Counter>,
    inflight: Arc<Gauge>,
    forward_errors: Arc<Counter>,
    forward_latency: Arc<Histogram>,
}

impl GatewayMetrics {
    fn new(registry: &Registry) -> Arc<GatewayMetrics> {
        Arc::new(GatewayMetrics {
            shed: registry.counter("gateway.shed_total", &[]),
            admitted: registry.counter("gateway.admitted_total", &[]),
            inflight: registry.gauge("gateway.inflight", &[]),
            forward_errors: registry.counter("gateway.forward_errors", &[]),
            forward_latency: registry.histogram("gateway.forward_latency_us", &[]),
        })
    }
}

/// One reply waiting its turn on a client connection: either resolved
/// already (sheds, local answers) or pending downstream.
enum Reply {
    Ready(Payload),
    Forwarded {
        completion: Completion,
        started: Instant,
        /// Admitted serves release one admission slot on completion.
        admitted: bool,
    },
}

struct Shared {
    table: RouteTable,
    workers: Vec<Arc<TcpTransport>>,
    sampling: Option<Arc<TcpTransport>>,
    admission: usize,
    inflight: AtomicUsize,
    metrics: Arc<GatewayMetrics>,
    net: Arc<NetMetrics>,
}

/// A running gateway process core.
pub struct Gateway {
    addr: SocketAddr,
    ops_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    _ops: Option<OpsServer>,
    registry: Arc<Registry>,
}

impl Gateway {
    /// Start the gateway: bind the client listener, connect downstream
    /// transports lazily, and (optionally) start the ops server with
    /// fleet-aggregated health probes.
    pub fn start(config: GatewayConfig) -> std::io::Result<Gateway> {
        let registry = Arc::new(Registry::new());
        let metrics = GatewayMetrics::new(&registry);
        let net = NetMetrics::new(&registry, "gateway");
        let workers: Vec<Arc<TcpTransport>> = config
            .workers
            .iter()
            .map(|addr| {
                Arc::new(TcpTransport::with_options(
                    addr,
                    TcpOptions {
                        // Big enough that admission control, not the
                        // transport budget, is the binding constraint.
                        inflight: config.admission.max(1) * 2,
                        metrics: Arc::clone(&net),
                        ..TcpOptions::default()
                    },
                ))
            })
            .collect();
        let sampling = config.sampling.as_ref().map(|addr| {
            Arc::new(TcpTransport::with_options(
                addr,
                TcpOptions {
                    metrics: Arc::clone(&net),
                    ..TcpOptions::default()
                },
            ))
        });
        let shared = Arc::new(Shared {
            table: RouteTable::initial(workers.len().max(1), config.route_slots),
            workers,
            sampling,
            admission: config.admission.max(1),
            inflight: AtomicUsize::new(0),
            metrics: Arc::clone(&metrics),
            net: Arc::clone(&net),
        });

        let ops = match &config.ops_addr {
            Some(addr) => {
                let state = ops_state(&registry, &shared, config.probe_timeout);
                Some(OpsServer::start(addr, state)?)
            }
            None => None,
        };
        let ops_addr = ops.as_ref().map(|o| o.addr());

        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("gateway-accept".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, peer)) => {
                                if stream.set_nodelay(true).is_err() {
                                    continue;
                                }
                                if let Ok(track) = stream.try_clone() {
                                    conns.lock().push(track);
                                }
                                let shared = Arc::clone(&shared);
                                let _ = std::thread::Builder::new()
                                    .name(format!("gateway-conn-{peer}"))
                                    .spawn(move || client_connection(stream, shared));
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(2)),
                        }
                    }
                })
                .expect("spawn gateway accept loop")
        };
        Ok(Gateway {
            addr,
            ops_addr,
            stop,
            accept: Some(accept),
            conns,
            _ops: ops,
            registry,
        })
    }

    /// The client-facing address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ops server address, when one was started.
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops_addr
    }

    /// The gateway's metrics registry (`gateway.*` and `net.*`).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stop accepting and close every client connection.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for stream in self.conns.lock().drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Build the gateway's ops state: metrics snapshot plus one health
/// probe per downstream worker, each bounded by `probe_timeout` so a
/// dead worker turns into a 503 with its id, not a hang.
fn ops_state(registry: &Arc<Registry>, shared: &Arc<Shared>, probe_timeout: Duration) -> OpsState {
    let snap = Arc::clone(registry);
    let mut state = OpsState::new(move || snap.snapshot());
    for (sew, transport) in shared.workers.iter().enumerate() {
        let transport = Arc::clone(transport);
        state = state.probe(move || worker_probe(sew, &transport, probe_timeout));
    }
    let shed_shared = Arc::clone(shared);
    state = state.probe(move || {
        let inflight = shed_shared.inflight.load(Ordering::Relaxed);
        HealthReport::new(
            "gateway-admission",
            inflight <= shed_shared.admission,
            format!(
                "inflight {inflight}/{} shed_total {}",
                shed_shared.admission,
                shed_shared.metrics.shed.get()
            ),
        )
    });
    state
}

fn worker_probe(sew: usize, transport: &Arc<TcpTransport>, timeout: Duration) -> HealthReport {
    let component = format!("serve-worker-{sew}");
    let begun = transport.begin(Payload::HealthReq);
    let reply = begun.and_then(|c| c.wait_timeout(timeout));
    match reply {
        Ok(Payload::HealthOk { healthy, detail }) => HealthReport::new(component, healthy, detail),
        Ok(other) => HealthReport::new(
            component,
            false,
            format!("unexpected probe reply {}", other.kind_name()),
        ),
        Err(e) => HealthReport::new(
            component,
            false,
            format!("unreachable at {}: {e}", transport.peer()),
        ),
    }
}

/// Per-connection reader: decode, admit/shed/route, enqueue the reply
/// slot in request order for the responder thread.
fn client_connection(stream: TcpStream, shared: Arc<Shared>) {
    shared.net.connection_delta(1);
    let (reply_tx, reply_rx) = unbounded::<(u64, Reply)>();
    let responder = {
        let writer = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                shared.net.connection_delta(-1);
                return;
            }
        };
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("gateway-responder".into())
            .spawn(move || respond_loop(writer, reply_rx, shared))
            .expect("spawn gateway responder")
    };

    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            shared.net.connection_delta(-1);
            return;
        }
    });
    loop {
        let (frame, bytes) = match wire::read_frame(&mut reader) {
            Ok(Some(got)) => got,
            Ok(None) => break,
            Err(e) => {
                if matches!(e, helios_types::HeliosError::Codec(_)) {
                    shared.net.decode_error();
                    let _ = reply_tx.send((
                        0,
                        Reply::Ready(Payload::Error {
                            code: ErrCode::Codec,
                            message: e.to_string(),
                        }),
                    ));
                }
                break;
            }
        };
        shared.net.frame(frame.payload.kind(), bytes, false);
        let reply = route_request(&shared, frame.payload);
        if reply_tx.send((frame.request_id, reply)).is_err() {
            break;
        }
    }
    // Closing the channel drains the responder; it writes what is
    // already in flight and exits.
    drop(reply_tx);
    let _ = responder.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    shared.net.connection_delta(-1);
}

/// Decide what happens to one request: shed, forward, or answer locally.
fn route_request(shared: &Arc<Shared>, payload: Payload) -> Reply {
    match payload {
        Payload::Serve { seed } => {
            // Admission control: reserve a slot or shed. The slot is
            // released by the responder when the reply is consumed.
            let admitted = shared
                .inflight
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < shared.admission).then_some(n + 1)
                })
                .is_ok();
            if !admitted {
                shared.metrics.shed.incr();
                return Reply::Ready(Payload::Error {
                    code: ErrCode::Overloaded,
                    message: format!("admission budget {} full", shared.admission),
                });
            }
            shared.metrics.admitted.incr();
            shared
                .metrics
                .inflight
                .set(shared.inflight.load(Ordering::Relaxed) as i64);
            let sew = shared.table.owner_of(seed).0 as usize % shared.workers.len();
            match shared.workers[sew].begin(Payload::Serve { seed }) {
                Ok(completion) => Reply::Forwarded {
                    completion,
                    started: Instant::now(),
                    admitted: true,
                },
                Err(e) => {
                    shared.inflight.fetch_sub(1, Ordering::SeqCst);
                    shared.metrics.forward_errors.incr();
                    Reply::Ready(error_payload(&e))
                }
            }
        }
        Payload::Updates { updates } => match &shared.sampling {
            Some(t) => match t.begin(Payload::Updates { updates }) {
                Ok(completion) => Reply::Forwarded {
                    completion,
                    started: Instant::now(),
                    admitted: false,
                },
                Err(e) => {
                    shared.metrics.forward_errors.incr();
                    Reply::Ready(error_payload(&e))
                }
            },
            None => Reply::Ready(Payload::Error {
                code: ErrCode::NotFound,
                message: "gateway has no sampling endpoint configured".into(),
            }),
        },
        Payload::HealthReq => {
            // Cheap liveness answer on the wire path; deep fleet health
            // lives on the ops server's /healthz.
            let inflight = shared.inflight.load(Ordering::Relaxed);
            Reply::Ready(Payload::HealthOk {
                healthy: true,
                detail: format!("inflight {inflight}/{}", shared.admission),
            })
        }
        Payload::StatsReq => Reply::Ready(Payload::StatsOk {
            entries: vec![
                ("gateway.shed_total".into(), shared.metrics.shed.get()),
                (
                    "gateway.admitted_total".into(),
                    shared.metrics.admitted.get(),
                ),
                (
                    "gateway.inflight".into(),
                    shared.inflight.load(Ordering::Relaxed) as u64,
                ),
                (
                    "gateway.forward_errors".into(),
                    shared.metrics.forward_errors.get(),
                ),
            ],
        }),
        other => Reply::Ready(Payload::Error {
            code: ErrCode::NotFound,
            message: format!("gateway does not route {} frames", other.kind_name()),
        }),
    }
}

fn error_payload(e: &helios_types::HeliosError) -> Payload {
    Payload::Error {
        code: ErrCode::from_error(e),
        message: e.to_string(),
    }
}

/// Responder: pop reply slots in request order, resolve, write.
fn respond_loop(stream: TcpStream, rx: Receiver<(u64, Reply)>, shared: Arc<Shared>) {
    let mut writer = std::io::BufWriter::new(stream);
    let mut scratch = BytesMut::with_capacity(512);
    while let Ok((request_id, reply)) = rx.recv() {
        let payload = match reply {
            Reply::Ready(p) => p,
            Reply::Forwarded {
                completion,
                started,
                admitted,
            } => {
                let result = completion.wait();
                if admitted {
                    shared.inflight.fetch_sub(1, Ordering::SeqCst);
                    shared
                        .metrics
                        .inflight
                        .set(shared.inflight.load(Ordering::Relaxed) as i64);
                    shared
                        .metrics
                        .forward_latency
                        .record(started.elapsed().as_micros() as u64);
                }
                match result {
                    Ok(p) => p,
                    Err(e) => {
                        shared.metrics.forward_errors.incr();
                        error_payload(&e)
                    }
                }
            }
        };
        let wrote = write_reply(&mut writer, request_id, &payload, &mut scratch);
        match wrote {
            Ok(n) => shared.net.frame(payload.kind(), n, true),
            Err(_) => break,
        }
    }
}

fn write_reply(
    writer: &mut impl std::io::Write,
    request_id: u64,
    payload: &Payload,
    scratch: &mut BytesMut,
) -> Result<usize> {
    let n = match payload {
        // Serve replies are raw bytes from downstream; forward without
        // re-encoding through a Payload round trip.
        Payload::ServeOk { bytes } => wire::write_raw_frame(writer, 2, request_id, bytes)?,
        other => wire::write_frame(writer, request_id, other, scratch)?,
    };
    writer.flush()?;
    Ok(n)
}
