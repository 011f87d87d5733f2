//! The transport abstraction: one trait, two backends.
//!
//! [`Transport`] is how anything in Helios talks to a remote component —
//! the gateway to its workers, the client SDK to the gateway, the
//! sampling host's relays to serving workers. The **in-process** impl
//! wraps a [`NetService`] directly (zero serialization on the request
//! path, the reply still travels as encoded bytes so both backends are
//! observationally identical), and is what every existing test and bench
//! runs on. The **TCP** impl speaks the [`crate::wire`] protocol over
//! pooled, pipelined `std::net::TcpStream` connections.
//!
//! Backpressure is built in: each transport carries a bounded in-flight
//! budget implemented as a counting semaphore; [`Transport::begin`]
//! blocks once the budget is full, so a caller that pipelines cannot
//! build an unbounded queue. A request is in flight from the moment it
//! is written until its reply (or failure) lands in the completion's
//! channel — the permit is parked next to the reply waiter and freed by
//! the reader thread, so a caller may issue arbitrarily many `begin`s
//! before harvesting any completion without deadlocking on itself.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use helios_telemetry::registry::{Counter, Gauge, Registry};
use helios_types::{HeliosError, Result, VertexId};
use parking_lot::Mutex;

use crate::server::NetService;
use crate::wire::{self, Payload, KIND_NAMES};

/// Default in-flight request budget per transport.
pub const DEFAULT_INFLIGHT: usize = 128;
/// Default request timeout for [`Transport::call`].
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);
/// Default number of pooled connections per TCP transport.
pub const DEFAULT_POOL: usize = 4;

/// Shared `net.*` instruments for one endpoint role (`client`, `worker`,
/// `gateway`). Counter handles are pre-resolved per frame kind so the
/// hot path never touches the registry's lock.
pub struct NetMetrics {
    frames: Vec<Arc<Counter>>,
    bytes_tx: Arc<Counter>,
    bytes_rx: Arc<Counter>,
    connections: Arc<Gauge>,
    decode_errors: Arc<Counter>,
}

impl NetMetrics {
    /// Resolve the instrument set for `role` in `registry`.
    pub fn new(registry: &Registry, role: &str) -> Arc<NetMetrics> {
        let frames = KIND_NAMES
            .iter()
            .map(|kind| registry.counter("net.frames_total", &[("kind", kind), ("role", role)]))
            .collect();
        Arc::new(NetMetrics {
            frames,
            bytes_tx: registry.counter("net.bytes_total", &[("direction", "tx"), ("role", role)]),
            bytes_rx: registry.counter("net.bytes_total", &[("direction", "rx"), ("role", role)]),
            connections: registry.gauge("net.connections", &[("role", role)]),
            decode_errors: registry.counter(
                "serving.decode_errors",
                &[("component", "net"), ("role", role)],
            ),
        })
    }

    /// Instruments that count into `/dev/null`, for transports built
    /// without a registry (tests, throwaway clients).
    pub fn disabled() -> Arc<NetMetrics> {
        let registry = Registry::new();
        NetMetrics::new(&registry, "disabled")
    }

    /// Record one frame crossing the wire.
    pub fn frame(&self, kind: u8, bytes: usize, tx: bool) {
        let slot = self.frames.get(kind as usize).unwrap_or(&self.frames[0]);
        slot.incr();
        if tx {
            self.bytes_tx.add(bytes as u64);
        } else {
            self.bytes_rx.add(bytes as u64);
        }
    }

    /// Adjust the live-connection gauge.
    pub fn connection_delta(&self, delta: i64) {
        self.connections.add(delta);
    }

    /// Count one undecodable frame into the decode-error pipeline.
    pub fn decode_error(&self) {
        self.decode_errors.incr();
    }
}

/// A counting semaphore over a bounded channel: acquiring pushes a token
/// (blocks at capacity), releasing pops one.
#[derive(Clone)]
pub(crate) struct Budget {
    tx: Sender<()>,
    rx: Receiver<()>,
}

impl Budget {
    pub(crate) fn new(permits: usize) -> Budget {
        let (tx, rx) = bounded(permits.max(1));
        Budget { tx, rx }
    }

    /// Block until a permit is free, then take it.
    pub(crate) fn acquire(&self) -> Permit {
        self.tx
            .send(())
            .expect("budget channel lives as long as both ends");
        Permit {
            rx: self.rx.clone(),
            held: true,
        }
    }
}

/// RAII guard for one in-flight slot; releases on drop.
pub(crate) struct Permit {
    rx: Receiver<()>,
    held: bool,
}

impl Drop for Permit {
    fn drop(&mut self) {
        if self.held {
            let _ = self.rx.try_recv();
        }
    }
}

/// A pending reply: the async-style half of [`Transport::begin`].
///
/// The transport's in-flight permit is released when the reply arrives
/// (by the reader thread), not when this completion is consumed — an
/// unharvested completion costs one buffered reply, never a budget slot.
pub struct Completion {
    state: CompletionState,
}

enum CompletionState {
    Ready(Option<Result<Payload>>),
    Pending(Receiver<Result<Payload>>),
}

impl Completion {
    /// A completion that resolved eagerly (in-process transports).
    pub fn ready(result: Result<Payload>) -> Completion {
        Completion {
            state: CompletionState::Ready(Some(result)),
        }
    }

    pub(crate) fn pending(rx: Receiver<Result<Payload>>) -> Completion {
        Completion {
            state: CompletionState::Pending(rx),
        }
    }

    /// Block until the reply arrives. Error replies come back as `Err`.
    pub fn wait(self) -> Result<Payload> {
        self.wait_timeout(DEFAULT_TIMEOUT)
    }

    /// Block up to `timeout` for the reply.
    pub fn wait_timeout(mut self, timeout: Duration) -> Result<Payload> {
        match &mut self.state {
            CompletionState::Ready(slot) => slot.take().expect("completion consumed once"),
            CompletionState::Pending(rx) => match rx.recv_timeout(timeout) {
                Ok(result) => result,
                Err(RecvTimeoutError::Timeout) => {
                    Err(HeliosError::Timeout(format!("no reply within {timeout:?}")))
                }
                Err(RecvTimeoutError::Disconnected) => Err(HeliosError::Disconnected(
                    "connection closed with the request in flight".into(),
                )),
            },
        }
    }
}

/// Unwrap a wire-level error payload into `Err`, pass everything else.
fn into_result(payload: Payload) -> Result<Payload> {
    match payload {
        Payload::Error { code, message } => Err(code.to_error(&message)),
        other => Ok(other),
    }
}

/// One remote (or remote-shaped) Helios endpoint.
///
/// Contract: `call` is `begin` + wait; replies pair with requests in any
/// order (pipelining safe); a transport never queues more than its
/// in-flight budget — `begin` blocks instead; wire `Error` frames and
/// transport failures both surface as `Err`, so callers handle one
/// error channel.
pub trait Transport: Send + Sync {
    /// Send one request and block for its reply.
    fn call(&self, payload: Payload) -> Result<Payload> {
        self.call_with_timeout(payload, DEFAULT_TIMEOUT)
    }

    /// Send one request and block up to `timeout` for its reply.
    fn call_with_timeout(&self, payload: Payload, timeout: Duration) -> Result<Payload> {
        self.begin(payload)?.wait_timeout(timeout)
    }

    /// Issue a request without waiting; the reply arrives through the
    /// returned [`Completion`]. Blocks only when the in-flight budget
    /// is exhausted.
    fn begin(&self, payload: Payload) -> Result<Completion>;

    /// Human-readable peer address for logs and health reports.
    fn peer(&self) -> String;
}

/// The in-process backend: calls the service on the caller's thread.
///
/// Requests skip serialization entirely; serve replies are the same
/// encoded bytes TCP would carry, so results are byte-identical across
/// backends by construction.
pub struct InProcTransport {
    service: Arc<dyn NetService>,
    budget: Budget,
    name: String,
}

impl InProcTransport {
    /// Wrap `service` with the default in-flight budget.
    pub fn new(service: Arc<dyn NetService>) -> InProcTransport {
        InProcTransport::with_budget(service, DEFAULT_INFLIGHT)
    }

    /// Wrap `service` with an explicit in-flight budget.
    pub fn with_budget(service: Arc<dyn NetService>, permits: usize) -> InProcTransport {
        InProcTransport {
            service,
            budget: Budget::new(permits),
            name: "inproc".into(),
        }
    }
}

impl Transport for InProcTransport {
    fn begin(&self, payload: Payload) -> Result<Completion> {
        let _permit = self.budget.acquire();
        let reply = match payload {
            Payload::Serve { seed } => {
                let mut out = Vec::new();
                match self.service.serve_encoded(seed, &mut out) {
                    Ok(()) => Payload::ServeOk { bytes: out.into() },
                    Err(e) => Payload::Error {
                        code: wire::ErrCode::from_error(&e),
                        message: e.to_string(),
                    },
                }
            }
            other => self.service.handle(other),
        };
        Ok(Completion::ready(into_result(reply)))
    }

    fn peer(&self) -> String {
        self.name.clone()
    }
}

/// One pipelined TCP connection: a writer guarded by a mutex, a reader
/// thread demultiplexing replies by request id.
struct Conn {
    writer: Mutex<BufWriter<TcpStream>>,
    /// Reply waiters by request id; each entry parks the in-flight
    /// permit, which the reader thread frees when the reply lands.
    pending: Mutex<HashMap<u64, (Sender<Result<Payload>>, Option<Permit>)>>,
    next_id: AtomicU64,
    dead: AtomicBool,
    stream: TcpStream,
    metrics: Arc<NetMetrics>,
    scratch: Mutex<BytesMut>,
}

impl Conn {
    fn open(addr: &str, metrics: Arc<NetMetrics>) -> Result<Arc<Conn>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        let conn = Arc::new(Conn {
            writer: Mutex::new(writer),
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            dead: AtomicBool::new(false),
            stream,
            metrics: Arc::clone(&metrics),
            scratch: Mutex::new(BytesMut::with_capacity(256)),
        });
        metrics.connection_delta(1);
        let reader_conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("net-client-{addr}"))
            .spawn(move || reader_conn.read_loop())
            .expect("spawn net client reader");
        Ok(conn)
    }

    /// Reader thread: demux replies until the socket dies, then fail
    /// every in-flight request so no caller hangs.
    fn read_loop(self: Arc<Conn>) {
        let mut reader = match self.stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => {
                self.poison("could not clone stream");
                return;
            }
        };
        loop {
            match wire::read_frame(&mut reader) {
                Ok(Some((frame, bytes))) => {
                    self.metrics.frame(frame.payload.kind(), bytes, false);
                    let waiter = self.pending.lock().remove(&frame.request_id);
                    if let Some((tx, permit)) = waiter {
                        let _ = tx.send(into_result(frame.payload));
                        drop(permit); // the request is no longer in flight
                    }
                }
                Ok(None) => {
                    self.poison("peer closed the connection");
                    return;
                }
                Err(e) => {
                    if matches!(e, HeliosError::Codec(_)) {
                        self.metrics.decode_error();
                    }
                    self.poison(&format!("reply stream failed: {e}"));
                    return;
                }
            }
        }
    }

    fn poison(&self, why: &str) {
        if !self.dead.swap(true, Ordering::SeqCst) {
            self.metrics.connection_delta(-1);
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let waiters: Vec<_> = self.pending.lock().drain().collect();
        for (_, (tx, permit)) in waiters {
            let _ = tx.send(Err(HeliosError::Disconnected(why.into())));
            drop(permit);
        }
    }

    /// Register a waiter (parking `permit` until the reply arrives),
    /// write the frame, return the reply channel.
    fn request(
        &self,
        payload: &Payload,
        permit: Option<Permit>,
    ) -> Result<Receiver<Result<Payload>>> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(HeliosError::Disconnected("connection is dead".into()));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        self.pending.lock().insert(id, (tx, permit));
        let wrote = {
            let mut w = self.writer.lock();
            let mut scratch = self.scratch.lock();
            wire::write_frame(&mut *w, id, payload, &mut scratch)
                .and_then(|n| w.flush().map(|()| n).map_err(HeliosError::from))
        };
        match wrote {
            Ok(bytes) => {
                self.metrics.frame(payload.kind(), bytes, true);
                Ok(rx)
            }
            Err(e) => {
                self.pending.lock().remove(&id);
                self.poison(&format!("write failed: {e}"));
                Err(e)
            }
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        if !self.dead.swap(true, Ordering::SeqCst) {
            self.metrics.connection_delta(-1);
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Tuning knobs for a [`TcpTransport`].
pub struct TcpOptions {
    /// Pooled connections to the peer (round-robined).
    pub pool: usize,
    /// Bounded in-flight request budget across the whole pool.
    pub inflight: usize,
    /// Instruments; [`NetMetrics::disabled`] when unobserved.
    pub metrics: Arc<NetMetrics>,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        TcpOptions {
            pool: DEFAULT_POOL,
            inflight: DEFAULT_INFLIGHT,
            metrics: NetMetrics::disabled(),
        }
    }
}

/// The TCP backend: a lazily-(re)connected pool of pipelined
/// connections speaking the [`crate::wire`] protocol.
pub struct TcpTransport {
    addr: String,
    conns: Mutex<Vec<Option<Arc<Conn>>>>,
    rr: AtomicUsize,
    budget: Budget,
    metrics: Arc<NetMetrics>,
}

impl TcpTransport {
    /// Create a transport to `addr` with default options. Connections
    /// are opened lazily on first use and reopened after failures.
    pub fn connect(addr: &str) -> TcpTransport {
        TcpTransport::with_options(addr, TcpOptions::default())
    }

    /// Create a transport with explicit pool/budget/instrumentation.
    pub fn with_options(addr: &str, options: TcpOptions) -> TcpTransport {
        TcpTransport {
            addr: addr.to_string(),
            conns: Mutex::new((0..options.pool.max(1)).map(|_| None).collect()),
            rr: AtomicUsize::new(0),
            budget: Budget::new(options.inflight),
            metrics: options.metrics,
        }
    }

    fn conn(&self) -> Result<Arc<Conn>> {
        let mut conns = self.conns.lock();
        let slot = self.rr.fetch_add(1, Ordering::Relaxed) % conns.len();
        if let Some(conn) = &conns[slot] {
            if !conn.dead.load(Ordering::SeqCst) {
                return Ok(Arc::clone(conn));
            }
        }
        let fresh = Conn::open(&self.addr, Arc::clone(&self.metrics))?;
        conns[slot] = Some(Arc::clone(&fresh));
        Ok(fresh)
    }
}

impl Drop for TcpTransport {
    /// Close every pooled socket. Each reader thread holds its `Conn`, so
    /// without this the sockets — and the reader threads — would live
    /// until the peer hung up; shut down, the reader sees EOF, poisons
    /// the connection and exits.
    fn drop(&mut self) {
        for conn in self.conns.get_mut().iter().flatten() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Transport for TcpTransport {
    fn begin(&self, payload: Payload) -> Result<Completion> {
        let permit = self.budget.acquire();
        let rx = self.conn()?.request(&payload, Some(permit))?;
        Ok(Completion::pending(rx))
    }

    fn peer(&self) -> String {
        self.addr.clone()
    }
}

/// Serve `seed` through any transport, appending the encoded subgraph
/// to `out` — the transport-generic mirror of `serve_encoded`.
pub fn serve_via(transport: &dyn Transport, seed: VertexId, out: &mut Vec<u8>) -> Result<()> {
    match transport.call(Payload::Serve { seed })? {
        Payload::ServeOk { bytes } => {
            out.extend_from_slice(&bytes);
            Ok(())
        }
        other => Err(HeliosError::Codec(format!(
            "expected serve_ok reply, got {}",
            other.kind_name()
        ))),
    }
}
