//! Embedded operational HTTP server.
//!
//! A deliberately tiny, dependency-free HTTP/1.1 server (std
//! `TcpListener`, one handler thread) exposing the observability surface
//! of one deployment:
//!
//! * `GET /metrics` — Prometheus text exposition of the registry
//!   ([`crate::exposition::render_prometheus`]);
//! * `GET /healthz` — runs the registered component probes; `200` when
//!   all healthy, `503` otherwise, JSON body either way;
//! * `GET /vars` — JSON snapshot of every counter/gauge plus histogram
//!   summaries (count, p50/p99/max in ms);
//! * `GET|POST /trace/start`, `/trace/stop` — toggle span tracing at
//!   runtime; `/trace/stop` returns the drained spans as JSONL;
//! * `GET /traces` — summaries of tail-retained traces (slow, errored or
//!   flagged requests); `?id=<trace>` fetches one trace's spans as JSONL,
//!   `?id=<trace>&format=chrome` as chrome://tracing JSON;
//! * `GET /recorder` — the flight recorder's ring as JSONL.
//! * `GET /profile?seconds=N` — run the in-process sampling profiler
//!   for `N` seconds (default 1, capped) and return folded stacks
//!   (`format=collapsed`, the only format) ready for flamegraph tools.
//!
//! The server exists for scrape-and-poke traffic (one Prometheus scraper,
//! an operator's `curl`), not for serving-path load: connections are
//! handled sequentially with short read timeouts.

use crate::accept::{AcceptLoop, ConnMode};
use crate::exposition::render_prometheus;
use crate::profiler::{Profiler, MAX_PROFILE_SECS};
use crate::recorder::FlightRecorder;
use crate::registry::RegistrySnapshot;
use crate::retention::RetainedTraces;
use crate::trace;
use parking_lot::RwLock;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Result of one component health probe.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Component name, e.g. `mq`, `sampler`, `kvstore`, `pipeline`.
    pub component: String,
    /// Whether the component is within its healthy bounds.
    pub healthy: bool,
    /// Human-readable detail (current value vs bound).
    pub detail: String,
}

impl HealthReport {
    /// Convenience constructor.
    pub fn new(component: impl Into<String>, healthy: bool, detail: impl Into<String>) -> Self {
        HealthReport {
            component: component.into(),
            healthy,
            detail: detail.into(),
        }
    }
}

/// A named health probe, run on every `/healthz` request.
pub type HealthProbe = Box<dyn Fn() -> HealthReport + Send + Sync>;

/// Handler for a dynamically registered path: `(method, query)` in,
/// `(status code, content type, body)` out.
pub type DynHandler = Box<dyn Fn(&str, &str) -> (u16, String, String) + Send + Sync>;

/// Paths registered *after* the server started.
///
/// The builder-style [`OpsState`] is consumed by [`OpsServer::start`], so
/// components constructed later (e.g. a rescale controller that needs an
/// `Arc` to the deployment, which does not exist yet when the ops server
/// is wired up) cannot add endpoints through it. `DynRoutes` is the
/// escape hatch: share one handle with the ops state and register
/// handlers whenever the component comes up. Registering a path that
/// already exists replaces the old handler; built-in paths always win.
#[derive(Default)]
pub struct DynRoutes {
    routes: RwLock<Vec<(String, DynHandler)>>,
}

impl DynRoutes {
    /// An empty, shareable route table.
    pub fn new() -> Arc<DynRoutes> {
        Arc::new(DynRoutes::default())
    }

    /// Register (or replace) the handler for `path` (must start with `/`).
    pub fn register(
        &self,
        path: impl Into<String>,
        handler: impl Fn(&str, &str) -> (u16, String, String) + Send + Sync + 'static,
    ) {
        let path = path.into();
        debug_assert!(path.starts_with('/'), "dyn route must start with /");
        let mut routes = self.routes.write();
        routes.retain(|(p, _)| *p != path);
        routes.push((path, Box::new(handler)));
    }

    /// Currently registered paths.
    pub fn paths(&self) -> Vec<String> {
        self.routes.read().iter().map(|(p, _)| p.clone()).collect()
    }

    fn dispatch(&self, path: &str, method: &str, query: &str) -> Option<(u16, String, String)> {
        let routes = self.routes.read();
        let (_, handler) = routes.iter().find(|(p, _)| p == path)?;
        Some(handler(method, query))
    }
}

impl std::fmt::Debug for DynRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynRoutes")
            .field("paths", &self.paths())
            .finish()
    }
}

/// Everything the ops server serves from. Build one, then
/// [`OpsServer::start`] it.
pub struct OpsState {
    snapshot: Box<dyn Fn() -> RegistrySnapshot + Send + Sync>,
    probes: Vec<HealthProbe>,
    recorder: Option<Arc<FlightRecorder>>,
    retained: Option<Arc<RetainedTraces>>,
    profiler: Option<Arc<Profiler>>,
    dyn_routes: Option<Arc<DynRoutes>>,
}

impl OpsState {
    /// State serving snapshots from `snapshot` (typically a clone of the
    /// deployment registry behind a closure).
    pub fn new(snapshot: impl Fn() -> RegistrySnapshot + Send + Sync + 'static) -> OpsState {
        OpsState {
            snapshot: Box::new(snapshot),
            probes: Vec::new(),
            recorder: None,
            retained: None,
            profiler: None,
            dyn_routes: None,
        }
    }

    /// Add a component health probe.
    pub fn probe(mut self, probe: impl Fn() -> HealthReport + Send + Sync + 'static) -> OpsState {
        self.probes.push(Box::new(probe));
        self
    }

    /// Attach a flight recorder for `/recorder`.
    pub fn recorder(mut self, recorder: Arc<FlightRecorder>) -> OpsState {
        self.recorder = Some(recorder);
        self
    }

    /// Attach a retained-trace store for `/traces`.
    pub fn retained_traces(mut self, retained: Arc<RetainedTraces>) -> OpsState {
        self.retained = Some(retained);
        self
    }

    /// Attach a sampling profiler for `/profile`.
    pub fn profiler(mut self, profiler: Arc<Profiler>) -> OpsState {
        self.profiler = Some(profiler);
        self
    }

    /// Attach a dynamic route table; handlers registered on it later are
    /// served immediately.
    pub fn routes(mut self, routes: Arc<DynRoutes>) -> OpsState {
        self.dyn_routes = Some(routes);
        self
    }

    /// Run all probes.
    pub fn health(&self) -> Vec<HealthReport> {
        self.probes.iter().map(|p| p()).collect()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `/vars`: the snapshot as one JSON object.
fn render_vars(snap: &RegistrySnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(k), v);
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(k), v);
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, s)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"mean_ms\":{:.6},\"p50_ms\":{:.6},\"p99_ms\":{:.6},\"max_ms\":{:.6}}}",
            json_escape(k),
            s.count,
            s.mean_ms(),
            s.percentile_ms(50.0),
            s.percentile_ms(99.0),
            s.max as f64 / 1e6,
        );
    }
    out.push_str("}}");
    out
}

fn render_health(reports: &[HealthReport]) -> (bool, String) {
    let all_healthy = reports.iter().all(|r| r.healthy);
    let mut body = format!(
        "{{\"status\":\"{}\",\"components\":[",
        if all_healthy { "ok" } else { "degraded" }
    );
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"component\":\"{}\",\"healthy\":{},\"detail\":\"{}\"}}",
            json_escape(&r.component),
            r.healthy,
            json_escape(&r.detail),
        );
    }
    body.push_str("]}");
    (all_healthy, body)
}

/// A running ops server; stops and joins its handler thread on drop.
pub struct OpsServer {
    accept: AcceptLoop,
}

impl OpsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9100`, or port `0` for an ephemeral
    /// port) and start serving `state`.
    pub fn start(addr: &str, state: OpsState) -> std::io::Result<OpsServer> {
        // Ops traffic is trusted and tiny; one request per connection,
        // handled inline.
        let accept = AcceptLoop::start(
            addr,
            |_| "helios-ops".into(),
            Duration::from_millis(5),
            ConnMode::Inline,
            move |stream, _| {
                let _ = handle_connection(stream, &state);
            },
        )?;
        Ok(OpsServer { accept })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }
}

fn handle_connection(mut stream: TcpStream, state: &OpsState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the end of the request head (we ignore any body: every
    // endpoint is parameterless).
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 16 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    let (status, content_type, body) = route(method, path, query, state);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Map a numeric status to an HTTP/1.1 status line.
fn status_line(code: u16) -> String {
    let reason = match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    };
    format!("{code} {reason}")
}

fn route(method: &str, path: &str, query: &str, state: &OpsState) -> (String, String, String) {
    let (status, content_type, body) = route_builtin(method, path, query, state);
    if status == "404 Not Found" {
        if let Some(routes) = &state.dyn_routes {
            if let Some((code, ct, body)) = routes.dispatch(path, method, query) {
                return (status_line(code), ct, body);
            }
        }
    }
    (status.into(), content_type.into(), body)
}

fn route_builtin(
    method: &str,
    path: &str,
    query: &str,
    state: &OpsState,
) -> (&'static str, &'static str, String) {
    if method != "GET" && method != "POST" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".into(),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(&(state.snapshot)()),
        ),
        "/healthz" => {
            let (healthy, body) = render_health(&state.health());
            (
                if healthy {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                },
                "application/json",
                body,
            )
        }
        "/vars" => (
            "200 OK",
            "application/json",
            render_vars(&(state.snapshot)()),
        ),
        "/trace/start" => {
            trace::set_tracing(true);
            ("200 OK", "text/plain; charset=utf-8", "tracing on\n".into())
        }
        "/trace/stop" => {
            trace::set_tracing(false);
            let spans = trace::drain_spans();
            ("200 OK", "application/x-ndjson", trace::to_jsonl(&spans))
        }
        "/traces" => match &state.retained {
            Some(retained) => {
                // Fold in anything still sitting in the thread journals so
                // the listing reflects the latest completed requests.
                retained.sweep();
                match query.split('&').find_map(|p| p.strip_prefix("id=")) {
                    None => ("200 OK", "application/json", retained.list_json()),
                    Some(raw) => match raw.parse::<u64>() {
                        Err(_) => (
                            "400 Bad Request",
                            "text/plain; charset=utf-8",
                            "id must be a decimal trace id\n".into(),
                        ),
                        Ok(id) => match retained.get(id) {
                            None => (
                                "404 Not Found",
                                "text/plain; charset=utf-8",
                                "no such retained trace\n".into(),
                            ),
                            Some(spans) => {
                                if query.split('&').any(|p| p == "format=chrome") {
                                    (
                                        "200 OK",
                                        "application/json",
                                        trace::to_chrome_trace(&spans),
                                    )
                                } else {
                                    ("200 OK", "application/x-ndjson", trace::to_jsonl(&spans))
                                }
                            }
                        },
                    },
                }
            }
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no retained trace store attached\n".into(),
            ),
        },
        "/recorder" => match &state.recorder {
            Some(r) => ("200 OK", "application/x-ndjson", r.to_jsonl()),
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no flight recorder attached\n".into(),
            ),
        },
        "/profile" => match &state.profiler {
            Some(profiler) => {
                if let Some(fmt) = query.split('&').find_map(|p| p.strip_prefix("format=")) {
                    if fmt != "collapsed" {
                        return (
                            "400 Bad Request",
                            "text/plain; charset=utf-8",
                            "unsupported format; only format=collapsed\n".into(),
                        );
                    }
                }
                let seconds = match query.split('&').find_map(|p| p.strip_prefix("seconds=")) {
                    None => 1.0,
                    Some(raw) => match raw.parse::<f64>() {
                        Ok(s) if s.is_finite() && s > 0.0 => s.min(MAX_PROFILE_SECS),
                        _ => {
                            return (
                                "400 Bad Request",
                                "text/plain; charset=utf-8",
                                "seconds must be a positive number\n".into(),
                            )
                        }
                    },
                };
                let folded = profiler.collect_collapsed(Duration::from_secs_f64(seconds));
                ("200 OK", "text/plain; charset=utf-8", folded)
            }
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no profiler attached\n".into(),
            ),
        },
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /metrics /healthz /vars /trace/start /trace/stop /traces /recorder /profile\n"
                .into(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::EventKind;
    use crate::registry::Registry;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Minimal test-side HTTP client: one request, returns (status line,
    /// body).
    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        let (head, body) = out.split_once("\r\n\r\n").unwrap();
        let status = head.lines().next().unwrap().to_string();
        (status, body.to_string())
    }

    fn test_state() -> (Arc<Registry>, Arc<AtomicBool>, OpsState) {
        let registry = Arc::new(Registry::new());
        let healthy = Arc::new(AtomicBool::new(true));
        let r2 = Arc::clone(&registry);
        let h2 = Arc::clone(&healthy);
        let state = OpsState::new(move || r2.snapshot()).probe(move || {
            HealthReport::new("mq", h2.load(Ordering::Relaxed), "lag 0 (bound 100)")
        });
        (registry, healthy, state)
    }

    #[test]
    fn metrics_vars_and_404() {
        let (registry, _healthy, state) = test_state();
        registry
            .counter("serving.served", &[("worker", "0")])
            .add(5);
        registry.histogram("e2e.freshness", &[]).record(1_000_000);
        let server = OpsServer::start("127.0.0.1:0", state).unwrap();
        let (status, body) = http_get(server.addr(), "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(
            body.contains("serving_served_total{worker=\"0\"} 5"),
            "{body}"
        );
        assert!(body.contains("e2e_freshness_bucket"), "{body}");
        let (status, body) = http_get(server.addr(), "/vars");
        assert!(status.contains("200"));
        assert!(body.contains("\"serving.served{worker=0}\":5"), "{body}");
        assert!(body.contains("\"e2e.freshness\""));
        let (status, _) = http_get(server.addr(), "/nope");
        assert!(status.contains("404"));
    }

    #[test]
    fn healthz_flips_with_probe_state() {
        let (_registry, healthy, state) = test_state();
        let server = OpsServer::start("127.0.0.1:0", state).unwrap();
        let (status, body) = http_get(server.addr(), "/healthz");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"status\":\"ok\""));
        healthy.store(false, Ordering::Relaxed);
        let (status, body) = http_get(server.addr(), "/healthz");
        assert!(status.contains("503"), "{status}");
        assert!(body.contains("\"status\":\"degraded\""));
        assert!(body.contains("\"component\":\"mq\""));
    }

    #[test]
    fn trace_toggle_roundtrip() {
        let (_registry, _healthy, state) = test_state();
        let server = OpsServer::start("127.0.0.1:0", state).unwrap();
        let (status, _) = http_get(server.addr(), "/trace/start");
        assert!(status.contains("200"));
        assert!(trace::tracing_enabled());
        {
            let _s = trace::span("ops.test", crate::TraceCtx::root());
        }
        let (status, body) = http_get(server.addr(), "/trace/stop");
        assert!(status.contains("200"));
        assert!(!trace::tracing_enabled());
        assert!(body.contains("ops.test"), "{body}");
    }

    #[test]
    fn dynamic_routes_register_and_replace() {
        let (_registry, _healthy, state) = test_state();
        let routes = DynRoutes::new();
        let server = OpsServer::start("127.0.0.1:0", state.routes(Arc::clone(&routes))).unwrap();
        // Not registered yet.
        let (status, _) = http_get(server.addr(), "/scale");
        assert!(status.contains("404"), "{status}");
        // Registered after start; sees the query string.
        routes.register("/scale", |method, query| {
            (
                200,
                "text/plain; charset=utf-8".into(),
                format!("method={method} query={query}\n"),
            )
        });
        let (status, body) = http_get(server.addr(), "/scale?target=4");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "method=GET query=target=4\n");
        // Re-registering replaces, and non-200 codes map to status lines.
        routes.register("/scale", |_, _| (409, "text/plain".into(), "busy\n".into()));
        let (status, body) = http_get(server.addr(), "/scale");
        assert!(status.contains("409"), "{status}");
        assert_eq!(body, "busy\n");
        // Built-in paths are not shadowed by dyn routes.
        routes.register("/vars", |_, _| {
            (200, "text/plain".into(), "shadow\n".into())
        });
        let (_, body) = http_get(server.addr(), "/vars");
        assert!(body.contains("\"counters\""), "{body}");
        assert_eq!(routes.paths().len(), 2);
    }

    #[test]
    fn traces_endpoint_lists_and_fetches_retained_traces() {
        // Holds the trace gate: the endpoint sweeps the process-global
        // span journals, which would race the trace module's own tests.
        let _g = crate::trace::test_gate();
        let (_registry, _healthy, state) = test_state();
        let retained = Arc::new(RetainedTraces::new(8, 1_000_000));
        retained.ingest(vec![
            crate::SpanRecord {
                trace: 42,
                span: 420,
                parent: 0,
                name: "serve",
                start_ns: 1_000,
                end_ns: 3_001_000,
                thread: "sew-0-r0".into(),
            },
            crate::SpanRecord {
                trace: 42,
                span: 421,
                parent: 420,
                name: "serve.hop_expand",
                start_ns: 2_000,
                end_ns: 900_000,
                thread: "sew-0-r0".into(),
            },
        ]);
        let server =
            OpsServer::start("127.0.0.1:0", state.retained_traces(Arc::clone(&retained))).unwrap();
        let (status, body) = http_get(server.addr(), "/traces");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"trace\":42"), "{body}");
        assert!(body.contains("\"reasons\":[\"slow\"]"), "{body}");
        let (status, body) = http_get(server.addr(), "/traces?id=42");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"name\":\"serve.hop_expand\""), "{body}");
        assert_eq!(body.lines().count(), 2, "one JSONL line per span");
        let (status, body) = http_get(server.addr(), "/traces?id=42&format=chrome");
        assert!(status.contains("200"), "{status}");
        assert!(body.starts_with('[') && body.trim_end().ends_with(']'));
        assert!(body.contains("\"ph\":\"X\""), "{body}");
        let (status, _) = http_get(server.addr(), "/traces?id=999");
        assert!(status.contains("404"), "{status}");
        let (status, _) = http_get(server.addr(), "/traces?id=bogus");
        assert!(status.contains("400"), "{status}");
    }

    #[test]
    fn profile_endpoint_returns_folded_stacks() {
        use helios_types::profile::{push_frame, register_thread, FrameLabel};
        static OPS_BUSY: FrameLabel = FrameLabel::new("ops-busy-frame");
        let (_registry, _healthy, state) = test_state();
        let profiler = Arc::new(Profiler::new(&Registry::new()));
        let server = OpsServer::start("127.0.0.1:0", state.profiler(profiler)).unwrap();
        // No profiler attached path is covered by 404 below via a fresh
        // state; here exercise the happy path with one busy thread.
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let h = std::thread::spawn(move || {
            let _token = register_thread("ops-profile-busy");
            let _f = push_frame(&OPS_BUSY);
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (status, body) = http_get(server.addr(), "/profile?seconds=0.15");
        stop.store(true, Ordering::Relaxed);
        h.join().unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(
            body.lines()
                .any(|l| l.starts_with("ops-profile-busy;ops-busy-frame ")),
            "{body}"
        );
        let (status, _) = http_get(server.addr(), "/profile?seconds=-3");
        assert!(status.contains("400"), "{status}");
        let (status, _) = http_get(server.addr(), "/profile?seconds=0.1&format=chrome");
        assert!(status.contains("400"), "{status}");
        // Unattached profiler 404s.
        let (_registry, _healthy, bare) = test_state();
        let bare_server = OpsServer::start("127.0.0.1:0", bare).unwrap();
        let (status, _) = http_get(bare_server.addr(), "/profile");
        assert!(status.contains("404"), "{status}");
    }

    #[test]
    fn recorder_endpoint_dumps_ring() {
        let (_registry, _healthy, state) = test_state();
        let rec = FlightRecorder::new(16);
        rec.record(EventKind::LagSample, 0, 7, 7, 0);
        let server = OpsServer::start("127.0.0.1:0", state.recorder(Arc::clone(&rec))).unwrap();
        let (status, body) = http_get(server.addr(), "/recorder");
        assert!(status.contains("200"));
        assert!(body.contains("\"kind\":\"lag_sample\""));
    }
}
