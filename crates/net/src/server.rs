//! The frame server: a hand-rolled TCP front for any [`NetService`],
//! on the same [`AcceptLoop`] as the telemetry ops server.
//!
//! Each accepted connection gets one handler thread that decodes frames
//! in order and writes replies back on the same stream, so requests from
//! one client are processed FIFO while different connections proceed in
//! parallel. The serve path is zero-copy on the reply side: the encoded
//! subgraph goes from the service's scratch buffer straight into the
//! socket, never through a [`Payload`] allocation.
//!
//! Malformed frames never take the process down: the offending
//! connection gets a best-effort `Error { Codec }` reply, the frame is
//! counted into the `serving.decode_errors` pipeline (plus a
//! [`EventKind::DecodeError`] flight event), and the connection closes.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bytes::BytesMut;
use helios_telemetry::{AcceptLoop, ConnMode, EventKind, FlightRecorder};
use helios_types::profile::register_thread;
use helios_types::{HeliosError, Result, VertexId};

use crate::transport::NetMetrics;
use crate::wire::{self, ErrCode, Payload};

/// What a process exposes to the network plane.
///
/// The split mirrors the serving worker's own shape: `serve_encoded` is
/// the latency-critical path and writes into a caller-owned buffer;
/// everything else goes through `handle`, which never fails — errors
/// come back as [`Payload::Error`] so they cross the wire like any
/// other reply.
pub trait NetService: Send + Sync {
    /// Serve one seed, appending the canonical encoded subgraph to `out`.
    fn serve_encoded(&self, seed: VertexId, out: &mut Vec<u8>) -> Result<()>;

    /// Handle any non-serve request.
    fn handle(&self, payload: Payload) -> Payload;
}

/// A running frame server.
pub struct NetServer {
    accept: AcceptLoop,
}

impl NetServer {
    /// Bind `addr` (port 0 for ephemeral) and serve `service`.
    pub fn start(
        addr: &str,
        service: Arc<dyn NetService>,
        metrics: Arc<NetMetrics>,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> std::io::Result<NetServer> {
        let accept = AcceptLoop::start(
            addr,
            |bound| format!("net-accept-{}", bound.port()),
            Duration::from_millis(2),
            ConnMode::Threaded("net-conn"),
            move |stream, peer| {
                // Serves run here: registered, their stages show up in
                // `/profile`.
                let _profiled = register_thread(format!("net-conn-{peer}"));
                metrics.connection_delta(1);
                let _ = handle_connection(stream, &service, &metrics, recorder.as_deref());
                metrics.connection_delta(-1);
            },
        )?;
        Ok(NetServer { accept })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }

    /// Stop accepting and tear down every open connection.
    pub fn shutdown(mut self) {
        self.accept.shutdown();
    }
}

/// Serve one connection until EOF, error, or a malformed frame.
fn handle_connection(
    stream: TcpStream,
    service: &Arc<dyn NetService>,
    metrics: &Arc<NetMetrics>,
    recorder: Option<&FlightRecorder>,
) -> Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut scratch = BytesMut::with_capacity(512);
    let mut serve_buf: Vec<u8> = Vec::new();
    loop {
        let (frame, bytes) = match wire::read_frame(&mut reader) {
            Ok(Some(got)) => got,
            Ok(None) => return Ok(()),
            Err(HeliosError::Codec(msg)) => {
                // Count the bad frame where operators already look for
                // corrupt data, answer, and hang up: after a framing
                // error the stream position is unrecoverable.
                metrics.decode_error();
                if let Some(r) = recorder {
                    r.record(EventKind::DecodeError, u32::MAX, 1, 0, 0);
                }
                let reply = Payload::Error {
                    code: ErrCode::Codec,
                    message: msg,
                };
                let _ = wire::write_frame(&mut writer, 0, &reply, &mut scratch)
                    .and_then(|_| writer.flush().map_err(HeliosError::from));
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        metrics.frame(frame.payload.kind(), bytes, false);
        let request_id = frame.request_id;
        let wrote = match frame.payload {
            Payload::Serve { seed } => {
                serve_buf.clear();
                match service.serve_encoded(seed, &mut serve_buf) {
                    Ok(()) => wire::write_raw_frame(&mut writer, 2, request_id, &serve_buf)
                        .map(|n| (n, 2u8)),
                    Err(e) => {
                        let reply = Payload::Error {
                            code: ErrCode::from_error(&e),
                            message: e.to_string(),
                        };
                        wire::write_frame(&mut writer, request_id, &reply, &mut scratch)
                            .map(|n| (n, reply.kind()))
                    }
                }
            }
            other => {
                let reply = service.handle(other);
                wire::write_frame(&mut writer, request_id, &reply, &mut scratch)
                    .map(|n| (n, reply.kind()))
            }
        };
        let (n, kind) = wrote?;
        writer.flush()?;
        metrics.frame(kind, n, true);
    }
}
