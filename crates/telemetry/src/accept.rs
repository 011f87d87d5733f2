//! The one TCP accept loop every server in a Helios process runs on: the
//! ops HTTP server, the wire frame server and the gateway.
//!
//! The listener is nonblocking and polled, so shutdown needs no wake-up
//! connection. Connections run either inline on the accept thread (ops
//! traffic: trusted, tiny, one request each) or on a thread of their own.
//! A threaded connection is tracked until its thread returns, then
//! forgotten, so a handler that returns really hangs up and no closed
//! connection pins a descriptor.

use helios_types::FxHashMap;
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How an [`AcceptLoop`] runs each accepted connection.
#[derive(Debug, Clone, Copy)]
pub enum ConnMode {
    /// On the accept thread, one connection at a time.
    Inline,
    /// On its own thread named `<prefix>-<peer>`, with `TCP_NODELAY` set.
    Threaded(&'static str),
}

/// Threaded connections still being handled, by accept sequence number.
type Live = Arc<Mutex<FxHashMap<u64, (TcpStream, JoinHandle<()>)>>>;

/// A running accept loop; [`AcceptLoop::shutdown`] (or drop) stops it.
pub struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    live: Live,
}

impl AcceptLoop {
    /// Bind `addr` (port `0` for an ephemeral port) and accept on a thread
    /// named `name(bound address)`, sleeping `poll` whenever no connection
    /// is waiting. Each connection is handed to `handler` with its peer
    /// address, as `mode` says.
    pub fn start(
        addr: &str,
        name: impl FnOnce(SocketAddr) -> String,
        poll: Duration,
        mode: ConnMode,
        handler: impl Fn(TcpStream, SocketAddr) + Send + Sync + 'static,
    ) -> std::io::Result<AcceptLoop> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let live: Live = Arc::default();
        let thread = {
            let stop = Arc::clone(&stop);
            let live = Arc::clone(&live);
            let handler = Arc::new(handler);
            std::thread::Builder::new()
                .name(name(addr))
                .spawn(move || {
                    let mut seq = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let Ok((stream, peer)) = listener.accept() else {
                            std::thread::sleep(poll);
                            continue;
                        };
                        let ConnMode::Threaded(prefix) = mode else {
                            handler(stream, peer);
                            continue;
                        };
                        if stream.set_nodelay(true).is_err() {
                            continue;
                        }
                        let Ok(track) = stream.try_clone() else {
                            continue;
                        };
                        seq += 1;
                        let id = seq;
                        let (handler, untrack) = (Arc::clone(&handler), Arc::clone(&live));
                        // Spawn holding the set, so the thread's own removal
                        // cannot run before its entry is in. A failed spawn (fd
                        // or thread pressure) just drops the connection.
                        let mut set = live.lock();
                        let spawned = std::thread::Builder::new()
                            .name(format!("{prefix}-{peer}"))
                            .spawn(move || {
                                handler(stream, peer);
                                untrack.lock().remove(&id);
                            });
                        if let Ok(conn) = spawned {
                            set.insert(id, (track, conn));
                        }
                    }
                })?
        };
        Ok(AcceptLoop {
            addr,
            stop,
            thread: Some(thread),
            live,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every live connection, and join the accept
    /// thread and the connections' threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
        let live: Vec<_> = self.live.lock().drain().map(|(_, conn)| conn).collect();
        for (stream, _) in &live {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for (_, conn) in live {
            let _ = conn.join();
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Instant;

    #[test]
    fn shutdown_closes_live_connections() {
        // A threaded loop whose handler echoes one byte, then returns.
        let mut server = AcceptLoop::start(
            "127.0.0.1:0",
            |_| "accept-test".into(),
            Duration::from_millis(2),
            ConnMode::Threaded("accept-conn"),
            |mut stream, _| {
                let mut byte = [0u8; 1];
                if stream.read_exact(&mut byte).is_ok() {
                    let _ = stream.write_all(&byte);
                }
            },
        )
        .unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.live.lock().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        server.shutdown();
        let mut got = Vec::new();
        assert!(
            client.read_to_end(&mut got).is_ok(),
            "shutdown left it open"
        );
        assert!(got.is_empty());
    }
}
