//! The threaded TCP server: one listener, one detached thread per
//! connection, one shared [`QueryEngine`].
//!
//! Availability is treated as a correctness property:
//!
//! * **read/write timeouts** — an idle or stalled peer is disconnected
//!   after [`ServerConfig::read_timeout`] / `write_timeout`, so dead
//!   connections never pin threads forever;
//! * **bounded in-flight queries** — a counting semaphore caps
//!   concurrently-executing queries; at the cap the server *sheds* with
//!   an explicit `{"ok":false,"error":"overloaded"}` instead of queueing
//!   unboundedly (`ping`/`stats` bypass the gate so health checks work
//!   under load);
//! * **malformed requests never kill the connection** — every parse or
//!   compute failure is a structured error reply and the next line is
//!   read fresh;
//! * **graceful shutdown** — [`ServerHandle::shutdown`] stops the accept
//!   loop, connection threads stop picking up new lines, and the server
//!   waits (up to [`ServerConfig::shutdown_grace`]) for every in-flight
//!   query to finish and flush its reply before reporting
//!   [`ServeReport::drained`].

use crate::engine::{EngineConfig, EngineStats, QueryEngine};
use crate::protocol::{error_reply, ok_reply, Query, Request};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A request line longer than this (without a newline) is refused and
/// the connection closed — the one malformed-input case that cannot be
/// answered line-by-line, because the line never ends.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How the server behaves; `Default` is the production shape.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port `0` picks a free port (tests).
    pub addr: String,
    /// Cap on concurrently-executing queries across all connections;
    /// above it new queries are shed with `"overloaded"`.
    pub max_inflight: usize,
    /// Disconnect a peer that sends nothing for this long.
    pub read_timeout: Duration,
    /// Abandon a peer that cannot absorb a reply for this long.
    pub write_timeout: Duration,
    /// How long shutdown waits for in-flight queries to drain.
    pub shutdown_grace: Duration,
    /// Size guards forwarded to the [`QueryEngine`].
    pub engine: EngineConfig,
    /// Honor the `sleep` op (test instrumentation for backpressure and
    /// drain assertions). Never enable in production.
    pub enable_sleep_op: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 256,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            shutdown_grace: Duration::from_secs(10),
            engine: EngineConfig::default(),
            enable_sleep_op: false,
        }
    }
}

/// What one server run did, reported when the accept loop exits.
#[derive(Debug, Clone, Copy)]
pub struct ServeReport {
    /// `true` when every in-flight query finished (and flushed its
    /// reply) within the shutdown grace period.
    pub drained: bool,
    /// Connections accepted over the run.
    pub connections: usize,
    /// Ok replies written.
    pub served: usize,
    /// Error replies written (parse failures, refusals, compute errors).
    pub errors: usize,
    /// Queries shed at the in-flight cap.
    pub shed: usize,
    /// Single-flight counters at exit.
    pub singleflight: EngineStats,
}

/// State shared by the accept loop, every connection thread, and every
/// handle.
struct Shared {
    engine: QueryEngine,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    /// The counting semaphore: queries currently executing (reply not
    /// yet flushed).
    inflight: AtomicUsize,
    connections: AtomicUsize,
    served: AtomicUsize,
    errors: AtomicUsize,
    shed: AtomicUsize,
}

impl Shared {
    /// Acquire one in-flight slot, or refuse at the cap.
    fn try_enter(&self) -> bool {
        self.inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                (v < self.cfg.max_inflight).then_some(v + 1)
            })
            .is_ok()
    }
}

/// Decrements the in-flight gauge on drop, so a panicking or
/// early-returning handler can never leak a slot.
struct GateGuard<'a>(&'a Shared);

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A clonable remote control for a running server.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin graceful shutdown: stop accepting, let in-flight queries
    /// drain. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Queries executing right now.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Acquire)
    }
}

/// A bound, running server.
pub struct Server {
    local_addr: SocketAddr,
    handle: ServerHandle,
    join: JoinHandle<ServeReport>,
}

impl Server {
    /// Binds `cfg.addr` and starts the accept loop on its own thread.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: QueryEngine::new(cfg.engine),
            cfg,
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            served: AtomicUsize::new(0),
            errors: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
        });
        let handle = ServerHandle {
            shared: Arc::clone(&shared),
        };
        let join = std::thread::Builder::new()
            .name("sg-serve-accept".to_string())
            .spawn(move || accept_loop(listener, shared))
            .expect("spawn accept loop");
        Ok(Server {
            local_addr,
            handle,
            join,
        })
    }

    /// Where the server actually listens (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A remote control (clonable, usable from signal watchers).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Waits for the accept loop to exit (after
    /// [`ServerHandle::shutdown`]) and reports the run.
    pub fn join(self) -> ServeReport {
        self.join.join().expect("accept loop never panics")
    }
}

/// Accept loop: nonblocking accept polled against the shutdown flag,
/// then the drain wait.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) -> ServeReport {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                // Detached, small-stack worker: the deep recursions all
                // live in the engine's computes, not the I/O path.
                let spawned = std::thread::Builder::new()
                    .name("sg-serve-conn".to_string())
                    .stack_size(256 * 1024)
                    .spawn(move || handle_connection(stream, &conn_shared));
                if spawned.is_err() {
                    // Thread exhaustion: the accept succeeded but the
                    // connection cannot be served; dropping the stream
                    // closes it, and the listener keeps running.
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Graceful drain: every in-flight query gets `shutdown_grace` to
    // finish and flush.
    let deadline = Instant::now() + shared.cfg.shutdown_grace;
    while shared.inflight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    ServeReport {
        drained: shared.inflight.load(Ordering::Acquire) == 0,
        connections: shared.connections.load(Ordering::Relaxed),
        served: shared.served.load(Ordering::Relaxed),
        errors: shared.errors.load(Ordering::Relaxed),
        shed: shared.shed.load(Ordering::Relaxed),
        singleflight: shared.engine.stats(),
    }
}

/// One connection: buffered line reading in short timeout slices (so the
/// thread notices shutdown promptly while still tolerating long idle),
/// one reply line per request line.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let slice = Duration::from_millis(250).min(shared.cfg.read_timeout);
    if stream.set_read_timeout(Some(slice)).is_err()
        || stream
            .set_write_timeout(Some(shared.cfg.write_timeout))
            .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut idle = Duration::ZERO;
    let mut chunk = [0u8; 4096];
    loop {
        // Serve every complete line already buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..pos]).into_owned();
            if !serve_line(&mut stream, shared, line.trim()) {
                return;
            }
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if buf.len() > MAX_LINE_BYTES {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            let reply = error_reply(None, "request line over 64KiB; closing connection");
            let _ = write_line(&mut stream, &reply);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF
            Ok(k) => {
                buf.extend_from_slice(&chunk[..k]);
                idle = Duration::ZERO;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                idle += slice;
                if idle >= shared.cfg.read_timeout {
                    return; // idle peer
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Parses and answers one line. Returns `false` when the connection
/// should close (write failure only — bad requests get error replies).
fn serve_line(stream: &mut TcpStream, shared: &Shared, line: &str) -> bool {
    if line.is_empty() {
        return true;
    }
    let req = match Request::parse(line) {
        Err(msg) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return write_line(stream, &error_reply(None, &msg));
        }
        Ok(req) => req,
    };
    if matches!(req.query, Query::Sleep { .. }) && !shared.cfg.enable_sleep_op {
        shared.errors.fetch_add(1, Ordering::Relaxed);
        return write_line(stream, &error_reply(req.id, "unknown op `sleep`"));
    }
    // Health and introspection bypass the gate: they must answer even
    // (especially) when the server is saturated.
    let gated = !matches!(req.query, Query::Ping | Query::Stats);
    // The guard is held until the reply is *flushed*, so the drain wait
    // in [`accept_loop`] covers the write, not just the compute.
    let _guard = if gated {
        if !shared.try_enter() {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            return write_line(stream, &error_reply(req.id, "overloaded"));
        }
        Some(GateGuard(shared))
    } else {
        None
    };
    let reply = match shared.engine.handle(&req.query) {
        Ok(body) => {
            shared.served.fetch_add(1, Ordering::Relaxed);
            ok_reply(req.id, &body)
        }
        Err(msg) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            error_reply(req.id, &msg)
        }
    };
    write_line(stream, &reply)
}

/// Writes one newline-terminated reply; `false` on any write failure.
fn write_line(stream: &mut TcpStream, line: &str) -> bool {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    stream.write_all(framed.as_bytes()).is_ok()
}
