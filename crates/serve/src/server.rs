//! The server proper: accept loop, bounded admission queue, worker pool,
//! routing, and graceful shutdown.
//!
//! Threading model:
//!
//! * One **accept thread** waits in `poll(2)` until the listener has a
//!   connection, so an arriving client is accepted at once, not on the
//!   next tick of an interval. The wait times out after 50 ms
//!   (`ACCEPT_WAIT`) and a signal cuts it short, so the stop flag, the
//!   signal flag and the idle timeout are re-checked at least that often.
//!   Each accepted connection is `try_send`-ed into a bounded
//!   [`mpsc::sync_channel`]; when the queue is full the accept thread
//!   answers **503** itself and drops the connection — admission control
//!   costs one syscall, never a worker. Backpressure is therefore
//!   explicit and bounded: at most `queue_cap` connections wait,
//!   `workers` evaluate, everything else is refused immediately instead
//!   of accumulating memory.
//! * `workers` **worker threads** share the receiver behind a mutex,
//!   each serving one connection end to end (one request per connection,
//!   `Connection: close`), so admission counts are exact.
//! * **Shutdown** is a single atomic flag, set by SIGTERM/SIGINT (when
//!   handlers are installed), by `POST /v1/shutdown`, or by the idle
//!   timeout. The accept thread sees it within one `ACCEPT_WAIT`,
//!   stops accepting and drops the sender; workers drain the queue and
//!   exit; `ServerHandle::join` returns.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use seqavf_obs::Collector;

use crate::api::{AvfRequest, DesignUpdateRequest};
use crate::http;
use crate::resident::{Resident, ResidentConfig};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads evaluating requests.
    pub workers: usize,
    /// Bounded admission queue: connections waiting for a worker beyond
    /// this are answered 503.
    pub queue_cap: usize,
    /// Residency settings (LRU capacity, eval threads, disk caches).
    pub resident: ResidentConfig,
    /// Exit after this long with no accepted connection (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Install SIGTERM/SIGINT handlers (the CLI does; tests must not,
    /// since handlers are process-global).
    pub signal_handlers: bool,
    /// Per-read socket timeout.
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_cap: 32,
            resident: ResidentConfig::default(),
            idle_timeout: None,
            signal_handlers: false,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// State shared by the accept thread and every worker.
struct Shared {
    resident: Resident,
    obs: Collector,
    stop: AtomicBool,
    /// Connections currently queued (admission gauge).
    queue_depth: AtomicUsize,
    /// Total requests answered, by coarse class.
    served: AtomicU64,
    rejected: AtomicU64,
    started: Instant,
    read_timeout: Duration,
}

/// Process-global flag flipped by the signal handler. Signal-safe: the
/// handler does one relaxed store and returns.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
fn install_signal_handlers() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// How long the accept thread blocks waiting for a connection before it
/// re-checks the stop flag, the signal flag and the idle timeout.
const ACCEPT_WAIT: Duration = Duration::from_millis(50);

/// Blocks until `listener` has a connection to accept or `ACCEPT_WAIT`
/// passes. A signal ends the wait early (`EINTR`); every outcome simply
/// returns, since the caller re-checks its flags and then tries `accept`.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener) {
    use std::ffi::{c_int, c_short, c_ulong};
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    // `nfds_t` is `unsigned long` on Linux; a count of 1 reads the same
    // where it is `unsigned int`.
    unsafe extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
    const POLLIN: c_short = 0x1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let millis = c_int::try_from(ACCEPT_WAIT.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fd` is one live, writable `pollfd` for the whole call and
    // `nfds` is 1; the listener's descriptor stays open while it is
    // borrowed. The result is ignored: readiness, timeout and `EINTR` all
    // lead back to the caller's checks.
    unsafe {
        poll(&mut fd, 1, millis);
    }
}

#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener) {
    std::thread::sleep(Duration::from_millis(1));
}

/// A running server: its bound address plus join/shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown without waiting.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }

    /// Blocks until the server exits (shutdown request, signal, or idle
    /// timeout), then joins every thread.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Binds the listener and spawns the accept thread plus worker pool.
pub fn spawn(cfg: ServeConfig, obs: Collector) -> Result<ServerHandle, String> {
    if cfg.signal_handlers {
        SIGNALLED.store(false, Ordering::Relaxed);
        install_signal_handlers();
    }
    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set nonblocking accept: {e}"))?;

    let shared = Arc::new(Shared {
        resident: Resident::new(cfg.resident.clone(), obs.clone()),
        obs,
        stop: AtomicBool::new(false),
        queue_depth: AtomicUsize::new(0),
        served: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        started: Instant::now(),
        read_timeout: cfg.read_timeout,
    });

    let (tx, rx) = mpsc::sync_channel::<TcpStream>(cfg.queue_cap.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let workers = (0..cfg.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, &rx))
                .map_err(|e| format!("cannot spawn worker: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;

    let accept_shared = Arc::clone(&shared);
    let watch_signals = cfg.signal_handlers;
    let idle_timeout = cfg.idle_timeout;
    let accept_thread = std::thread::Builder::new()
        .name("serve-accept".to_owned())
        .spawn(move || accept_loop(&listener, &tx, &accept_shared, watch_signals, idle_timeout))
        .map_err(|e| format!("cannot spawn accept thread: {e}"))?;

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        workers,
    })
}

/// Accepts connections until shutdown, enforcing admission control.
/// Dropping `tx` on exit is the workers' drain-and-stop signal.
fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    shared: &Shared,
    watch_signals: bool,
    idle_timeout: Option<Duration>,
) {
    let mut last_activity = Instant::now();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        if watch_signals && SIGNALLED.load(Ordering::Relaxed) {
            shared.stop.store(true, Ordering::Relaxed);
            return;
        }
        if let Some(limit) = idle_timeout {
            if last_activity.elapsed() > limit {
                shared.stop.store(true, Ordering::Relaxed);
                return;
            }
        }
        match listener.accept() {
            Ok((stream, _)) => {
                last_activity = Instant::now();
                // Accepted sockets must block regardless of what they
                // inherit from the nonblocking listener.
                let _ = stream.set_nonblocking(false);
                shared.queue_depth.fetch_add(1, Ordering::Relaxed);
                match tx.try_send(stream) {
                    Ok(()) => {
                        shared.obs.count("serve.queue.enqueued", 1);
                    }
                    Err(TrySendError::Full(stream)) => {
                        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        shared.rejected.fetch_add(1, Ordering::Relaxed);
                        shared.obs.count("serve.rejected", 1);
                        reject(stream);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait_for_connection(listener);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Refuses one connection with a 503 at the accept thread. The pending
/// request bytes are drained first — closing a socket with unread data
/// provokes a TCP RST that would destroy the 503 before the client reads
/// it. One bounded read (≤100 ms, ≤8 KiB) keeps the accept thread's
/// worst case small; everything here is best-effort.
fn reject(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 8192];
    let _ = std::io::Read::read(&mut stream, &mut sink);
    let _ = http::write_error(
        &mut stream,
        503,
        "server busy: admission queue is full, retry later",
    );
}

/// One worker: pull queued connections and serve them until the channel
/// disconnects (drain) or shutdown is flagged with an empty queue.
fn worker_loop(shared: &Shared, rx: &Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        let next = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
            guard.recv_timeout(Duration::from_millis(50))
        };
        match next {
            Ok(stream) => {
                shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                serve_connection(shared, stream);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Relaxed) {
                    // Shutdown flagged; anything still queued will be
                    // drained by whichever worker wins the next recv, and
                    // an empty queue means we are done.
                    continue;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves exactly one request on `stream`.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let request = match http::read_request(&mut stream, shared.read_timeout) {
        Ok(r) => r,
        Err(http::ReadError::Closed) => return,
        Err(e @ http::ReadError::TooLarge(_)) => {
            let _ = http::write_error(&mut stream, 413, &e.to_string());
            return;
        }
        Err(e @ http::ReadError::Malformed(_)) => {
            let _ = http::write_error(&mut stream, 400, &e.to_string());
            return;
        }
        Err(http::ReadError::Io(_)) => return,
    };
    let t0 = Instant::now();
    let status = route(shared, &request, &mut stream);
    shared.served.fetch_add(1, Ordering::Relaxed);
    let mut span = shared.obs.span("serve.request");
    span.field_str("path", &request.path);
    span.field_u64("status", u64::from(status));
    span.field_f64("wall_ms", t0.elapsed().as_secs_f64() * 1e3);
}

/// Dispatches one request; returns the status answered.
fn route(shared: &Shared, request: &http::Request, stream: &mut TcpStream) -> u16 {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/avf") => {
            let body = match std::str::from_utf8(&request.body) {
                Ok(b) => b,
                Err(_) => {
                    let _ = http::write_error(stream, 400, "request body is not UTF-8");
                    return 400;
                }
            };
            let req: AvfRequest = match serde_json::from_str(body) {
                Ok(r) => r,
                Err(e) => {
                    let _ = http::write_error(stream, 400, &format!("cannot parse request: {e}"));
                    return 400;
                }
            };
            match shared.resident.handle(&req) {
                Ok(resp) => match serde_json::to_string(&resp) {
                    Ok(text) => {
                        let _ = http::write_json(stream, 200, &text);
                        200
                    }
                    Err(e) => {
                        let _ = http::write_error(
                            stream,
                            500,
                            &format!("cannot serialize response: {e}"),
                        );
                        500
                    }
                },
                Err(e) => {
                    let _ = http::write_error(stream, e.status, &e.message);
                    e.status
                }
            }
        }
        ("POST", "/v1/design-update") => {
            let body = match std::str::from_utf8(&request.body) {
                Ok(b) => b,
                Err(_) => {
                    let _ = http::write_error(stream, 400, "request body is not UTF-8");
                    return 400;
                }
            };
            let req: DesignUpdateRequest = match serde_json::from_str(body) {
                Ok(r) => r,
                Err(e) => {
                    let _ = http::write_error(stream, 400, &format!("cannot parse request: {e}"));
                    return 400;
                }
            };
            match shared.resident.handle_design_update(&req) {
                Ok(resp) => match serde_json::to_string(&resp) {
                    Ok(text) => {
                        let _ = http::write_json(stream, 200, &text);
                        200
                    }
                    Err(e) => {
                        let _ = http::write_error(
                            stream,
                            500,
                            &format!("cannot serialize response: {e}"),
                        );
                        500
                    }
                },
                Err(e) => {
                    let _ = http::write_error(stream, e.status, &e.message);
                    e.status
                }
            }
        }
        ("GET", "/healthz") => {
            let health = shared.resident.health();
            match serde_json::to_string(&health) {
                Ok(text) => {
                    let _ = http::write_json(stream, 200, &text);
                    200
                }
                Err(_) => {
                    let _ = http::write_error(stream, 500, "cannot serialize health");
                    500
                }
            }
        }
        ("GET", "/metrics") => {
            let text = render_metrics(shared);
            let _ = http::write_response(stream, 200, "text/plain; version=0.0.4", text.as_bytes());
            200
        }
        ("POST", "/v1/shutdown") => {
            shared.stop.store(true, Ordering::Relaxed);
            let _ = http::write_json(stream, 200, "{\"status\": \"shutting down\"}");
            200
        }
        (_, "/v1/avf") | (_, "/v1/design-update") | (_, "/v1/shutdown") => {
            let _ = http::write_error(stream, 405, "use POST");
            405
        }
        (_, "/healthz") | (_, "/metrics") => {
            let _ = http::write_error(stream, 405, "use GET");
            405
        }
        (_, path) => {
            let _ = http::write_error(stream, 404, &format!("no route for {path}"));
            404
        }
    }
}

/// Renders the Prometheus-style text exposition: server gauges first,
/// then every collector counter with dots mapped to underscores.
fn render_metrics(shared: &Shared) -> String {
    let health = shared.resident.health();
    let (graph_evictions, sweep_evictions) = shared.resident.evictions();
    let mut out = String::new();
    let mut push = |name: &str, value: f64| {
        // Integral values render without a fraction to stay greppable.
        if value.fract() == 0.0 && value.abs() < 1e15 {
            out.push_str(&format!("{name} {}\n", value as i64));
        } else {
            out.push_str(&format!("{name} {value}\n"));
        }
    };
    push(
        "seqavf_serve_uptime_seconds",
        shared.started.elapsed().as_secs_f64(),
    );
    push(
        "seqavf_serve_queue_depth",
        shared.queue_depth.load(Ordering::Relaxed) as f64,
    );
    push(
        "seqavf_serve_requests_total",
        shared.served.load(Ordering::Relaxed) as f64,
    );
    push(
        "seqavf_serve_rejected_total",
        shared.rejected.load(Ordering::Relaxed) as f64,
    );
    push(
        "seqavf_serve_resident_graphs",
        health.resident_graphs as f64,
    );
    push(
        "seqavf_serve_resident_sweeps",
        health.resident_sweeps as f64,
    );
    push("seqavf_serve_evictions_graph_total", graph_evictions as f64);
    push("seqavf_serve_evictions_sweep_total", sweep_evictions as f64);
    for (name, value) in shared.obs.counters() {
        push(&format!("seqavf_{}", name.replace('.', "_")), value as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    fn tiny_server(workers: usize, queue_cap: usize) -> ServerHandle {
        spawn(
            ServeConfig {
                workers,
                queue_cap,
                ..ServeConfig::default()
            },
            Collector::new(),
        )
        .unwrap()
    }

    #[test]
    fn healthz_and_metrics_respond() {
        let server = tiny_server(1, 4);
        let addr = server.addr();
        let (status, body) = client::get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""), "{body}");
        let (status, body) = client::get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("seqavf_serve_queue_depth"), "{body}");
        assert!(body.contains("seqavf_serve_uptime_seconds"), "{body}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn unknown_routes_and_methods_get_named_statuses() {
        let server = tiny_server(1, 4);
        let addr = server.addr();
        let (status, body) = client::get(addr, "/nope").unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("/nope"));
        let (status, _) = client::post_json(addr, "/healthz", "{}").unwrap();
        assert_eq!(status, 405);
        // An out-of-range pAVF table is a malformed body, not a design to
        // evaluate: it must fail to decode before any file is read.
        let out_of_range = r#"{"design_path":"absent.exlif","tables":[{"workload":"w",
            "inputs":{"ports":{"f.s1":{"read":-0.5,"write":-0.5}},
            "structure_avfs":{"f.s1":7.0}}}]}"#;
        for body in ["not json", out_of_range] {
            let (status, text) = client::post_json(addr, "/v1/avf", body).unwrap();
            assert_eq!(status, 400);
            assert!(text.contains("cannot parse request"), "{text}");
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn shutdown_endpoint_stops_the_server() {
        let server = tiny_server(1, 4);
        let addr = server.addr();
        let (status, _) = client::post_json(addr, "/v1/shutdown", "{}").unwrap();
        assert_eq!(status, 200);
        // join() must return: accept loop sees the flag, workers drain.
        server.join();
        // The port is closed afterwards.
        assert!(client::get(addr, "/healthz").is_err());
    }

    #[test]
    fn idle_timeout_shuts_down_unattended_servers() {
        let server = spawn(
            ServeConfig {
                idle_timeout: Some(Duration::from_millis(100)),
                ..ServeConfig::default()
            },
            Collector::new(),
        )
        .unwrap();
        // No traffic: join() should return on its own via the idle path.
        server.join();
    }
}
