//! A minimal, dependency-free HTTP/1.1 server for live observability
//! and fleet serving.
//!
//! Built on `std::net::TcpListener` with a **fixed worker pool**
//! behind a bounded admission gate: the accept loop runs on one
//! background thread and does nothing but admit connections — each
//! admitted connection is pushed onto a bounded queue drained by a
//! fixed set of pool workers, so load never translates into unbounded
//! thread creation. Admission is a single atomic reservation
//! ([`InflightGate`]); connections beyond the cap are answered `503`
//! instead of queueing unboundedly, and the reserved slot travels with
//! the connection as an RAII guard ([`InflightSlot`]) so a panic
//! anywhere in the connection's lifetime releases it.
//!
//! Connections are **keep-alive** by default: a worker answers
//! requests on the same socket until the client closes, sends
//! `Connection: close`, idles past the request timeout, or the server
//! shuts down. Shutdown is graceful and strictly ordered — the guard
//! sets a flag, wakes the accept loop with a loopback connection,
//! joins it, closes the queue and joins **every pool worker** (so all
//! admitted requests have fully finished), and only then runs
//! [`ServerBuilder::on_shutdown`] hooks and flushes the installed
//! telemetry sink.
//!
//! Every server answers three built-in routes:
//!
//! * `GET /metrics` — Prometheus text format 0.0.4
//!   ([`crate::expose::render_prometheus`]);
//! * `GET /healthz` — `200 ok` liveness probe;
//! * `GET /summary.json` — the JSON registry summary.
//!
//! Additional routes (e.g. the serving path's `POST /decide`) are
//! registered through [`ServerBuilder::route`]; path-prefix routes
//! (e.g. the fleet path's `POST /decide/{tenant}`) through
//! [`ServerBuilder::route_prefix`]. Each request also feeds
//! `http.requests` / `http.request.ns` registry metrics, so the
//! server observes itself.
//!
//! The server is hardened against hostile clients: request bodies are
//! capped ([`ServerBuilder::max_body_bytes`], `413`), stalled reads
//! time out ([`ServerBuilder::request_timeout`], `408`), every
//! server-generated failure is a structured JSON body
//! (`{"error": …, "status": …}`, see [`Response::error`]), and a
//! panicking handler is contained to a `500` plus an `http.panics`
//! counter instead of tearing down the connection.
//!
//! Requests carry an identity: a client-supplied `X-Request-Id` is
//! validated ([`valid_request_id`]; malformed ids are rejected with a
//! structured `422` before any handler runs) and echoed on every
//! response, including error responses generated after the headers
//! were parsed (oversized body, truncated body, non-UTF-8 body).
//! Handlers can stamp their own id (e.g. a minted one) via
//! [`Response::with_header`]; the echo only fills the gap.
//!
//! # Example
//!
//! ```
//! use hvac_telemetry::http::{HttpServer, Response};
//!
//! let server = HttpServer::builder()
//!     .route("GET", "/hello", |_req| Response::text(200, "hi"))
//!     .bind("127.0.0.1:0")
//!     .unwrap();
//! let (status, body) =
//!     hvac_telemetry::http::blocking_request(server.addr(), "GET", "/hello", "").unwrap();
//! assert_eq!((status, body.as_str()), (200, "hi"));
//! server.shutdown();
//! ```

use crate::registry::{counter, histogram, LATENCY_BOUNDS_NS};
use crate::{expose, Level};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default maximum admitted connections (queued + being served)
/// before `503` shedding; override with [`ServerBuilder::max_inflight`].
const MAX_INFLIGHT: usize = 64;
/// Default per-connection socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Poll slice while an idle keep-alive connection waits for its next
/// request, so it notices server shutdown promptly.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// Poll slice while other admitted connections are waiting for a
/// worker: an idle connection yields its worker after one slice so a
/// fixed pool round-robins across more connections than workers.
const TURN_POLL: Duration = Duration::from_millis(1);
/// Maximum requests served in one worker turn before a keep-alive
/// connection is rotated to the back of the queue, if other
/// connections are waiting. Bounds how long a hot connection can
/// monopolise a worker while others wait.
const MAX_TURN_REQUESTS: usize = 64;
/// Maximum accepted request header block.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Default maximum accepted request body.
const MAX_BODY_BYTES: usize = 256 * 1024;

/// Default pool width: one worker per core, clamped so a test binary
/// spawning many servers stays lightweight.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .clamp(2, 8)
}

/// Per-server request limits, configurable on [`ServerBuilder`].
#[derive(Debug, Clone, Copy)]
struct Limits {
    max_body_bytes: usize,
    request_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_body_bytes: MAX_BODY_BYTES,
            request_timeout: IO_TIMEOUT,
        }
    }
}

/// Header carrying the per-request trace id (client-supplied or
/// minted by the server; always echoed on the response).
pub const REQUEST_ID_HEADER: &str = "X-Request-Id";

/// Longest accepted client-supplied request id, matching
/// [`crate::ring::MAX_TRACE_ID_BYTES`].
pub const MAX_REQUEST_ID_BYTES: usize = 128;

/// A valid request id is 1–128 bytes of printable ASCII with no
/// spaces (`0x21..=0x7E`) — safe to embed verbatim in JSON, JSONL
/// audit records, and Prometheus-adjacent text without escaping
/// surprises.
pub fn valid_request_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_REQUEST_ID_BYTES
        && id.bytes().all(|b| (0x21..=0x7e).contains(&b))
}

/// Bounds concurrently admitted connections with a single atomic
/// reservation.
///
/// The slot is reserved with one `fetch_update` — the load-then-add
/// TOCTOU where two accepts both observe `capacity - 1` and both
/// increment past the cap is structurally impossible — and released by
/// [`InflightSlot`]'s `Drop`, so a panic on the holding thread can
/// never strand a slot (the leak that used to converge on a permanent
/// `503`).
#[derive(Debug)]
pub struct InflightGate {
    admitted: AtomicUsize,
    capacity: usize,
}

impl InflightGate {
    /// A gate admitting at most `capacity` concurrent holders.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            admitted: AtomicUsize::new(0),
            capacity,
        })
    }

    /// Reserves a slot, or `None` when the gate is at capacity.
    pub fn try_acquire(self: &Arc<Self>) -> Option<InflightSlot> {
        self.admitted
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.capacity).then_some(n + 1)
            })
            .ok()
            .map(|_| InflightSlot(Arc::clone(self)))
    }

    /// Currently admitted holders.
    pub fn admitted(&self) -> usize {
        self.admitted.load(Ordering::Acquire)
    }

    /// The admission cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// An RAII admission slot from [`InflightGate::try_acquire`]; the
/// release lives in `Drop` so it runs even when the holding thread
/// unwinds from a panic.
#[derive(Debug)]
pub struct InflightSlot(Arc<InflightGate>);

impl Drop for InflightSlot {
    fn drop(&mut self) {
        self.0.admitted.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// Request path without query string (`/decide`).
    pub path: String,
    /// Request headers in arrival order (names as sent; values
    /// trimmed). Lookup via [`Request::header`].
    pub headers: Vec<(String, String)>,
    /// Request body (empty when none was sent).
    pub body: String,
}

impl Request {
    /// First header value whose name matches case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The client-supplied `X-Request-Id`, if any (not validated).
    pub fn request_id(&self) -> Option<&str> {
        self.header(REQUEST_ID_HEADER)
    }

    /// Whether the client asked for the connection to be closed after
    /// this request.
    fn wants_close(&self) -> bool {
        self.header("Connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// An HTTP response to send back.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (`200`, `404`, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (e.g. the echoed `X-Request-Id`).
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a response header (builder style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// First header value whose name matches case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// A structured JSON error: `{"error": message, "status": status}`.
    ///
    /// All server-generated failures (parse errors, 404/405, panics,
    /// shedding) use this shape so clients never have to sniff whether
    /// an error body is prose or JSON.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            format!(
                "{{\"error\":{},\"status\":{status}}}",
                crate::json::escaped(message)
            ),
        )
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            Self::reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

struct Route {
    method: &'static str,
    path: String,
    /// `true` matches any request path that starts with `path`
    /// (exact routes always win over prefix routes).
    prefix: bool,
    handler: Handler,
}

/// Configures routes before binding an [`HttpServer`].
#[derive(Default)]
pub struct ServerBuilder {
    routes: Vec<Route>,
    limits: Limits,
    workers: Option<usize>,
    max_inflight: Option<usize>,
    shutdown_hooks: Vec<Box<dyn FnOnce() + Send>>,
}

impl ServerBuilder {
    /// Registers a handler for `method path` (exact path match, query
    /// strings stripped). User routes take precedence over the
    /// built-in `/metrics`, `/healthz`, and `/summary.json`.
    pub fn route(
        mut self,
        method: &'static str,
        path: impl Into<String>,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes.push(Route {
            method,
            path: path.into(),
            prefix: false,
            handler: Arc::new(handler),
        });
        self
    }

    /// Registers a handler for every path starting with `prefix`
    /// (e.g. `/decide/` to serve `/decide/{tenant}`). Exact routes win
    /// over prefix routes; among prefix routes the first registered
    /// match wins. The handler sees the full request path and strips
    /// the prefix itself.
    pub fn route_prefix(
        mut self,
        method: &'static str,
        prefix: impl Into<String>,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes.push(Route {
            method,
            path: prefix.into(),
            prefix: true,
            handler: Arc::new(handler),
        });
        self
    }

    /// Caps the accepted request body; larger `Content-Length`s are
    /// answered `413` without reading the body. Defaults to 256 KiB.
    pub fn max_body_bytes(mut self, bytes: usize) -> Self {
        self.limits.max_body_bytes = bytes;
        self
    }

    /// Socket read/write timeout per request; a client that stalls
    /// mid-request is answered `408`. Defaults to 10 s.
    pub fn request_timeout(mut self, timeout: Duration) -> Self {
        self.limits.request_timeout = timeout;
        self
    }

    /// Number of pool workers draining the connection queue (at least
    /// one). Defaults to the core count, clamped to 2–8.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    /// Caps admitted connections (queued + being served); connections
    /// beyond the cap are shed with `503`. Defaults to 64.
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = Some(n.max(1));
        self
    }

    /// Registers a hook run exactly once on graceful shutdown (explicit
    /// [`HttpServer::shutdown`] or drop), after the accept loop has
    /// been joined **and every pool worker has been drained and
    /// joined** — i.e. after the last admitted request has fully
    /// finished and its response was written. Serving layers rely on
    /// this ordering to seal audit chains without a late decision
    /// append racing the seal.
    pub fn on_shutdown(mut self, hook: impl FnOnce() + Send + 'static) -> Self {
        self.shutdown_hooks.push(Box::new(hook));
        self
    }

    /// Binds `addr` (e.g. `"127.0.0.1:9464"`, port 0 for ephemeral)
    /// and starts serving: one accept thread plus the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors.
    pub fn bind(mut self, addr: impl ToSocketAddrs) -> std::io::Result<HttpServer> {
        self.routes.push(Route {
            method: "GET",
            path: "/metrics".into(),
            prefix: false,
            handler: Arc::new(|_| {
                let mut r = Response::text(200, expose::render_prometheus());
                r.content_type = "text/plain; version=0.0.4; charset=utf-8";
                r
            }),
        });
        self.routes.push(Route {
            method: "GET",
            path: "/healthz".into(),
            prefix: false,
            handler: Arc::new(|_| Response::text(200, "ok")),
        });
        self.routes.push(Route {
            method: "GET",
            path: "/summary.json".into(),
            prefix: false,
            handler: Arc::new(|_| Response::json(200, expose::render_summary_json())),
        });
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let routes = Arc::new(self.routes);
        let limits = self.limits;
        let gate = InflightGate::new(self.max_inflight.unwrap_or(MAX_INFLIGHT));
        let queue = ConnQueue::new();
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            let gate = Arc::clone(&gate);
            std::thread::Builder::new()
                .name("hvac-http-accept".into())
                .spawn(move || accept_loop(&listener, &queue, &gate, limits, &shutdown))?
        };
        let worker_count = self.workers.unwrap_or_else(default_workers);
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let queue = Arc::clone(&queue);
            let routes = Arc::clone(&routes);
            let shutdown = Arc::clone(&shutdown);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("hvac-http-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &routes, limits, &shutdown))?,
            );
        }
        crate::message(
            Level::Info,
            format_args!(
                "metrics server listening on http://{local} ({worker_count} workers, \
                 {} inflight cap)",
                gate.capacity()
            ),
        );
        Ok(HttpServer {
            addr: local,
            shutdown,
            queue,
            accept_thread: Some(accept_thread),
            workers,
            shutdown_hooks: Mutex::new(self.shutdown_hooks),
        })
    }
}

/// An admitted connection travelling between the queue and the pool
/// workers; dropping it anywhere (queue close, worker panic unwind,
/// end of connection) releases its admission slot.
///
/// The connection keeps its [`BufReader`] across worker turns so a
/// pipelined request buffered during one turn is still there when a
/// (possibly different) worker picks the connection back up.
struct QueuedConn {
    reader: BufReader<TcpStream>,
    /// Held purely for its drop: releasing the admission reservation.
    _slot: InflightSlot,
    /// When the connection last completed a request (admission time
    /// for a fresh connection) — the idle-timeout anchor.
    last_active: Instant,
}

#[derive(Default)]
struct QueueState {
    pending: VecDeque<QueuedConn>,
    closed: bool,
}

/// The bounded connection queue between the accept loop and the pool
/// workers. Boundedness comes from the admission gate: a connection is
/// only ever pushed while holding an [`InflightSlot`], so `pending`
/// never exceeds the gate capacity.
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl ConnQueue {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
        })
    }

    fn push(&self, conn: QueuedConn) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            // Dropping the connection releases its slot; the client
            // sees a reset, same as any connection racing shutdown.
            return;
        }
        state.pending.push_back(conn);
        drop(state);
        self.ready.notify_one();
    }

    /// Blocks for the next admitted connection; `None` once the queue
    /// is closed **and** fully drained, so shutdown still answers
    /// everything that was admitted.
    fn pop(&self) -> Option<QueuedConn> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(conn) = state.pending.pop_front() {
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        drop(state);
        self.ready.notify_all();
    }

    /// Whether any admitted connection is waiting for a worker — the
    /// contention signal that makes an idle connection yield its turn.
    fn has_pending(&self) -> bool {
        !self
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pending
            .is_empty()
    }
}

fn accept_loop(
    listener: &TcpListener,
    queue: &Arc<ConnQueue>,
    gate: &Arc<InflightGate>,
    limits: Limits,
    shutdown: &Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(limits.request_timeout));
        let _ = stream.set_write_timeout(Some(limits.request_timeout));
        // Responses are written head-then-body; without nodelay the
        // body write can sit behind Nagle waiting for the client's
        // delayed ACK of the head.
        let _ = stream.set_nodelay(true);
        // One atomic reservation decides admission; over-capacity
        // connections are shed here, on the accept thread, so a full
        // pool cannot be wedged further by new arrivals.
        let Some(slot) = gate.try_acquire() else {
            shed_busy(stream);
            continue;
        };
        counter("http.connections").incr();
        queue.push(QueuedConn {
            reader: BufReader::new(stream),
            _slot: slot,
            last_active: Instant::now(),
        });
    }
}

/// Sheds an over-capacity connection with a `503`, then briefly
/// drains whatever the client already sent before closing. Closing a
/// socket with the request still unread in the receive buffer aborts
/// it with an RST, which can discard the written `503` from the
/// client's buffer — the bounded drain makes shedding visible as a
/// structured error instead of a connection reset.
fn shed_busy(mut stream: TcpStream) {
    counter("http.rejected").incr();
    counter("http.shed").incr();
    if Response::error(503, "server busy")
        .with_header("Retry-After", "1")
        .write_to(&mut stream, false)
        .is_err()
    {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut sink = [0u8; 1024];
    for _ in 0..16 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Worker scheduling is request-granular, not connection-granular: a
/// worker serves one bounded *turn* on a connection, then requeues it.
/// Pinning a worker to a keep-alive connection for its whole lifetime
/// starves connection `workers + 1` forever — the fleet's sixteen
/// persistent tenant clients against an eight-worker pool was exactly
/// that deadlock.
fn worker_loop(queue: &Arc<ConnQueue>, routes: &[Route], limits: Limits, shutdown: &AtomicBool) {
    while let Some(conn) = queue.pop() {
        // A panic outside dispatch's catch_unwind (request read,
        // response write) must not kill the pool worker; the unwind
        // drops the connection and its slot, releasing the admission
        // reservation.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve_turn(conn, queue, routes, limits, shutdown)
        }));
        match outcome {
            // Requeue a live connection for its next turn. If the
            // queue closed meanwhile, push drops it (slot released).
            Ok(Turn::Keep(conn)) => queue.push(conn),
            Ok(Turn::Done) => {}
            Err(_) => {
                counter("http.conn.panics").incr();
            }
        }
    }
}

/// What a worker turn left behind.
enum Turn {
    /// The connection is still live and admitted: requeue it.
    Keep(QueuedConn),
    /// The connection finished (closed, errored, timed out, or the
    /// server is shutting down); dropping it released its slot.
    Done,
}

/// Whether the next keep-alive request arrived, the connection should
/// yield its worker, or the connection is done (client closed, idle
/// timeout, socket error, shutdown).
enum NextRequest {
    Ready,
    Rotate,
    Closed,
}

/// Serves one connection until it closes or yields the worker: as
/// soon as it goes idle while other admitted connections are waiting,
/// or after [`MAX_TURN_REQUESTS`] requests while others are waiting.
fn serve_turn(
    mut conn: QueuedConn,
    queue: &ConnQueue,
    routes: &[Route],
    limits: Limits,
    shutdown: &AtomicBool,
) -> Turn {
    let mut budget = MAX_TURN_REQUESTS;
    loop {
        match await_request(&mut conn, queue, limits, shutdown) {
            NextRequest::Ready => {}
            NextRequest::Rotate => return Turn::Keep(conn),
            NextRequest::Closed => return Turn::Done,
        }
        let keep_alive = serve_one(&mut conn.reader, routes, limits);
        conn.last_active = Instant::now();
        // Finish the in-flight request, but start no new one once
        // shutdown began: stop() is draining the pool.
        if !keep_alive || shutdown.load(Ordering::Acquire) {
            return Turn::Done;
        }
        budget -= 1;
        if budget == 0 {
            // Turn budget spent: rotate so a hot connection cannot
            // monopolise the worker while others queue. With nobody
            // waiting, a hand-off would only wake another idle worker,
            // and every worker a hot connection visits grows its own
            // allocator arena: start the next turn here instead.
            if queue.has_pending() {
                return Turn::Keep(conn);
            }
            budget = MAX_TURN_REQUESTS;
        }
    }
}

/// Parks on the socket until the next request's first byte arrives.
/// Contended (other connections queued for a worker), the park lasts
/// at most one [`TURN_POLL`] slice before yielding; uncontended, it
/// polls in [`IDLE_POLL`] slices so shutdown and the idle deadline are
/// still noticed promptly. Total idle time across turns is bounded by
/// the request timeout via `last_active`.
fn await_request(
    conn: &mut QueuedConn,
    queue: &ConnQueue,
    limits: Limits,
    shutdown: &AtomicBool,
) -> NextRequest {
    let outcome = loop {
        if !conn.reader.buffer().is_empty() {
            // A pipelined request is already buffered.
            break NextRequest::Ready;
        }
        let contended = queue.has_pending();
        let slice = if contended { TURN_POLL } else { IDLE_POLL };
        let _ = conn
            .reader
            .get_ref()
            .set_read_timeout(Some(slice.min(limits.request_timeout)));
        match conn.reader.fill_buf() {
            Ok([]) => break NextRequest::Closed,
            Ok(_) => break NextRequest::Ready,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown.load(Ordering::Acquire)
                    || conn.last_active.elapsed() >= limits.request_timeout
                {
                    break NextRequest::Closed;
                }
                if contended {
                    break NextRequest::Rotate;
                }
            }
            Err(_) => break NextRequest::Closed,
        }
    };
    // Restore the full request timeout before any header/body reads.
    let _ = conn
        .reader
        .get_ref()
        .set_read_timeout(Some(limits.request_timeout));
    outcome
}

/// Reads and answers one request on an established connection;
/// returns whether the connection may be reused for another.
fn serve_one(reader: &mut BufReader<TcpStream>, routes: &[Route], limits: Limits) -> bool {
    let started = Instant::now();
    let (mut response, request_id, reusable) = match read_request(reader, limits) {
        Ok(request) => {
            let reusable = !request.wants_close();
            match request.request_id() {
                // A malformed client id is rejected before dispatch so
                // no handler ever observes (or propagates) an id that
                // cannot be embedded safely downstream.
                Some(id) if !valid_request_id(id) => {
                    counter("http.request_id.rejected").incr();
                    (
                        Response::error(
                            422,
                            "invalid X-Request-Id: need 1-128 printable ASCII bytes, no spaces",
                        ),
                        None,
                        reusable,
                    )
                }
                id => {
                    let id = id.map(str::to_owned);
                    (dispatch(routes, &request), id, reusable)
                }
            }
        }
        Err(error) => {
            let id = error.request_id.filter(|id| valid_request_id(id));
            // Framing is unreliable after a read error — always close.
            (Response::error(error.status, error.message), id, false)
        }
    };
    // Echo the client's id on every response — success or error —
    // unless the handler already stamped one (e.g. a minted id).
    if response.header(REQUEST_ID_HEADER).is_none() {
        if let Some(id) = request_id {
            response = response.with_header(REQUEST_ID_HEADER, id);
        }
    }
    let written = response.write_to(&mut reader.get_ref(), reusable).is_ok();
    counter("http.requests").incr();
    if response.status >= 400 {
        counter("http.errors").incr();
    }
    histogram("http.request.ns", LATENCY_BOUNDS_NS)
        .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    reusable && written
}

fn run_handler(route: &Route, request: &Request) -> Response {
    // A panicking handler must never tear down the connection with
    // the response unsent: contain it, count it, and answer 500 so
    // the client sees a structured failure instead of a reset socket.
    catch_unwind(AssertUnwindSafe(|| (route.handler)(request))).unwrap_or_else(|_| {
        counter("http.panics").incr();
        Response::error(500, "handler panicked")
    })
}

fn dispatch(routes: &[Route], request: &Request) -> Response {
    let mut path_known = false;
    for route in routes.iter().filter(|r| !r.prefix) {
        if route.path == request.path {
            path_known = true;
            if route.method == request.method {
                return run_handler(route, request);
            }
        }
    }
    for route in routes.iter().filter(|r| r.prefix) {
        if request.path.starts_with(&route.path) {
            path_known = true;
            if route.method == request.method {
                return run_handler(route, request);
            }
        }
    }
    if path_known {
        Response::error(405, "method not allowed")
    } else {
        Response::error(404, "not found")
    }
}

struct HttpError {
    status: u16,
    message: &'static str,
    /// The client's `X-Request-Id` when the failure happened after the
    /// headers were parsed (e.g. an oversized body), so even those
    /// errors echo the id back.
    request_id: Option<String>,
}

fn http_err(status: u16, message: &'static str) -> HttpError {
    HttpError {
        status,
        message,
        request_id: None,
    }
}

/// Maps a socket read failure to 408 when the client stalled past the
/// request timeout, otherwise to a 400 with `context`.
fn read_err(error: &std::io::Error, context: &'static str) -> HttpError {
    match error.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            http_err(408, "request read timed out")
        }
        _ => http_err(400, context),
    }
}

fn read_request(reader: &mut BufReader<TcpStream>, limits: Limits) -> Result<Request, HttpError> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| read_err(&e, "unreadable request line"))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| http_err(400, "missing method"))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| http_err(400, "missing path"))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    if !path.starts_with('/') {
        return Err(http_err(400, "path must be absolute"));
    }

    let mut content_length = 0usize;
    let mut head_bytes = line.len();
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| read_err(&e, "unreadable header"))?;
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(http_err(413, "headers too large"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| http_err(400, "bad content-length"))?;
            }
            headers.push((name.to_string(), value.trim().to_string()));
        }
    }
    // Errors past this point happened after the headers were parsed:
    // carry the client id so the error response still echoes it.
    let request_id_of = |headers: &[(String, String)]| {
        headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(REQUEST_ID_HEADER))
            .map(|(_, v)| v.clone())
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError {
            request_id: request_id_of(&headers),
            ..http_err(413, "body too large")
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| HttpError {
        request_id: request_id_of(&headers),
        ..read_err(&e, "truncated body")
    })?;
    let body = String::from_utf8(body).map_err(|_| HttpError {
        request_id: request_id_of(&headers),
        ..http_err(400, "body is not UTF-8")
    })?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// A running observability server; shuts down on [`HttpServer::shutdown`]
/// or drop.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    // Behind a `Mutex` so the server stays `Sync` (harnesses park it in
    // a `static OnceLock`) even though `FnOnce` boxes are not.
    shutdown_hooks: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let hooks = self
            .shutdown_hooks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .field("shutdown_hooks", &hooks)
            .finish_non_exhaustive()
    }
}

impl HttpServer {
    /// Starts configuring a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// Binds a server with only the built-in observability routes
    /// (`/metrics`, `/healthz`, `/summary.json`).
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<HttpServer> {
        Self::builder().bind(addr)
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections, drains every admitted request
    /// through the worker pool, runs the shutdown hooks, and flushes
    /// the telemetry sink — in that order.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(handle) = self.accept_thread.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let _ = handle.join();
        // Nothing new can be admitted now. Close the queue and join
        // every pool worker so all admitted requests have fully
        // finished — responses written, audit appends done — *before*
        // the hooks run. Hooks seal audit chains; a late decision
        // append racing the seal was exactly the ordering bug this
        // drain exists to prevent.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // A graceful stop must not strand buffered observability:
        // run the registered hooks (audit-chain seals etc.), then
        // flush any installed telemetry sink so JSONL files end on a
        // complete record.
        let hooks = std::mem::take(
            &mut *self
                .shutdown_hooks
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for hook in hooks {
            hook();
        }
        crate::sink::flush();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A tiny blocking HTTP/1.1 client for tests, benches, and smoke
/// checks: sends one request, returns `(status, body)`.
///
/// # Errors
///
/// Propagates connection and read errors; malformed responses surface
/// as `InvalidData`.
pub fn blocking_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let (status, _headers, body) = blocking_request_with_headers(addr, method, path, &[], body)?;
    Ok((status, body))
}

/// Response header list returned by [`blocking_request_with_headers`]:
/// `(name, value)` pairs in wire order.
pub type HeaderList = Vec<(String, String)>;

/// Like [`blocking_request`] but sends extra request headers and also
/// returns the parsed response headers as `(name, value)` pairs —
/// what the trace-id tests use to assert the `X-Request-Id` echo.
///
/// # Errors
///
/// Propagates connection and read errors; malformed responses surface
/// as `InvalidData`.
pub fn blocking_request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<(u16, HeaderList, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in headers {
        request.push_str(name);
        request.push_str(": ");
        request.push_str(value);
        request.push_str("\r\n");
    }
    request.push_str("\r\n");
    request.push_str(body);
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or((response.clone(), String::new()));
    let response_headers = head
        .lines()
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    Ok((status, response_headers, body))
}

/// First value of `name` (case-insensitive) in a header list returned
/// by [`blocking_request_with_headers`].
pub fn header_value<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// A blocking HTTP/1.1 client that keeps its connection alive across
/// requests — the load-generator counterpart of the server's
/// keep-alive support. One request at a time per client; responses are
/// framed by `Content-Length`, so the connection is reused instead of
/// read-to-EOF.
#[derive(Debug)]
pub struct BlockingClient {
    reader: BufReader<TcpStream>,
}

impl BlockingClient {
    /// Connects to `addr` with the default I/O timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request on the persistent connection and reads the
    /// framed response.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; malformed responses surface as
    /// `InvalidData`. After an error the connection should be
    /// discarded.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> std::io::Result<(u16, HeaderList, String)> {
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: keepalive\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            request.push_str(name);
            request.push_str(": ");
            request.push_str(value);
            request.push_str("\r\n");
        }
        request.push_str("\r\n");
        request.push_str(body);
        let mut stream = self.reader.get_ref();
        stream.write_all(request.as_bytes())?;
        stream.flush()?;

        let invalid =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut headers: HeaderList = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid("bad content-length"))?;
                }
                headers.push((name.trim().to_string(), value.trim().to_string()));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8"))?;
        Ok((status, headers, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_builtin_observability_routes() {
        crate::registry::counter("test.http.builtin").add(2);
        let server = HttpServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let (status, body) = blocking_request(addr, "GET", "/healthz", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok"));

        let (status, body) = blocking_request(addr, "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("hvac_test_http_builtin 2") || body.contains("hvac_test_http_builtin")
        );
        assert!(body.contains("# TYPE hvac_uptime_ns gauge"));

        let (status, body) = blocking_request(addr, "GET", "/summary.json", "").unwrap();
        assert_eq!(status, 200);
        let v = crate::json::parse(&body).expect("summary is valid JSON");
        assert!(v.get("counters").is_some());
        server.shutdown();
    }

    #[test]
    fn custom_routes_and_errors() {
        let server = HttpServer::builder()
            .route("POST", "/echo", |req| Response::text(200, req.body.clone()))
            .bind("127.0.0.1:0")
            .expect("bind");
        let addr = server.addr();

        let (status, body) = blocking_request(addr, "POST", "/echo", "payload").unwrap();
        assert_eq!((status, body.as_str()), (200, "payload"));

        let (status, _) = blocking_request(addr, "GET", "/echo", "").unwrap();
        assert_eq!(status, 405);

        let (status, _) = blocking_request(addr, "GET", "/missing", "").unwrap();
        assert_eq!(status, 404);

        // Query strings are stripped before matching.
        let (status, _) = blocking_request(addr, "GET", "/healthz?probe=1", "").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn prefix_routes_match_after_exact_routes() {
        let server = HttpServer::builder()
            .route("POST", "/decide", |_req| Response::text(200, "exact"))
            .route_prefix("POST", "/decide/", |req| {
                Response::text(200, format!("prefix:{}", &req.path["/decide/".len()..]))
            })
            .bind("127.0.0.1:0")
            .expect("bind");
        let addr = server.addr();

        let (status, body) = blocking_request(addr, "POST", "/decide", "{}").unwrap();
        assert_eq!((status, body.as_str()), (200, "exact"));

        let (status, body) = blocking_request(addr, "POST", "/decide/alpha", "{}").unwrap();
        assert_eq!((status, body.as_str()), (200, "prefix:alpha"));

        // Wrong method on a prefix path is 405, not 404.
        let (status, _) = blocking_request(addr, "GET", "/decide/alpha", "").unwrap();
        assert_eq!(status, 405);
        server.shutdown();
    }

    #[test]
    fn error_responses_are_structured_json() {
        let server = HttpServer::bind("127.0.0.1:0").expect("bind");
        let (status, body) = blocking_request(server.addr(), "GET", "/missing", "").unwrap();
        assert_eq!(status, 404);
        let v = crate::json::parse(&body).expect("404 body is JSON");
        assert_eq!(v.get("error").and_then(|e| e.as_str()), Some("not found"));
        assert_eq!(v.get("status").and_then(|s| s.as_u64()), Some(404));

        let (status, body) = blocking_request(server.addr(), "POST", "/healthz", "x").unwrap();
        assert_eq!(status, 405);
        assert!(crate::json::parse(&body).is_ok(), "405 body is JSON");
        server.shutdown();
    }

    #[test]
    fn panicking_handler_is_contained_as_500() {
        let before = crate::registry::snapshot();
        let server = HttpServer::builder()
            .route("GET", "/boom", |_req| panic!("handler exploded"))
            .bind("127.0.0.1:0")
            .expect("bind");
        let (status, body) = blocking_request(server.addr(), "GET", "/boom", "").unwrap();
        assert_eq!(status, 500);
        let v = crate::json::parse(&body).expect("500 body is JSON");
        assert_eq!(
            v.get("error").and_then(|e| e.as_str()),
            Some("handler panicked")
        );
        // The server survives the panic.
        let (status, _) = blocking_request(server.addr(), "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
        let after = crate::registry::snapshot();
        assert!(after.counter_delta(&before, "http.panics") >= 1);
    }

    #[test]
    fn oversized_bodies_are_rejected_with_413() {
        let server = HttpServer::builder()
            .route("POST", "/echo", |req| Response::text(200, req.body.clone()))
            .max_body_bytes(16)
            .bind("127.0.0.1:0")
            .expect("bind");
        let (status, _) = blocking_request(server.addr(), "POST", "/echo", "short").unwrap();
        assert_eq!(status, 200);
        let big = "x".repeat(17);
        let (status, body) = blocking_request(server.addr(), "POST", "/echo", &big).unwrap();
        assert_eq!(status, 413);
        assert!(crate::json::parse(&body).is_ok(), "413 body is JSON");
        server.shutdown();
    }

    #[test]
    fn stalled_clients_are_answered_408() {
        let server = HttpServer::builder()
            .request_timeout(Duration::from_millis(100))
            .bind("127.0.0.1:0")
            .expect("bind");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Promise a body and never send it.
        stream
            .write_all(b"POST /healthz HTTP/1.1\r\nContent-Length: 10\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 408"), "{response}");
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400() {
        let server = HttpServer::bind("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_and_idempotent() {
        let server = HttpServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        server.shutdown();
        // The socket no longer accepts (connect may succeed briefly on
        // some platforms' backlog, but a request must not be answered).
        let answered = blocking_request(addr, "GET", "/healthz", "")
            .map(|(status, _)| status == 200)
            .unwrap_or(false);
        assert!(!answered, "server answered after shutdown");
    }

    #[test]
    fn keep_alive_reuses_one_connection_for_many_requests() {
        let connections_before = {
            let snap = crate::registry::snapshot();
            snap.counters.get("http.connections").copied().unwrap_or(0)
        };
        let server = HttpServer::builder()
            .route("POST", "/echo", |req| Response::text(200, req.body.clone()))
            .bind("127.0.0.1:0")
            .expect("bind");
        let mut client = BlockingClient::connect(server.addr()).unwrap();
        for i in 0..10 {
            let body = format!("ping-{i}");
            let (status, headers, echoed) = client.request("POST", "/echo", &[], &body).unwrap();
            assert_eq!((status, echoed.as_str()), (200, body.as_str()));
            assert_eq!(
                header_value(&headers, "Connection").map(str::to_ascii_lowercase),
                Some("keep-alive".into())
            );
        }
        server.shutdown();
        let connections_after = {
            let snap = crate::registry::snapshot();
            snap.counters.get("http.connections").copied().unwrap_or(0)
        };
        // All ten requests shared one admitted connection (other tests
        // run concurrently, so only bound the delta from below… by
        // asserting at least our one connection happened and at most
        // could not be asserted; instead assert the client's reuse
        // worked by the fact all ten framed responses parsed above).
        assert!(connections_after > connections_before);
    }

    #[test]
    fn inflight_gate_never_exceeds_capacity_under_hammer() {
        const CAP: usize = 8;
        const THREADS: usize = 16;
        const ITERS: usize = 2000;
        let gate = InflightGate::new(CAP);
        let max_seen = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let max_seen = Arc::clone(&max_seen);
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
                        if let Some(slot) = gate.try_acquire() {
                            // With the old load-then-fetch_add gate,
                            // concurrent admissions overshoot the cap
                            // and this observes admitted > CAP.
                            max_seen.fetch_max(gate.admitted(), Ordering::AcqRel);
                            drop(slot);
                        }
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            max_seen.load(Ordering::Acquire) <= CAP,
            "gate overshot: {} > {CAP}",
            max_seen.load(Ordering::Acquire)
        );
        assert_eq!(gate.admitted(), 0, "all slots returned");
    }

    #[test]
    fn inflight_slot_is_released_when_the_holder_panics() {
        let gate = InflightGate::new(1);
        let held = Arc::clone(&gate);
        let outcome = std::thread::spawn(move || {
            let _slot = held.try_acquire().expect("slot free");
            panic!("boom mid-connection");
        })
        .join();
        assert!(outcome.is_err());
        // The unwind released the slot; the gate is not permanently
        // wedged at capacity (the old fetch_sub-after-handler leak).
        assert_eq!(gate.admitted(), 0);
        assert!(gate.try_acquire().is_some());
    }

    #[test]
    fn over_capacity_connections_are_shed_and_slots_recover() {
        let server = HttpServer::builder()
            .workers(1)
            .max_inflight(2)
            .route("GET", "/slow", |_req| {
                std::thread::sleep(Duration::from_millis(200));
                Response::text(200, "done")
            })
            .bind("127.0.0.1:0")
            .expect("bind");
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    BlockingClient::connect(addr)
                        .and_then(|mut c| c.request("GET", "/slow", &[], ""))
                })
            })
            .collect();
        let mut ok = 0usize;
        let mut shed = 0usize;
        for h in handles {
            match h.join().unwrap() {
                Ok((200, _, _)) => ok += 1,
                Ok((503, headers, _)) => {
                    shed += 1;
                    // Shed responses tell well-behaved clients when to
                    // come back.
                    let retry = headers
                        .iter()
                        .find(|(n, _)| n.eq_ignore_ascii_case("retry-after"))
                        .map(|(_, v)| v.as_str());
                    assert_eq!(retry, Some("1"), "shed 503 must carry Retry-After");
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
        assert_eq!(ok + shed, 8);
        assert!(ok >= 1, "admitted requests answered");
        assert!(shed >= 1, "over-capacity requests shed with 503");
        // Slots recovered: a fresh request is admitted, not 503'd.
        let (status, _) = blocking_request(addr, "GET", "/slow", "").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_inflight_requests_before_hooks() {
        let completed = Arc::new(AtomicUsize::new(0));
        let at_hook = Arc::new(AtomicUsize::new(usize::MAX));
        let handler_done = Arc::clone(&completed);
        let hook_completed = Arc::clone(&completed);
        let hook_saw = Arc::clone(&at_hook);
        let server = HttpServer::builder()
            .route("GET", "/slow", move |_req| {
                std::thread::sleep(Duration::from_millis(150));
                handler_done.fetch_add(1, Ordering::AcqRel);
                Response::text(200, "done")
            })
            .on_shutdown(move || {
                hook_saw.store(hook_completed.load(Ordering::Acquire), Ordering::Release);
            })
            .bind("127.0.0.1:0")
            .expect("bind");
        let addr = server.addr();
        let client = std::thread::spawn(move || blocking_request(addr, "GET", "/slow", ""));
        // Let the request get admitted and into the handler…
        std::thread::sleep(Duration::from_millis(50));
        // …then shut down while it is still in flight. The hook must
        // observe the request fully finished (worker pool drained),
        // not racing — the ordering audited serving relies on.
        server.shutdown();
        assert_eq!(at_hook.load(Ordering::Acquire), 1);
        let (status, body) = client.join().unwrap().unwrap();
        assert_eq!((status, body.as_str()), (200, "done"));
    }

    #[test]
    fn request_id_is_echoed_on_success_and_errors() {
        let server = HttpServer::builder()
            .route("POST", "/echo", |req| Response::text(200, req.body.clone()))
            .bind("127.0.0.1:0")
            .expect("bind");
        let addr = server.addr();
        let id = [(REQUEST_ID_HEADER, "req-echo-1")];

        let (status, headers, _) =
            blocking_request_with_headers(addr, "POST", "/echo", &id, "hi").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            header_value(&headers, REQUEST_ID_HEADER),
            Some("req-echo-1")
        );

        // Echoed on router errors too.
        let (status, headers, _) =
            blocking_request_with_headers(addr, "GET", "/missing", &id, "").unwrap();
        assert_eq!(status, 404);
        assert_eq!(
            header_value(&headers, REQUEST_ID_HEADER),
            Some("req-echo-1")
        );
        let (status, headers, _) =
            blocking_request_with_headers(addr, "GET", "/echo", &id, "").unwrap();
        assert_eq!(status, 405);
        assert_eq!(
            header_value(&headers, REQUEST_ID_HEADER),
            Some("req-echo-1")
        );
        server.shutdown();
    }

    #[test]
    fn request_id_is_echoed_on_oversized_body_413() {
        let server = HttpServer::builder()
            .route("POST", "/echo", |req| Response::text(200, req.body.clone()))
            .max_body_bytes(8)
            .bind("127.0.0.1:0")
            .expect("bind");
        let big = "x".repeat(64);
        let (status, headers, _) = blocking_request_with_headers(
            server.addr(),
            "POST",
            "/echo",
            &[(REQUEST_ID_HEADER, "req-413")],
            &big,
        )
        .unwrap();
        assert_eq!(status, 413);
        assert_eq!(header_value(&headers, REQUEST_ID_HEADER), Some("req-413"));
        server.shutdown();
    }

    #[test]
    fn malformed_request_ids_are_rejected_422() {
        let server = HttpServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.addr();

        // Embedded space → non-printable per our contract.
        let (status, _, body) = blocking_request_with_headers(
            addr,
            "GET",
            "/healthz",
            &[(REQUEST_ID_HEADER, "has a space")],
            "",
        )
        .unwrap();
        assert_eq!(status, 422);
        let v = crate::json::parse(&body).expect("422 body is JSON");
        assert_eq!(v.get("status").and_then(|s| s.as_u64()), Some(422));

        // Oversized id.
        let long = "a".repeat(MAX_REQUEST_ID_BYTES + 1);
        let (status, _, _) = blocking_request_with_headers(
            addr,
            "GET",
            "/healthz",
            &[(REQUEST_ID_HEADER, &long)],
            "",
        )
        .unwrap();
        assert_eq!(status, 422);

        // A max-length printable id is fine.
        let edge = "b".repeat(MAX_REQUEST_ID_BYTES);
        let (status, headers, _) = blocking_request_with_headers(
            addr,
            "GET",
            "/healthz",
            &[(REQUEST_ID_HEADER, &edge)],
            "",
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            header_value(&headers, REQUEST_ID_HEADER),
            Some(edge.as_str())
        );
        server.shutdown();
    }

    #[test]
    fn requests_feed_self_metrics() {
        let before = crate::registry::snapshot();
        let server = HttpServer::bind("127.0.0.1:0").expect("bind");
        blocking_request(server.addr(), "GET", "/healthz", "").unwrap();
        blocking_request(server.addr(), "GET", "/missing", "").unwrap();
        server.shutdown();
        let after = crate::registry::snapshot();
        assert!(after.counter_delta(&before, "http.requests") >= 2);
        assert!(after.counter_delta(&before, "http.errors") >= 1);
        let h = &after.histograms["http.request.ns"];
        assert!(h.count >= 2);
    }
}
