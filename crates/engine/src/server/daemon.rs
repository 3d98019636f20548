//! The socket daemon: listener, connection threads, deadline enforcement
//! and graceful drain on top of the [`ShardPool`].
//!
//! # Threading model
//!
//! One accept thread turns connections into one thread each; connection
//! threads parse NDJSON requests, run admission control via
//! [`ShardPool::submit`], and *wait with a bounded timeout* for the
//! shard's reply. Nothing in a connection thread ever blocks without a
//! bound:
//!
//! * socket reads poll with a short timeout so the drain flag is noticed
//!   on idle connections;
//! * reply waits use `recv_timeout` capped at the request deadline plus a
//!   small grace window, so a wedged (or deliberately slowed) solve turns
//!   into a `deadline_exceeded` response rather than a hung client.
//!
//! The per-request [`CancelToken`] carries the same deadline into the
//! escalation ladder, which abandons the solve between rungs — the
//! timeout answer and the cooperative cancellation are two views of one
//! deadline.
//!
//! # Shutdown
//!
//! [`Daemon::shutdown`] (triggered by the owner, typically after SIGTERM,
//! or by a client's `shutdown` op): set the drain flag, nudge the
//! listener awake with a self-connection, stop accepting, then stop the
//! pool — which finishes (drain) or sheds (fast stop) queued jobs and
//! flushes every disk-cache segment before returning. The final metrics
//! snapshot is returned to the caller.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant, SystemTime};

use vstack_obs::{log_info, log_warn};
use vstack_sparse::CancelToken;

use crate::json::Json;
use crate::request::ScenarioRequest;
use crate::server::protocol::{
    self, attach_telemetry, code, engine_error_response, error_response, metrics_response,
    ok_response, overloaded_response,
};
use crate::server::shard::{Admission, ShardConfig, ShardOutcome, ShardPool};
use crate::server::telemetry::{
    FlightOutcome, RequestCtx, RequestTelemetry, TELEMETRY_SCHEMA_VERSION,
};

/// How long a reply wait may exceed the request deadline: covers the gap
/// between the ladder's cancellation poll points so a cooperatively
/// cancelled solve usually delivers its own `deadline_exceeded` before
/// the connection gives up on it.
const REPLY_GRACE: Duration = Duration::from_millis(500);

/// Poll interval for idle socket reads; bounds how long an idle
/// connection takes to notice the drain flag.
const READ_POLL: Duration = Duration::from_millis(250);

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// TCP address, e.g. `127.0.0.1:7077` (port 0 picks a free port).
    Tcp(String),
    /// Unix-domain socket path (a stale file there is replaced).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Daemon construction options.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listening endpoint.
    pub bind: Bind,
    /// Worker-pool shape (shards, queue bound, cache tiers).
    pub shard: ShardConfig,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Upper clamp for client-supplied `deadline_ms`.
    pub max_deadline_ms: u64,
    /// Append one telemetry-rollup NDJSON line per interval here
    /// (`None` disables the writer). A final line is written on
    /// shutdown so short-lived runs are never empty.
    pub telemetry_out: Option<PathBuf>,
    /// Interval between `telemetry_out` lines, milliseconds.
    pub telemetry_interval_ms: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            shard: ShardConfig::default(),
            default_deadline_ms: 30_000,
            max_deadline_ms: 300_000,
            telemetry_out: None,
            telemetry_interval_ms: 1_000,
        }
    }
}

/// State shared by the accept thread and every connection thread.
struct Shared {
    pool: ShardPool,
    /// Set once shutdown begins; connection and accept loops exit on it.
    draining: AtomicBool,
    /// Latched by a client `shutdown` op for the owner to observe.
    shutdown_requested: Mutex<bool>,
    shutdown_signal: Condvar,
    default_deadline_ms: u64,
    max_deadline_ms: u64,
}

/// A running daemon. Dropping it without calling [`Daemon::shutdown`]
/// leaks the listener thread; owners are expected to shut down.
pub struct Daemon {
    shared: Arc<Shared>,
    accept: Mutex<Option<thread::JoinHandle<()>>>,
    telemetry_writer: Mutex<Option<thread::JoinHandle<()>>>,
    bind: Bind,
    /// Resolved TCP address (meaningful for port-0 binds).
    tcp_addr: Option<SocketAddr>,
}

impl Daemon {
    /// Binds the endpoint, starts the shard pool and the accept thread.
    ///
    /// # Errors
    ///
    /// Bind/listen failures and cache-segment creation failures.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        let pool = ShardPool::start(&config.shard)?;
        let shared = Arc::new(Shared {
            pool,
            draining: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_signal: Condvar::new(),
            default_deadline_ms: config.default_deadline_ms.max(1),
            max_deadline_ms: config.max_deadline_ms.max(1),
        });
        let (listener, tcp_addr) = Listener::bind(&config.bind)?;
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("vstack-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(io::Error::other)?
        };
        let telemetry_writer = match &config.telemetry_out {
            Some(path) => {
                let shared = Arc::clone(&shared);
                let path = path.clone();
                let interval = Duration::from_millis(config.telemetry_interval_ms.max(10));
                Some(
                    thread::Builder::new()
                        .name("vstack-telemetry".to_string())
                        .spawn(move || telemetry_writer_loop(&shared, &path, interval))
                        .map_err(io::Error::other)?,
                )
            }
            None => None,
        };
        match &config.bind {
            Bind::Tcp(_) => log_info!(
                "serve",
                "listening on tcp {}",
                tcp_addr.expect("tcp bind resolves an address")
            ),
            #[cfg(unix)]
            Bind::Unix(path) => log_info!("serve", "listening on unix {}", path.display()),
        }
        Ok(Daemon {
            shared,
            accept: Mutex::new(Some(accept)),
            telemetry_writer: Mutex::new(telemetry_writer),
            bind: config.bind,
            tcp_addr,
        })
    }

    /// The resolved TCP listening address (`None` for Unix binds).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Blocks until a client `shutdown` op arrives or `timeout` passes;
    /// true when shutdown was requested. Owners typically loop on this
    /// with a short timeout, interleaving their own signal checks.
    pub fn wait_shutdown_requested(&self, timeout: Duration) -> bool {
        let guard = self
            .shared
            .shutdown_requested
            .lock()
            .expect("shutdown flag lock");
        let (guard, _) = self
            .shared
            .shutdown_signal
            .wait_timeout_while(guard, timeout, |requested| !*requested)
            .expect("shutdown flag lock");
        *guard
    }

    /// Stops the daemon: stop accepting, then stop the pool (finishing
    /// queued work when `drain`, shedding it otherwise) and flush every
    /// cache segment. Returns the final obs metrics snapshot. Idempotent.
    pub fn shutdown(&self, drain: bool) -> String {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.nudge_listener();
        let accept = self.accept.lock().expect("accept handle lock").take();
        if let Some(handle) = accept {
            let _ = handle.join();
        }
        let writer = self
            .telemetry_writer
            .lock()
            .expect("telemetry writer lock")
            .take();
        if let Some(handle) = writer {
            let _ = handle.join();
        }
        self.shared.pool.shutdown(drain);
        #[cfg(unix)]
        if let Bind::Unix(path) = &self.bind {
            let _ = std::fs::remove_file(path);
        }
        let snapshot = vstack_obs::metrics::snapshot_json();
        log_info!("serve", "daemon stopped (drain={drain})");
        snapshot
    }

    /// Wakes the accept loop's blocking `accept` with a throwaway
    /// self-connection so it can observe the drain flag.
    fn nudge_listener(&self) {
        match &self.bind {
            Bind::Tcp(_) => {
                if let Some(addr) = self.tcp_addr {
                    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
                }
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
    }
}

/// The listener half of the [`Bind`] abstraction.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn bind(bind: &Bind) -> io::Result<(Listener, Option<SocketAddr>)> {
        match bind {
            Bind::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let local = listener.local_addr()?;
                Ok((Listener::Tcp(listener), Some(local)))
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                // A stale socket file from a previous run would fail the
                // bind; replacing it is the conventional daemon behavior.
                let _ = std::fs::remove_file(path);
                Ok((Listener::Unix(UnixListener::bind(path)?), None))
            }
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            // Replies already leave in one write each (see
            // `protocol::write_responses`); without TCP_NODELAY a client
            // that pipelines requests still waits out Nagle's algorithm
            // plus its own delayed ACK (~40 ms) for every second reply.
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// The stream half: one accepted connection, TCP or Unix.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Accepts until the drain flag is set. Connection threads are detached:
/// each exits within a read-poll interval of the flag, and the pool they
/// talk to outlives them through the `Arc`.
fn accept_loop(listener: &Listener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok(conn) => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                vstack_obs::metrics::global().serve_connections.inc();
                let shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name("vstack-conn".to_string())
                    .spawn(move || handle_conn(conn, &shared));
                if let Err(e) = spawned {
                    log_warn!("serve", "connection thread spawn failed: {e}");
                }
            }
            Err(e) => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                log_warn!("serve", "accept failed: {e}");
            }
        }
    }
}

/// Serves one connection: NDJSON request per line, one (or per batch
/// item, several) NDJSON response line(s) back.
fn handle_conn(conn: Conn, shared: &Arc<Shared>) {
    if conn.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let reader = match conn.try_clone() {
        Ok(clone) => clone,
        Err(e) => {
            log_warn!("serve", "connection clone failed: {e}");
            return;
        }
    };
    let mut reader = BufReader::new(reader);
    let mut writer = conn;
    let mut line = String::new();
    loop {
        // A timeout can surface mid-line; the bytes read so far stay in
        // `line`, so the next pass keeps appending — don't clear on poll.
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let text = std::mem::take(&mut line);
        if text.trim().is_empty() {
            continue;
        }
        let (responses, close) = handle_request(&text, shared);
        if protocol::write_responses(&mut writer, &responses).is_err() {
            return;
        }
        if close {
            break;
        }
    }
}

/// Dispatches one request line; returns response lines and whether the
/// connection should close afterwards.
fn handle_request(text: &str, shared: &Arc<Shared>) -> (Vec<Json>, bool) {
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => {
            return (
                vec![error_response(None, code::PARSE_ERROR, &e.to_string())],
                false,
            )
        }
    };
    let id = doc.get("id").cloned();
    let Some(op) = doc.get("op").and_then(Json::as_str) else {
        return (
            vec![error_response(
                id,
                code::INVALID_REQUEST,
                "missing \"op\" field",
            )],
            false,
        );
    };
    match op {
        "solve" => (vec![serve_solve(&doc, id, shared)], false),
        "batch" => (serve_batch(&doc, id, shared), false),
        "stats" => (vec![stats_response(id, shared)], false),
        "metrics" => (vec![metrics_response(id)], false),
        "telemetry" => (vec![telemetry_response(id, shared)], false),
        "flightdump" => (vec![flightdump_response(id, shared)], false),
        "shutdown" => {
            let mut fields = vec![];
            if let Some(id) = id {
                fields.push(("id", id));
            }
            fields.push(("ok", Json::Bool(true)));
            fields.push(("shutdown", Json::Bool(true)));
            let mut requested = shared
                .shutdown_requested
                .lock()
                .expect("shutdown flag lock");
            *requested = true;
            shared.shutdown_signal.notify_all();
            (vec![Json::obj(fields)], true)
        }
        other => (
            vec![error_response(
                id,
                code::UNKNOWN_OP,
                &format!("unknown op \"{other}\""),
            )],
            false,
        ),
    }
}

/// Admission plus bounded reply wait for one `solve` op.
fn serve_solve(doc: &Json, id: Option<Json>, shared: &Shared) -> Json {
    let Some(scenario) = doc.get("scenario") else {
        return error_response(id, code::INVALID_REQUEST, "solve needs a \"scenario\"");
    };
    let request = match ScenarioRequest::from_json(scenario) {
        Ok(r) => r,
        Err(e) => return error_response(id, code::INVALID_REQUEST, &e),
    };
    if let Err(e) = request.validate() {
        return error_response(id, code::INVALID_REQUEST, &e);
    }
    let deadline_ms = match protocol::parse_deadline_ms(doc, shared.max_deadline_ms) {
        Ok(ms) => ms.unwrap_or(shared.default_deadline_ms),
        Err(e) => return error_response(id, code::INVALID_REQUEST, &e),
    };
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    let cancel = CancelToken::with_deadline(deadline);
    let ctx = RequestCtx::mint();
    let (admission, shard) = shared.pool.submit(&request, cancel.clone(), ctx);
    settle(
        admission,
        shard,
        request.fingerprint(),
        id,
        deadline,
        &cancel,
        shared,
        ctx,
    )
}

/// A `batch` op: admit every parseable item up front (so siblings dedup
/// against each other in flight), then settle them in order under one
/// shared deadline. One response line per item, input order.
fn serve_batch(doc: &Json, batch_id: Option<Json>, shared: &Shared) -> Vec<Json> {
    let Some(items) = doc.get("requests").and_then(Json::as_arr) else {
        return vec![error_response(
            batch_id,
            code::INVALID_REQUEST,
            "batch needs a \"requests\" array",
        )];
    };
    let deadline_ms = match protocol::parse_deadline_ms(doc, shared.max_deadline_ms) {
        Ok(ms) => ms.unwrap_or(shared.default_deadline_ms),
        Err(e) => return vec![error_response(batch_id, code::INVALID_REQUEST, &e)],
    };
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    let cancel = CancelToken::with_deadline(deadline);
    type Pending = (
        Option<Json>,
        Result<(Admission, usize, u64, RequestCtx), Json>,
    );
    let mut pending: Vec<Pending> = Vec::new();
    for item in items {
        let id = item.get("id").cloned();
        let request = match item.get("scenario") {
            Some(s) => ScenarioRequest::from_json(s).and_then(|r| r.validate().map(|()| r)),
            None => Err("batch item needs a \"scenario\"".to_string()),
        };
        match request {
            Ok(request) => {
                let ctx = RequestCtx::mint();
                let (admission, shard) = shared.pool.submit(&request, cancel.clone(), ctx);
                pending.push((id, Ok((admission, shard, request.fingerprint(), ctx))));
            }
            Err(e) => {
                pending.push((
                    id.clone(),
                    Err(error_response(id, code::INVALID_REQUEST, &e)),
                ));
            }
        }
    }
    pending
        .into_iter()
        .map(|(id, entry)| match entry {
            Ok((admission, shard, fingerprint, ctx)) => settle(
                admission,
                shard,
                fingerprint,
                id,
                deadline,
                &cancel,
                shared,
                ctx,
            ),
            Err(response) => response,
        })
        .collect()
}

/// Turns an admission decision into the final response, waiting (bounded)
/// for the shard when the request was admitted or joined. Every response
/// — success or failure — carries an additive `telemetry` block with the
/// caller's own trace ID.
#[allow(clippy::too_many_arguments)]
fn settle(
    admission: Admission,
    shard: usize,
    fingerprint: u64,
    id: Option<Json>,
    deadline: Instant,
    cancel: &CancelToken,
    shared: &Shared,
    ctx: RequestCtx,
) -> Json {
    let m = vstack_obs::metrics::global();
    let own_wall_us = || u64::try_from(ctx.admitted.elapsed().as_micros()).unwrap_or(u64::MAX);
    let (rx, joined) = match admission {
        Admission::Queued(rx) => (rx, false),
        Admission::Joined(rx) => (rx, true),
        Admission::Shed { retry_after_ms } => {
            let t = RequestTelemetry::unserved(ctx.trace_id, shard);
            return attach_telemetry(overloaded_response(id, retry_after_ms), &t);
        }
        Admission::Closed => {
            let t = RequestTelemetry::unserved(ctx.trace_id, shard);
            return attach_telemetry(
                error_response(id, code::UNAVAILABLE, "server is shutting down"),
                &t,
            );
        }
    };
    let wait = deadline + REPLY_GRACE - Instant::now();
    match rx.recv_timeout(wait) {
        Ok(ShardOutcome::Done(result, worker_t)) => {
            let t = reply_telemetry(&worker_t, joined, shard, ctx, own_wall_us());
            let reply = match result {
                Ok(result) => ok_response(id, &result),
                Err(e) => engine_error_response(id, &e),
            };
            attach_telemetry(reply, &t)
        }
        Ok(ShardOutcome::Panicked(worker_t)) => {
            let t = reply_telemetry(&worker_t, joined, shard, ctx, own_wall_us());
            attach_telemetry(
                error_response(
                    id,
                    code::INTERNAL,
                    "request crashed its worker (contained); see server logs",
                ),
                &t,
            )
        }
        Ok(ShardOutcome::Drained) => {
            let mut t = RequestTelemetry::unserved(ctx.trace_id, shard);
            t.queue_wait_us = own_wall_us();
            attach_telemetry(
                error_response(id, code::UNAVAILABLE, "shed during server drain"),
                &t,
            )
        }
        Err(_) => {
            // The solve outlived deadline + grace (it will abandon itself
            // at the ladder's next cancellation poll) or its worker died.
            // Either way the client gets a bounded, structured answer.
            cancel.cancel();
            m.serve_deadline_exceeded.inc();
            let mut t = RequestTelemetry::unserved(ctx.trace_id, shard);
            t.queue_wait_us = own_wall_us();
            let telemetry = shared.pool.telemetry();
            telemetry.record_request(&t, fingerprint, FlightOutcome::DeadlineMiss);
            telemetry.maybe_dump("deadline_miss", ctx.trace_id);
            attach_telemetry(
                error_response(
                    id,
                    code::DEADLINE_EXCEEDED,
                    "deadline passed before the solve finished",
                ),
                &t,
            )
        }
    }
}

/// The telemetry block for a settled reply: the worker's phase breakdown
/// re-stamped with the *caller's* trace ID. A dedup joiner inherits the
/// leader's provenance (cache tier, solver path) but its phase timings
/// are clamped to the joiner's own wall clock — the leader started
/// earlier, so its raw timings could exceed what this caller observed.
fn reply_telemetry(
    worker: &RequestTelemetry,
    joined: bool,
    shard: usize,
    ctx: RequestCtx,
    own_wall_us: u64,
) -> RequestTelemetry {
    let mut t = worker.clone();
    t.trace_id = ctx.trace_id;
    t.shard = shard;
    if joined {
        t.solve_us = t.solve_us.min(own_wall_us);
        t.queue_wait_us = own_wall_us - t.solve_us;
    }
    t
}

/// The daemon `stats` op: serving-tier counters from the global obs
/// registry (engine counters aggregate across all shards there), stamped
/// with the schema version like the stdin front-end's `stats`.
fn stats_response(id: Option<Json>, shared: &Shared) -> Json {
    let m = vstack_obs::metrics::global();
    let mut fields = vec![];
    if let Some(id) = id {
        fields.push(("id", id));
    }
    fields.push(("ok", Json::Bool(true)));
    fields.push((
        "stats",
        Json::obj(vec![
            (
                "schema_version",
                Json::Num(f64::from(crate::SCHEMA_VERSION)),
            ),
            ("shards", Json::Num(shared.pool.len() as f64)),
            ("queued", Json::Num(shared.pool.queued() as f64)),
            ("connections", Json::Num(m.serve_connections.get() as f64)),
            ("accepted", Json::Num(m.serve_accepted.get() as f64)),
            ("shed", Json::Num(m.serve_shed.get() as f64)),
            ("dedup_joins", Json::Num(m.serve_dedup_joins.get() as f64)),
            (
                "deadline_exceeded",
                Json::Num(m.serve_deadline_exceeded.get() as f64),
            ),
            (
                "worker_panics",
                Json::Num(m.serve_worker_panics.get() as f64),
            ),
            ("drained_jobs", Json::Num(m.serve_drained_jobs.get() as f64)),
            (
                "cache_quarantined",
                Json::Num(m.serve_cache_quarantined.get() as f64),
            ),
            // Additions ride at the end so the legacy field prefix stays
            // byte-identical (pinned by tests/telemetry.rs).
            (
                "uptime_ms",
                Json::Num(shared.pool.telemetry().uptime_ms() as f64),
            ),
            (
                "telemetry_schema_version",
                Json::Num(f64::from(TELEMETRY_SCHEMA_VERSION)),
            ),
        ]),
    ));
    Json::obj(fields)
}

/// The `telemetry` op: per-shard rolling phase rollups (p50/p99/p999,
/// SLO burn rate, merged buckets).
fn telemetry_response(id: Option<Json>, shared: &Shared) -> Json {
    let mut fields = vec![];
    if let Some(id) = id {
        fields.push(("id", id));
    }
    fields.push(("ok", Json::Bool(true)));
    fields.push(("telemetry", shared.pool.telemetry().rollup_json()));
    Json::obj(fields)
}

/// The `flightdump` op: force a flight-recorder dump now. Fails with
/// `unavailable` when the daemon has no flight directory configured.
fn flightdump_response(id: Option<Json>, shared: &Shared) -> Json {
    match shared.pool.telemetry().dump("on_demand", 0) {
        Ok(Some(path)) => {
            let mut fields = vec![];
            if let Some(id) = id {
                fields.push(("id", id));
            }
            fields.push(("ok", Json::Bool(true)));
            fields.push((
                "flightdump",
                Json::obj(vec![("path", Json::Str(path.display().to_string()))]),
            ));
            Json::obj(fields)
        }
        Ok(None) => error_response(
            id,
            code::UNAVAILABLE,
            "no flight directory configured (--flight-dir)",
        ),
        Err(e) => error_response(id, code::INTERNAL, &format!("flight dump failed: {e}")),
    }
}

/// Appends one telemetry-rollup line to `path` every `interval` until
/// the daemon drains, plus a final line at shutdown so even a short run
/// leaves evidence. Each line is the `telemetry` verb's document with a
/// wall-clock `ts_ms` stamp appended.
fn telemetry_writer_loop(shared: &Arc<Shared>, path: &std::path::Path, interval: Duration) {
    let write_line = || {
        let mut doc = shared.pool.telemetry().rollup_json();
        if let Json::Obj(fields) = &mut doc {
            let ts_ms = SystemTime::UNIX_EPOCH
                .elapsed()
                .map(|d| d.as_millis() as f64)
                .unwrap_or(0.0);
            fields.push(("ts_ms".to_string(), Json::Num(ts_ms)));
        }
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", doc.emit()));
        if let Err(e) = appended {
            vstack_obs::warn_once!(
                "serve",
                "telemetry writer cannot append to {} ({e}); lines will be dropped",
                path.display()
            );
        }
    };
    let mut next = Instant::now() + interval;
    while !shared.draining.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(25).min(interval));
        if Instant::now() >= next {
            write_line();
            next = Instant::now() + interval;
        }
    }
    write_line();
}
