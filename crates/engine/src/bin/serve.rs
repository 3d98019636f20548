//! `vstack-serve` — the serving front-end, in two modes.
//!
//! **Stdin mode** (default): one JSON request object per stdin line, one
//! JSON response object per line to stdout (batch ops write one line per
//! sub-request). Malformed input yields a structured error response,
//! never a panic or an exit. EOF, a `shutdown` op, SIGTERM or SIGINT all
//! drain gracefully: the disk cache is flushed and a final metrics
//! snapshot is logged before exit 0.
//!
//! **Daemon mode** (`--listen ADDR` or `--unix PATH`): a concurrent
//! NDJSON-over-socket server with fingerprint-sharded workers, bounded
//! admission queues (overload answers `{"error":{"code":"overloaded",
//! "retry_after_ms":…}}`), per-request `deadline_ms` enforcement, and
//! cross-request dedup. SIGTERM/SIGINT or a client `shutdown` op stops
//! accepting, finishes queued work, flushes every cache segment and logs
//! the final metrics snapshot.
//!
//! ```text
//! $ vstack-serve --cache-dir /tmp/vstack-cache
//! {"op":"solve","id":1,"scenario":{"solve":"vs","layers":8,"imbalance":0.3,"fidelity":"quick"}}
//! {"id":1,"ok":true,"outcome":"cold","fingerprint":"…","summary":{…},"latency_us":…}
//!
//! $ vstack-serve --listen 127.0.0.1:7077 --shards 4 --queue-depth 32 --cache-dir /var/cache/vstack
//! ```
//!
//! Options: `--cache-dir DIR`, `--lru N` (per engine/shard, default 256),
//! `--no-warm-start`, `--listen ADDR`, `--unix PATH`, `--shards N`,
//! `--queue-depth N`, `--deadline-ms N` (default deadline, 30000),
//! `--max-deadline-ms N`, `--no-drain` (shed instead of finishing queued
//! work on shutdown), `--metrics-out FILE` (write the final metrics
//! snapshot there on exit), `--telemetry-out FILE` (daemon mode: append a
//! telemetry-rollup NDJSON line per interval), `--telemetry-interval-ms
//! N` (default 1000), `--flight-dir DIR` (where flight-recorder dumps
//! land; defaults to `vstack-flight/` under the system temp dir),
//! `--slo-ms N` (windowed-histogram SLO threshold, default 250).
//! Diagnostics go to stderr through the `vstack-obs` logger (target
//! `serve`); tune with `VSTACK_LOG`.

use std::io::{self, BufRead};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vstack_engine::engine::{Engine, EngineConfig};
use vstack_engine::json::Json;
use vstack_engine::request::ScenarioRequest;
use vstack_engine::server::protocol::{
    self, attach_telemetry, code, engine_error_response, metrics_response, ok_response,
};
use vstack_engine::server::telemetry::RequestCtx;
use vstack_engine::server::{Bind, Daemon, DaemonConfig, RequestTelemetry, ShardConfig};
use vstack_obs::{log_error, log_info, log_warn};

/// Async-signal-safe SIGTERM/SIGINT latch. Lives in the binary because
/// the library forbids unsafe code; the handler only stores an atomic.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATE: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the latch for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn terminated() -> bool {
        TERMINATE.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn terminated() -> bool {
        false
    }
}

/// Parsed command line.
struct Args {
    engine: EngineConfig,
    /// `Some` puts the binary in daemon mode.
    bind: Option<Bind>,
    shards: usize,
    queue_depth: usize,
    default_deadline_ms: u64,
    max_deadline_ms: u64,
    drain: bool,
    metrics_out: Option<PathBuf>,
    telemetry_out: Option<PathBuf>,
    telemetry_interval_ms: u64,
    /// `None` means "pick the default under the system temp dir".
    flight_dir: Option<PathBuf>,
    slo_ms: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            engine: EngineConfig::default(),
            bind: None,
            shards: 4,
            queue_depth: 32,
            default_deadline_ms: 30_000,
            max_deadline_ms: 300_000,
            drain: true,
            metrics_out: None,
            telemetry_out: None,
            telemetry_interval_ms: 1_000,
            flight_dir: None,
            slo_ms: 250,
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            log_error!("serve", "{e}");
            return ExitCode::from(2);
        }
    };
    sig::install();
    match args.bind {
        Some(_) => run_daemon(&args),
        None => run_stdin(&args),
    }
}

/// Daemon mode: start, park until a stop arrives, shut down.
fn run_daemon(args: &Args) -> ExitCode {
    let flight_dir = args
        .flight_dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join("vstack-flight"));
    let config = DaemonConfig {
        bind: args.bind.clone().expect("daemon mode has a bind"),
        shard: ShardConfig {
            shards: args.shards,
            queue_capacity: args.queue_depth,
            lru_capacity: args.engine.lru_capacity,
            cache_dir: args.engine.cache_dir.clone(),
            warm_start: args.engine.warm_start,
            flight_dir: Some(flight_dir),
            slo_us: args.slo_ms.saturating_mul(1_000),
            slo_target: 0.999,
        },
        default_deadline_ms: args.default_deadline_ms,
        max_deadline_ms: args.max_deadline_ms,
        telemetry_out: args.telemetry_out.clone(),
        telemetry_interval_ms: args.telemetry_interval_ms,
    };
    let daemon = match Daemon::start(config) {
        Ok(d) => d,
        Err(e) => {
            log_error!("serve", "daemon start failed: {e}");
            return ExitCode::from(2);
        }
    };
    loop {
        if sig::terminated() {
            log_info!("serve", "termination signal; draining");
            break;
        }
        if daemon.wait_shutdown_requested(Duration::from_millis(200)) {
            log_info!("serve", "shutdown op; draining");
            break;
        }
    }
    let snapshot = daemon.shutdown(args.drain);
    finish_metrics(args, &snapshot)
}

/// Stdin mode: the single-engine NDJSON loop, with a reader thread so the
/// main loop can poll the signal latch (glibc installs handlers with
/// SA_RESTART, so a blocking stdin read would never observe them).
fn run_stdin(args: &Args) -> ExitCode {
    let mut engine = match Engine::new(args.engine.clone()) {
        Ok(e) => e,
        Err(e) => {
            log_error!("serve", "cannot open cache dir: {e}");
            return ExitCode::from(2);
        }
    };
    let (tx, rx) = mpsc::channel::<String>();
    // Detached on purpose: it sits in a blocking stdin read and exits
    // with the process; main never joins it.
    let reader = std::thread::Builder::new()
        .name("vstack-stdin".to_string())
        .spawn(move || {
            let stdin = io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(l) => {
                        if tx.send(l).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        log_warn!("serve", "stdin read failed: {e}");
                        return;
                    }
                }
            }
        });
    if let Err(e) = reader {
        log_error!("serve", "stdin reader spawn failed: {e}");
        return ExitCode::from(2);
    }

    let stdout = io::stdout();
    let mut out = stdout.lock();
    loop {
        if sig::terminated() {
            log_info!("serve", "termination signal; draining");
            break;
        }
        let line = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(l) => l,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break, // EOF
        };
        if line.trim().is_empty() {
            continue;
        }
        let (responses, shutdown) = handle_line(&mut engine, &line);
        if protocol::write_responses(&mut out, &responses).is_err() {
            // Reader went away; flush the cache and stop serving.
            let _ = engine.flush();
            return ExitCode::SUCCESS;
        }
        if shutdown {
            break;
        }
    }
    if let Err(e) = engine.flush() {
        log_error!("serve", "cache flush failed: {e}");
        return ExitCode::FAILURE;
    }
    finish_metrics(args, &vstack_obs::metrics::snapshot_json())
}

/// Emits the final metrics snapshot (log + optional file) and maps the
/// write outcome to the exit code.
fn finish_metrics(args: &Args, snapshot: &str) -> ExitCode {
    log_info!("serve", "final metrics: {snapshot}");
    if let Some(path) = &args.metrics_out {
        if let Err(e) = std::fs::write(path, snapshot) {
            log_error!("serve", "cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Parses CLI flags.
fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    fn positive(flag: &str, value: Option<String>) -> Result<usize, String> {
        let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("{flag} must be a positive integer, got \"{v}\""))
    }
    let mut parsed = Args::default();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--cache-dir" => {
                let dir = args.next().ok_or("--cache-dir needs a path")?;
                parsed.engine.cache_dir = Some(PathBuf::from(dir));
            }
            "--lru" => parsed.engine.lru_capacity = positive("--lru", args.next())?,
            "--no-warm-start" => parsed.engine.warm_start = false,
            "--listen" => {
                let addr = args.next().ok_or("--listen needs an address")?;
                parsed.bind = Some(Bind::Tcp(addr));
            }
            "--unix" => {
                let path = args.next().ok_or("--unix needs a path")?;
                #[cfg(unix)]
                {
                    parsed.bind = Some(Bind::Unix(PathBuf::from(path)));
                }
                #[cfg(not(unix))]
                {
                    let _ = path;
                    return Err("--unix is only supported on Unix platforms".to_string());
                }
            }
            "--shards" => parsed.shards = positive("--shards", args.next())?,
            "--queue-depth" => parsed.queue_depth = positive("--queue-depth", args.next())?,
            "--deadline-ms" => {
                parsed.default_deadline_ms = positive("--deadline-ms", args.next())? as u64;
            }
            "--max-deadline-ms" => {
                parsed.max_deadline_ms = positive("--max-deadline-ms", args.next())? as u64;
            }
            "--no-drain" => parsed.drain = false,
            "--metrics-out" => {
                let path = args.next().ok_or("--metrics-out needs a path")?;
                parsed.metrics_out = Some(PathBuf::from(path));
            }
            "--telemetry-out" => {
                let path = args.next().ok_or("--telemetry-out needs a path")?;
                parsed.telemetry_out = Some(PathBuf::from(path));
            }
            "--telemetry-interval-ms" => {
                parsed.telemetry_interval_ms =
                    positive("--telemetry-interval-ms", args.next())? as u64;
            }
            "--flight-dir" => {
                let dir = args.next().ok_or("--flight-dir needs a path")?;
                parsed.flight_dir = Some(PathBuf::from(dir));
            }
            "--slo-ms" => parsed.slo_ms = positive("--slo-ms", args.next())? as u64,
            "--help" | "-h" => {
                return Err(
                    "usage: vstack-serve [--cache-dir DIR] [--lru N] [--no-warm-start] \
                     [--listen ADDR | --unix PATH] [--shards N] [--queue-depth N] \
                     [--deadline-ms N] [--max-deadline-ms N] [--no-drain] [--metrics-out FILE] \
                     [--telemetry-out FILE] [--telemetry-interval-ms N] [--flight-dir DIR] \
                     [--slo-ms N]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag \"{other}\"")),
        }
    }
    if parsed.default_deadline_ms > parsed.max_deadline_ms {
        return Err("--deadline-ms must not exceed --max-deadline-ms".to_string());
    }
    Ok(parsed)
}

/// Serves one stdin-mode input line; returns the response lines and
/// whether to shut down afterwards.
fn handle_line(engine: &mut Engine, line: &str) -> (Vec<Json>, bool) {
    let doc = match Json::parse(line) {
        Ok(d) => d,
        Err(e) => {
            return (
                vec![protocol::error_response(
                    None,
                    code::PARSE_ERROR,
                    &e.to_string(),
                )],
                false,
            )
        }
    };
    let id = doc.get("id").cloned();
    let Some(op) = doc.get("op").and_then(Json::as_str) else {
        return (
            vec![protocol::error_response(
                id,
                code::INVALID_REQUEST,
                "missing \"op\" field",
            )],
            false,
        );
    };
    match op {
        "solve" => {
            let Some(scenario) = doc.get("scenario") else {
                return (
                    vec![protocol::error_response(
                        id,
                        code::INVALID_REQUEST,
                        "solve needs a \"scenario\"",
                    )],
                    false,
                );
            };
            (vec![serve_one(engine, id, scenario)], false)
        }
        "batch" => {
            let Some(items) = doc.get("requests").and_then(Json::as_arr) else {
                return (
                    vec![protocol::error_response(
                        id,
                        code::INVALID_REQUEST,
                        "batch needs a \"requests\" array",
                    )],
                    false,
                );
            };
            (serve_batch(engine, items), false)
        }
        "stats" => {
            let mut fields = vec![];
            if let Some(id) = id {
                fields.push(("id", id));
            }
            fields.push(("ok", Json::Bool(true)));
            fields.push(("stats", engine.stats().to_json()));
            (vec![Json::obj(fields)], false)
        }
        "metrics" => (vec![metrics_response(id)], false),
        "shutdown" => {
            let mut fields = vec![];
            if let Some(id) = id {
                fields.push(("id", id));
            }
            fields.push(("ok", Json::Bool(true)));
            fields.push(("shutdown", Json::Bool(true)));
            (vec![Json::obj(fields)], true)
        }
        other => (
            vec![protocol::error_response(
                id,
                code::UNKNOWN_OP,
                &format!("unknown op \"{other}\""),
            )],
            false,
        ),
    }
}

/// Builds the stdin-mode telemetry block: a single-engine front-end has
/// no queue or shards, so `queue_wait_us` is 0 and `shard` is 0, but
/// trace IDs, cache tier, solver path, and solve time match the daemon's
/// vocabulary.
fn stdin_telemetry(
    ctx: RequestCtx,
    solve_us: u64,
    result: &Result<vstack_engine::engine::QueryResult, vstack_engine::engine::EngineError>,
) -> RequestTelemetry {
    let mut t = RequestTelemetry::unserved(ctx.trace_id, 0);
    t.solve_us = solve_us;
    if let Ok(r) = result {
        t.cache_tier = RequestTelemetry::tier_for(r.outcome);
        t.solver_path = r.summary.solver_path.clone();
    }
    t
}

/// Serves a single stdin-mode `solve` op.
fn serve_one(engine: &mut Engine, id: Option<Json>, scenario: &Json) -> Json {
    match ScenarioRequest::from_json(scenario) {
        Ok(request) => {
            let ctx = RequestCtx::mint();
            let trace = vstack_obs::trace::trace_scope(ctx.trace_id);
            let started = Instant::now();
            let result = engine.query(&request);
            let solve_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            drop(trace);
            let t = stdin_telemetry(ctx, solve_us, &result);
            let reply = match result {
                Ok(result) => ok_response(id, &result),
                Err(e) => engine_error_response(id, &e),
            };
            attach_telemetry(reply, &t)
        }
        Err(e) => protocol::error_response(id, code::INVALID_REQUEST, &e),
    }
}

/// Serves a stdin-mode `batch` op: parse every item first, then run the
/// parseable scenarios through one engine batch (so duplicates dedup and
/// solves run in parallel), and emit one response line per item in input
/// order. The batch is one admission, so every item shares one trace ID;
/// per-item solve time comes from the engine's own latency accounting.
fn serve_batch(engine: &mut Engine, items: &[Json]) -> Vec<Json> {
    let mut parsed: Vec<(Option<Json>, Result<ScenarioRequest, String>)> = Vec::new();
    for item in items {
        let id = item.get("id").cloned();
        let request = match item.get("scenario") {
            Some(s) => ScenarioRequest::from_json(s),
            None => Err("batch item needs a \"scenario\"".to_string()),
        };
        parsed.push((id, request));
    }
    let requests: Vec<ScenarioRequest> = parsed
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok().cloned())
        .collect();
    let ctx = RequestCtx::mint();
    let trace = vstack_obs::trace::trace_scope(ctx.trace_id);
    let mut outcomes = engine.query_batch(&requests).into_iter();
    drop(trace);
    parsed
        .into_iter()
        .map(|(id, request)| match request {
            Err(e) => protocol::error_response(id, code::INVALID_REQUEST, &e),
            Ok(_) => {
                let result = outcomes.next().expect("one outcome per valid request");
                let solve_us = match &result {
                    Ok(r) => r.latency_us,
                    Err(_) => 0,
                };
                let t = stdin_telemetry(ctx, solve_us, &result);
                let reply = match result {
                    Ok(result) => ok_response(id, &result),
                    Err(e) => engine_error_response(id, &e),
                };
                attach_telemetry(reply, &t)
            }
        })
        .collect()
}
