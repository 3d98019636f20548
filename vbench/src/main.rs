//! `vbench` — the vstack benchmark: three seeded workloads against the
//! public entry points, end-to-end metrics from plain runs and per-layer
//! metrics from the daemon's reply telemetry and a traced replay.
//!
//! ```text
//! cargo run --release --offline --manifest-path vbench/Cargo.toml -- \
//!     --workload served_quick --seed 1 --seconds 60 --trace 0
//! ```
//!
//! `--workload all` runs every workload in turn. The last stdout line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`; with
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. The run header (commit, nproc, `VSTACK_THREADS`,
//! shards, seed, rustc, request count and mix) is the line before it.
//! Any wrong answer makes `correct` false and the exit code 1.
//!
//! `vbench golden` rewrites the committed golden answers for seed 1;
//! `vbench serve` is the daemon child the served workload starts.

mod check;
mod replay;
mod served;
mod util;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use vstack_engine::engine::{solve_scenario, Engine, EngineConfig, Outcome};
use vstack_engine::request::ScenarioRequest;
use vstack_engine::SolveSummary;

use vbench::gen::{golden_prefix, mix, tally, Generator, Item, Role, Stream, Workload};

use check::{golden_line, Checker, GOLDEN_SEED};
use replay::{faithful, Answered, Layers, ReplayEngine, Tracer};
use served::{Client, Served};
use util::{cpu_ms, median, ms, nproc, peak_rss_mb, percentile, unit_of};

/// Shards of the served workload's daemon.
const SHARDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// In-process cross-checks per run, by workload.
const SAMPLES: [usize; 3] = [12, 3, 12];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    connections: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: GOLDEN_SEED,
        seconds: 60.0,
        trace: false,
        connections: nproc(),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = match v.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => args.trace = value()? == "1",
            "--connections" => {
                args.connections = value()?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.connections == 0 || args.connections > nproc() {
        return Err(format!(
            "--connections {} must be between 1 and nproc ({})",
            args.connections,
            nproc()
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Solver pool width for this process and the daemon child; one
    // thread unless the caller chose otherwise.
    if std::env::var_os("VSTACK_THREADS").is_none() {
        std::env::set_var("VSTACK_THREADS", "1");
    }
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("serve") => return serve_main(argv.skip(1)),
        Some("golden") => return golden_main(),
        _ => {}
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut total = RunResult::default();
    for &w in &workloads {
        let result = match run(w, &args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("vbench: {}: {e}", w.name());
                return ExitCode::from(1);
            }
        };
        println!("{}", header_line(w, &args, &result));
        for (name, value) in &result.metrics {
            eprintln!(
                "{:<14} {:<28} {:>14.4} {}",
                w.name(),
                name,
                value,
                unit_of(name)
            );
        }
        if workloads.len() == 1 {
            total = result;
        } else {
            total.attempted += result.attempted;
            total.failed += result.failed;
            total.correct &= result.correct;
            for (name, value) in result.metrics {
                total.metrics.push((format!("{}.{name}", w.name()), value));
            }
        }
    }
    println!("{}", result_line(&total));
    if total.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// What one workload run reports.
#[derive(Debug)]
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64)>,
    /// Mix of the requests attempted, class and count.
    mix: Vec<(&'static str, usize)>,
}

impl Default for RunResult {
    fn default() -> Self {
        RunResult {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            mix: Vec::new(),
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v)| {
            // `workload.metric` in an all-workload run.
            let unit = match unit_of(name) {
                "" => unit_of(name.split_once('.').map_or("", |(_, m)| m)),
                u => u,
            };
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

fn command_output(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD` for the checkout the benchmark sits in; git may
/// not look above it, so a checkout outside any repository reads
/// `unknown`.
fn git_head() -> Command {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository");
    let mut git = Command::new("git");
    git.arg("-C").arg(root).args(["rev-parse", "HEAD"]);
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    git
}

fn header_line(w: Workload, args: &Args, r: &RunResult) -> String {
    let mix: Vec<String> = r.mix.iter().map(|(c, n)| format!("\"{c}\":{n}")).collect();
    let served = w == Workload::ServedQuick;
    format!(
        "{{\"run_header\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\"rustc\":\"{}\",\"nproc\":{},\"vstack_threads\":\"{}\",\"shards\":{},\"connections\":{},\"tail_percentile\":{},\"requests\":{},\"mix\":{{{}}}}}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        command_output(&mut git_head()),
        command_output(Command::new("rustc").arg("--version")),
        nproc(),
        std::env::var("VSTACK_THREADS").unwrap_or_default(),
        if served { SHARDS } else { 0 },
        if served { args.connections } else { 1 },
        w.tail_percentile(),
        r.attempted,
        mix.join(",")
    )
}

/// Where spans, cache segments and flight dumps of a run go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The wire line of stream item `i`.
fn wire_line(i: usize, request: &ScenarioRequest) -> String {
    format!(
        "{{\"op\":\"solve\",\"id\":{i},\"scenario\":{}}}\n",
        request.to_json().emit()
    )
}

/// The plain run's raw measurements.
#[derive(Default)]
struct Plain {
    setups_s: Vec<f64>,
    latencies_ms: Vec<f64>,
    elapsed_s: f64,
    cpu_ms: f64,
    rss_mb: f64,
    attempted: usize,
    /// Requests without a usable answer (errors, hangs).
    errors: usize,
    /// Answers that failed a check.
    mismatches: usize,
    invalid: usize,
    answers: usize,
}

impl Plain {
    fn failed(&self) -> usize {
        self.errors + self.mismatches
    }

    fn end_to_end(&self, w: Workload) -> Vec<(String, f64)> {
        let correct = self.answers.saturating_sub(self.mismatches);
        let mut lat = self.latencies_ms.clone();
        vec![
            ("setup_s".to_string(), median(&mut self.setups_s.clone())),
            (
                "throughput_sps".to_string(),
                correct as f64 / self.elapsed_s,
            ),
            ("latency_p50_ms".to_string(), median(&mut lat)),
            (
                "latency_tail_ms".to_string(),
                percentile(&mut lat, w.tail_percentile()),
            ),
            (
                "cpu_ms_per_scenario".to_string(),
                self.cpu_ms / self.answers.max(1) as f64,
            ),
            ("peak_rss_mb".to_string(), self.rss_mb),
        ]
    }

    /// Counts one engine call's answers and checks them.
    fn record(&mut self, checker: &mut Checker, requests: &[ScenarioRequest], answers: &[Answer]) {
        self.attempted += answers.len();
        for (request, answer) in requests.iter().zip(answers) {
            match answer {
                Some((summary, _)) => checker.add(request, summary),
                None => self.errors += 1,
            }
        }
    }

    /// Runs the checker's cross-check and takes its counts.
    fn settle(&mut self, mut checker: Checker) {
        checker.finish();
        self.answers = checker.answers;
        self.invalid = checker.invalid;
        self.mismatches = checker.mismatches;
    }
}

fn run(w: Workload, args: &Args) -> Result<RunResult, String> {
    fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let (plain, mix, traced) = match w {
        Workload::ServedQuick => served_quick(args)?,
        Workload::DeepStack => deep_stack(args)?,
        Workload::SweepAxes => sweep_axes(args)?,
    };
    let mut result = RunResult {
        correct: plain.failed() == 0,
        attempted: plain.attempted,
        failed: plain.failed(),
        metrics: Vec::new(),
        mix,
    };
    match traced {
        None => result.metrics = plain.end_to_end(w),
        Some(t) => {
            result.failed += t.unfaithful;
            result.correct &= t.unfaithful == 0;
            result.metrics = t.metrics;
            result.metrics.push((
                "failed_frac".to_string(),
                result.failed as f64 / result.attempted.max(1) as f64,
            ));
            result
                .metrics
                .push(("invalid_answers".to_string(), plain.invalid as f64));
        }
    }
    Ok(result)
}

/// Per-layer results of a traced run.
struct Traced {
    metrics: Vec<(String, f64)>,
    /// Replayed answers that differ from the plain run's.
    unfaithful: usize,
}

/// An answer and how the engine produced it; `None` for a failed request.
type Answer = Option<(SolveSummary, Answered)>;

fn answered(o: Outcome) -> Answered {
    match o {
        Outcome::HitMemory => Answered::Memory,
        Outcome::HitDisk => Answered::Disk,
        Outcome::Deduped => Answered::Dedup,
        Outcome::Warm => Answered::Warm,
        Outcome::Cold => Answered::Cold,
    }
}

/// One engine call as the plain run makes it: answers and wall time.
fn query(engine: &mut Engine, requests: &[ScenarioRequest]) -> (Vec<Answer>, f64) {
    let started = Instant::now();
    let out = engine.query_batch(requests);
    let took = ms(started.elapsed());
    let answers = out
        .into_iter()
        .map(|r| match r {
            Ok(q) => Some((q.summary, answered(q.outcome))),
            Err(e) => {
                eprintln!("vbench: request failed: {e}");
                None
            }
        })
        .collect();
    (answers, took)
}

/// The traced replay of a run, fed unit by unit right after the plain
/// run's engine answered the same unit, so both see the same warm state.
struct Replay {
    engines: Vec<ReplayEngine>,
    cache_dir: Option<PathBuf>,
    tracer: Tracer,
    layers: Layers,
    plain_s: f64,
    traced_s: f64,
    unfaithful: usize,
}

impl Replay {
    /// One replay engine per shard; the warm-up answer sits in the shard
    /// `warm_shard`, as in the plain run.
    fn new(
        shards: usize,
        warmup: &ScenarioRequest,
        warm_shard: usize,
        cache_dir: Option<PathBuf>,
    ) -> Result<Replay, String> {
        let (summary, voltages) = solve_scenario(warmup, None).map_err(|e| e.to_string())?;
        let mut engines: Vec<ReplayEngine> = (0..shards)
            .map(|_| ReplayEngine::new(cache_dir.as_deref()).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        engines[warm_shard].install(warmup, summary, voltages);
        Ok(Replay {
            engines,
            cache_dir,
            tracer: Tracer::new(),
            layers: Layers::default(),
            plain_s: 0.0,
            traced_s: 0.0,
            unfaithful: 0,
        })
    }

    /// Replays one engine call (`first` is the stream index of its first
    /// request) and checks every answer against the plain run's.
    fn call(
        &mut self,
        shard: usize,
        first: usize,
        requests: &[ScenarioRequest],
        plain: &[Answer],
        plain_ms: f64,
    ) -> Result<(), String> {
        let lines: Vec<String> = requests
            .iter()
            .enumerate()
            .map(|(j, r)| wire_line(first + j, r))
            .collect();
        let tagged: Vec<(usize, &str)> = lines
            .iter()
            .enumerate()
            .map(|(j, l)| (first + j, l.as_str()))
            .collect();
        let started = Instant::now();
        let got = self.engines[shard].batch(&tagged, &mut self.tracer, &mut self.layers)?;
        self.traced_s += started.elapsed().as_secs_f64();
        self.plain_s += plain_ms / 1e3;
        for (j, (got, want)) in got.iter().zip(plain).enumerate() {
            let Some(want) = want else { continue };
            let verdict = if got.1 == want.1 {
                faithful(&got.0, &want.0)
            } else {
                Err(format!("answered {:?}, plain run {:?}", got.1, want.1))
            };
            if let Err(e) = verdict {
                eprintln!("vbench: replay of request {} is unfaithful: {e}", first + j);
                self.unfaithful += 1;
            }
        }
        Ok(())
    }

    /// Mirrors `Engine::flush` on shard 0.
    fn flush(&mut self) -> Result<(), String> {
        let started = Instant::now();
        self.engines[0]
            .flush(&mut self.tracer, &mut self.layers)
            .map_err(|e| format!("replay flush: {e}"))?;
        self.traced_s += started.elapsed().as_secs_f64();
        Ok(())
    }

    /// Mirrors opening a fresh engine over the same disk tier.
    fn reopen(&mut self) -> Result<(), String> {
        let started = Instant::now();
        self.engines =
            vec![ReplayEngine::new(self.cache_dir.as_deref()).map_err(|e| e.to_string())?];
        self.traced_s += started.elapsed().as_secs_f64();
        Ok(())
    }

    /// Per-layer metrics; writes the spans and names the largest
    /// in-process self time on stderr.
    fn finish(self, w: Workload, seed: u64, server: Vec<(String, f64)>) -> Traced {
        let layer_metrics = self.layers.metrics();
        let get = |n: &str| {
            layer_metrics
                .iter()
                .find(|(m, _)| *m == n)
                .map_or(0.0, |(_, v)| *v)
        };
        let selves = [
            ("engine.parse", get("engine.parse_us") / 1e3),
            ("engine.encode", get("engine.encode_us") / 1e3),
            ("core.build", get("core.build_us") / 1e3),
            ("pdn.self", get("pdn.self_ms")),
            ("sparse.amg_setup", get("sparse.amg_setup_ms")),
            ("sparse.krylov", get("sparse.krylov_ms")),
            ("em.lifetimes", get("em.lifetimes_ms")),
        ];
        if let Some((name, v)) = selves.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
            eprintln!(
                "vbench: {}: largest in-process self time per solve: {name} ({v:.3} ms)",
                w.name()
            );
        }
        let mut metrics = server;
        metrics.extend(layer_metrics.into_iter().map(|(n, v)| (n.to_string(), v)));
        metrics.push((
            "trace.overhead_frac".to_string(),
            1.0 - self.plain_s / self.traced_s,
        ));
        let path = out_dir().join(format!("{}-seed{seed}-spans.ndjson", w.name()));
        if let Err(e) = self.tracer.write(&path) {
            eprintln!("vbench: cannot write {}: {e}", path.display());
        }
        Traced {
            metrics,
            unfaithful: self.unfaithful,
        }
    }
}

/// Server metrics of the workloads without a daemon.
fn no_server() -> Vec<(String, f64)> {
    [
        "server.overhead_p50_ms",
        "server.overhead_tail_ms",
        "server.queue_wait_p50_ms",
        "server.queue_wait_tail_ms",
        "server.solve_p50_ms",
    ]
    .iter()
    .map(|n| (n.to_string(), 0.0))
    .collect()
}

// ---------------------------------------------------------------------
// served_quick
// ---------------------------------------------------------------------

/// A workload run: the plain run's measurements, the mix of the requests
/// it attempted, and the per-layer results of a traced run.
type Ran = (Plain, Vec<(&'static str, usize)>, Option<Traced>);

fn served_quick(args: &Args) -> Result<Ran, String> {
    let w = Workload::ServedQuick;
    // The clients pick lines by index, so this stream is drawn up front;
    // it lives in this process, not in the measured daemon.
    let stream = Stream::generate(w, args.seed);
    let items: Vec<&Item> = stream.items().collect();
    let lines: Vec<String> = items
        .iter()
        .enumerate()
        .map(|(i, it)| wire_line(i, &it.request))
        .collect();
    let flight = out_dir().join("flight");
    let warm_line = wire_line(0, &w.warmup());
    let mut plain = Plain::default();
    let mut daemon = None;
    for k in 0..SETUPS {
        let started = Instant::now();
        let served = Served::start(SHARDS, &flight).map_err(|e| e.to_string())?;
        let reply = Client::connect(served.addr)
            .and_then(|mut c| c.call(&warm_line))
            .map_err(|e| format!("warm-up: {e}"))?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("warm-up failed: {reply}"));
        }
        plain.setups_s.push(started.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            served.stop();
        } else {
            daemon = Some(served);
        }
    }
    let served = daemon.expect("last set-up kept");
    let pid = served.pid();
    // A traced run spends half its time on the served phase and half on
    // the in-process plain pass and replay.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let cpu0 = cpu_ms(pid);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let replies = served::drive(served.addr, &lines, args.connections, deadline);
    plain.elapsed_s = started.elapsed().as_secs_f64();
    plain.cpu_ms = cpu_ms(pid) - cpu0;
    plain.rss_mb = peak_rss_mb(pid);
    served.stop();
    let mut replies = replies.map_err(|e| e.to_string())?;
    replies.sort_by_key(|r| r.index);
    plain.attempted = replies.len();
    for r in &replies {
        if let Some(e) = &r.error {
            eprintln!("vbench: request {}: {e}", r.index);
            plain.errors += 1;
        }
    }
    plain.latencies_ms = replies.iter().map(|r| r.latency_ms).collect();
    let mut checker = Checker::new(w, args.seed, SAMPLES[w as usize]);
    for r in replies.iter().filter(|r| r.error.is_none()) {
        if let Some(summary) = &r.summary {
            checker.add(&items[r.index].request, summary);
        }
    }
    plain.settle(checker);
    let consumed = replies.last().map_or(0, |r| r.index + 1);
    let mix = mix(items[..consumed].iter().copied());
    if !args.trace {
        return Ok((plain, mix, None));
    }

    // Server phases from the reply telemetry.
    let ok: Vec<_> = replies.iter().filter(|r| r.error.is_none()).collect();
    let tail = w.tail_percentile();
    let mut overhead: Vec<f64> = ok
        .iter()
        .map(|r| r.latency_ms - r.queue_wait_ms - r.solve_ms)
        .collect();
    let mut queue: Vec<f64> = ok.iter().map(|r| r.queue_wait_ms).collect();
    let mut solve: Vec<f64> = ok.iter().map(|r| r.solve_ms).collect();
    let server = vec![
        ("server.overhead_p50_ms".to_string(), median(&mut overhead)),
        (
            "server.overhead_tail_ms".to_string(),
            percentile(&mut overhead, tail),
        ),
        ("server.queue_wait_p50_ms".to_string(), median(&mut queue)),
        (
            "server.queue_wait_tail_ms".to_string(),
            percentile(&mut queue, tail),
        ),
        ("server.solve_p50_ms".to_string(), median(&mut solve)),
    ];

    // The served prefix again, in process: one engine per shard with the
    // daemon's fingerprint routing, each request followed by its replay.
    let shard_of = |r: &ScenarioRequest| (r.fingerprint() % SHARDS as u64) as usize;
    let warmup = w.warmup().canonical();
    let mut engines: Vec<Engine> = (0..SHARDS)
        .map(|_| Engine::new(EngineConfig::default()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    engines[shard_of(&warmup)]
        .query(&warmup)
        .map_err(|e| e.to_string())?;
    let mut replay = Replay::new(SHARDS, &warmup, shard_of(&warmup), None)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for (i, it) in items.iter().take(consumed).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let shard = shard_of(&it.request);
        let one = std::slice::from_ref(&it.request);
        let (answer, took) = query(&mut engines[shard], one);
        replay.call(shard, i, one, &answer, took)?;
    }
    Ok((plain, mix, Some(replay.finish(w, args.seed, server))))
}

// ---------------------------------------------------------------------
// deep_stack
// ---------------------------------------------------------------------

fn deep_stack(args: &Args) -> Result<Ran, String> {
    let w = Workload::DeepStack;
    let warmup = w.warmup().canonical();
    let mut plain = Plain::default();
    let mut engine = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let mut e = Engine::new(EngineConfig::default()).map_err(|e| e.to_string())?;
        e.query(&warmup).map_err(|e| e.to_string())?;
        plain.setups_s.push(started.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("set up");
    let mut replay = match args.trace {
        true => Some(Replay::new(1, &warmup, 0, None)?),
        false => None,
    };
    let mut checker = Checker::new(w, args.seed, SAMPLES[w as usize]);
    let mut counts = Vec::new();
    let me = std::process::id();
    let cpu0 = cpu_ms(me);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    // Whole rounds only, so every run holds the same mix; one request per
    // engine call, so each latency is one request's.
    let mut stream = Generator::new(w, args.seed);
    while Instant::now() < deadline {
        let round = stream.next_unit();
        for it in &round {
            let one = std::slice::from_ref(&it.request);
            let (answer, took) = query(&mut engine, one);
            plain.latencies_ms.push(took);
            if let Some(replay) = &mut replay {
                replay.call(0, plain.attempted, one, &answer, took)?;
            }
            plain.record(&mut checker, one, &answer);
        }
        tally(&mut counts, &round);
    }
    plain.elapsed_s = started.elapsed().as_secs_f64();
    plain.cpu_ms = cpu_ms(me) - cpu0;
    plain.rss_mb = peak_rss_mb(me);
    plain.settle(checker);
    let traced = replay.map(|r| r.finish(w, args.seed, no_server()));
    Ok((plain, counts, traced))
}

// ---------------------------------------------------------------------
// sweep_axes
// ---------------------------------------------------------------------

fn sweep_axes(args: &Args) -> Result<Ran, String> {
    let w = Workload::SweepAxes;
    let warmup = w.warmup().canonical();
    let dir = out_dir().join(format!("cache-{}", std::process::id()));
    let replay_dir = out_dir().join(format!("cache-{}-replay", std::process::id()));
    let config = EngineConfig {
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };
    let mut plain = Plain::default();
    let mut engine = None;
    for _ in 0..SETUPS {
        let _ = fs::remove_dir_all(&dir);
        let started = Instant::now();
        let mut e = Engine::new(config.clone()).map_err(|e| e.to_string())?;
        e.query(&warmup).map_err(|e| e.to_string())?;
        plain.setups_s.push(started.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("set up");
    let _ = fs::remove_dir_all(&replay_dir);
    let mut replay = match args.trace {
        true => Some(Replay::new(1, &warmup, 0, Some(replay_dir.clone()))?),
        false => None,
    };
    let mut checker = Checker::new(w, args.seed, SAMPLES[w as usize]);
    let mut counts = Vec::new();
    let me = std::process::id();
    let cpu0 = cpu_ms(me);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut stream = Generator::new(w, args.seed);
    let mut batches = 0;
    // Each batch is answered, then flushed to the disk tier, as the
    // daemon's shards flush after every request.
    while Instant::now() < deadline {
        let batch = stream.next_unit();
        let calls: Vec<ScenarioRequest> = batch.iter().map(|it| it.request.clone()).collect();
        let t = Instant::now();
        let (answer, _) = query(&mut engine, &calls);
        engine.flush().map_err(|e| format!("flush: {e}"))?;
        let took = ms(t.elapsed());
        plain
            .latencies_ms
            .extend(std::iter::repeat_n(took, calls.len()));
        if let Some(replay) = &mut replay {
            replay.call(0, plain.attempted, &calls, &answer, took)?;
            replay.flush()?;
        }
        plain.record(&mut checker, &calls, &answer);
        tally(&mut counts, &batch);
        batches += 1;
    }
    // A fresh engine reads the grid back from the disk tier: the new
    // points of the batches sent, drawn again from the seed so the harness
    // holds none of them, in batches of eight.
    drop(engine);
    let t = Instant::now();
    let mut fresh = Engine::new(config).map_err(|e| e.to_string())?;
    let opened = ms(t.elapsed());
    if let Some(replay) = &mut replay {
        replay.plain_s += opened / 1e3;
        replay.reopen()?;
    }
    let mut grid = Generator::new(w, args.seed);
    let mut chunk: Vec<ScenarioRequest> = Vec::with_capacity(8);
    let (mut points, mut read_back) = (0, 0);
    for b in 0..batches {
        let unit = grid.next_unit();
        chunk.extend(
            unit.into_iter()
                .filter(|it| it.role == Role::Solve)
                .map(|it| it.request),
        );
        if chunk.len() < 8 && b + 1 < batches {
            continue;
        }
        let (answer, took) = query(&mut fresh, &chunk);
        plain
            .latencies_ms
            .extend(std::iter::repeat_n(took, chunk.len()));
        if let Some(replay) = &mut replay {
            replay.call(0, plain.attempted, &chunk, &answer, took)?;
        }
        plain.record(&mut checker, &chunk, &answer);
        points += chunk.len();
        read_back += answer
            .iter()
            .filter(|a| matches!(a, Some((_, Answered::Disk))))
            .count();
        chunk.clear();
    }
    plain.elapsed_s = started.elapsed().as_secs_f64();
    plain.cpu_ms = cpu_ms(me) - cpu0;
    plain.rss_mb = peak_rss_mb(me);
    drop(fresh);
    plain.settle(checker);
    eprintln!("vbench: sweep_axes: {batches} batches, {read_back}/{points} grid points read back from disk");
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&replay_dir);
    let traced = replay.map(|r| r.finish(w, args.seed, no_server()));
    Ok((plain, counts, traced))
}

// ---------------------------------------------------------------------
// daemon child and golden files
// ---------------------------------------------------------------------

fn serve_main(mut argv: impl Iterator<Item = String>) -> ExitCode {
    let mut shards = SHARDS;
    let mut flight_dir = out_dir().join("flight");
    while let Some(flag) = argv.next() {
        match (flag.as_str(), argv.next()) {
            ("--shards", Some(v)) => shards = v.parse().unwrap_or(SHARDS),
            ("--flight-dir", Some(v)) => flight_dir = PathBuf::from(v),
            _ => {
                eprintln!("vbench serve: bad flag {flag}");
                return ExitCode::from(2);
            }
        }
    }
    match served::serve_child(shards, flight_dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vbench serve: {e}");
            ExitCode::from(1)
        }
    }
}

fn golden_main() -> ExitCode {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("vbench golden: {e}");
        return ExitCode::from(1);
    }
    for w in Workload::ALL {
        let stream = Stream::generate(w, GOLDEN_SEED);
        let requests = golden_prefix(&stream, w);
        let mut out = String::new();
        for r in requests {
            match golden_line(r) {
                Ok(line) => {
                    out.push_str(&line);
                    out.push('\n');
                }
                Err(e) => {
                    eprintln!("vbench golden: {}: {e}", w.name());
                    return ExitCode::from(1);
                }
            }
        }
        let path = dir.join(format!("{}.ndjson", w.name()));
        if let Err(e) = fs::write(&path, out) {
            eprintln!("vbench golden: {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("vbench golden: wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
