//! The traced replay: the same request stream, sent through each layer's
//! public entry point in engine order, with the harness's own spans around
//! every call.
//!
//! Per request the replay runs `Json::parse` and
//! `ScenarioRequest::from_json`/`validate`/`canonical`/`fingerprint`
//! (engine), the memory and disk tiers and the warm-start donor rule
//! (engine), `to_scenario` plus the PDN constructor (core), the warm or
//! sketched PDN solve or `solve_coupled` (pdn, sparse, core),
//! `paper_em_lifetimes` (em) and `SolveSummary::to_json().emit()`
//! (engine). It mirrors `Engine::query_batch` step for step — groups,
//! donor snapshot before any solve, cache inserts after — so each answer
//! must equal the plain run's answer, iterations and solver path included.
//! The program itself carries no tracing for this.

use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use vstack::coupled::{solve_coupled, CoupledConfig, CoupledLoad};
use vstack::em_study::paper_em_lifetimes;
use vstack::pdn::{FaultedSolution, SolveScratch};
use vstack_engine::cache::{CacheEntry, DiskCache, DiskLoad, LruCache};
use vstack_engine::json::Json;
use vstack_engine::request::{ScenarioRequest, SolveKind};
use vstack_engine::SolveSummary;

use crate::util::{mean, ms, us};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    request: usize,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder, written out once the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            request,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`; returns its duration.
    pub fn close(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Runs `f` inside a span named `name`; returns its value and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent, request);
        let out = f();
        (out, self.close(id))
    }

    /// Writes the spans as NDJSON: id, parent, name, request, start and
    /// end in microseconds since the replay began.
    ///
    /// # Errors
    ///
    /// Propagates the file write.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}\n",
                s.name,
                s.request,
                us(s.start),
                us(s.end)
            ));
        }
        fs::write(path, out)
    }
}

/// Per-layer sums over a replay; [`Layers::metrics`] turns them into the
/// per-layer metric values.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    requests: usize,
    parse_us: f64,
    encodes: usize,
    encode_us: f64,
    hits: usize,
    memory_hits: usize,
    hit_us: f64,
    disk_hits: usize,
    disk_load_us: f64,
    flushed: usize,
    flush_us: f64,
    solves: usize,
    warm: usize,
    build_us: f64,
    coupled: usize,
    coupled_ms: f64,
    coupling_iterations: f64,
    pdn_solves: usize,
    pdn_ms: f64,
    unknowns: f64,
    amg_setup_ms: f64,
    krylov_ms: f64,
    iterations: f64,
    fallbacks: f64,
    mixed: usize,
    em_runs: usize,
    em_ms: f64,
    em_groups: f64,
}

impl Layers {
    /// The engine, core, pdn, sparse and em per-layer metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let pdn_self = self.pdn_ms - self.amg_setup_ms - self.krylov_ms;
        vec![
            ("engine.parse_us", mean(self.parse_us, self.requests)),
            ("engine.encode_us", mean(self.encode_us, self.encodes)),
            ("engine.hit_frac", mean(self.hits as f64, self.requests)),
            ("engine.warm_frac", mean(self.warm as f64, self.solves)),
            ("engine.hit_us", mean(self.hit_us, self.memory_hits)),
            (
                "engine.disk_load_us",
                mean(self.disk_load_us, self.disk_hits),
            ),
            (
                "engine.flush_us_per_entry",
                mean(self.flush_us, self.flushed),
            ),
            ("core.build_us", mean(self.build_us, self.solves)),
            ("core.coupled_ms", mean(self.coupled_ms, self.coupled)),
            (
                "core.coupling_iterations",
                mean(self.coupling_iterations, self.coupled),
            ),
            ("pdn.solve_ms", mean(self.pdn_ms, self.pdn_solves)),
            ("pdn.self_ms", mean(pdn_self, self.pdn_solves)),
            ("pdn.unknowns", mean(self.unknowns, self.pdn_solves)),
            (
                "sparse.amg_setup_ms",
                mean(self.amg_setup_ms, self.pdn_solves),
            ),
            ("sparse.krylov_ms", mean(self.krylov_ms, self.pdn_solves)),
            ("sparse.iterations", mean(self.iterations, self.pdn_solves)),
            ("sparse.fallbacks", mean(self.fallbacks, self.pdn_solves)),
            (
                "sparse.mixed_frac",
                mean(self.mixed as f64, self.pdn_solves),
            ),
            ("em.lifetimes_ms", mean(self.em_ms, self.em_runs)),
            ("em.groups", mean(self.em_groups, self.em_runs)),
            (
                "em.us_per_group",
                mean(self.em_ms * 1e3, self.em_groups as usize),
            ),
        ]
    }
}

/// How the replay answered one request (mirrors `engine::Outcome`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answered {
    /// Memory tier.
    Memory,
    /// Disk tier.
    Disk,
    /// Shared a sibling's solve in the same batch.
    Dedup,
    /// Solved from a donor's voltages.
    Warm,
    /// Solved from scratch.
    Cold,
}

/// The replay's stand-in for one `Engine`: the same public cache types,
/// driven in the same order.
pub struct ReplayEngine {
    lru: LruCache,
    disk: Option<DiskCache>,
    dirty: Vec<u64>,
}

impl ReplayEngine {
    /// Mirrors `Engine::new` with the default 256-entry LRU and warm
    /// starts on.
    ///
    /// # Errors
    ///
    /// Propagates opening the disk tier.
    pub fn new(cache_dir: Option<&Path>) -> io::Result<Self> {
        Ok(ReplayEngine {
            lru: LruCache::new(256),
            disk: cache_dir.map(DiskCache::open).transpose()?,
            dirty: Vec::new(),
        })
    }

    /// Installs an answer solved outside the replay (the set-up warm-up),
    /// exactly as the engine's cache would hold it.
    pub fn install(
        &mut self,
        request: &ScenarioRequest,
        summary: SolveSummary,
        voltages: Vec<f64>,
    ) {
        let request = request.canonical();
        let fp = request.fingerprint();
        self.lru.insert(
            fp,
            CacheEntry {
                request,
                summary,
                voltages: Some(voltages),
            },
        );
        if self.disk.is_some() && !self.dirty.contains(&fp) {
            self.dirty.push(fp);
        }
    }

    /// Replays one batch of wire lines (`ids` are the stream indices the
    /// spans carry). Returns each request's summary and how it was
    /// answered, in input order.
    ///
    /// # Errors
    ///
    /// A parse or solve failure, which the plain run did not have.
    pub fn batch(
        &mut self,
        lines: &[(usize, &str)],
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Vec<(SolveSummary, Answered)>, String> {
        let first = lines.first().map_or(0, |(id, _)| *id);
        let root = tracer.open("engine.batch", None, first);
        // Phase 1: parse, validate, canonicalize, fingerprint, group.
        let mut groups: Vec<(u64, ScenarioRequest, Vec<usize>)> = Vec::new();
        for (k, (id, line)) in lines.iter().enumerate() {
            let (parsed, took) = tracer.time("engine.parse", Some(root), *id, || {
                let doc = Json::parse(line).map_err(|e| e.to_string())?;
                let scenario = doc.get("scenario").ok_or("line has no scenario")?;
                let request = ScenarioRequest::from_json(scenario)?;
                request.validate()?;
                let canonical = request.canonical();
                let fp = canonical.fingerprint();
                Ok::<_, String>((fp, canonical))
            });
            layers.requests += 1;
            layers.parse_us += us(took);
            let (fp, canonical) = parsed?;
            match groups.iter_mut().find(|(g, _, _)| *g == fp) {
                Some((_, _, members)) => members.push(k),
                None => groups.push((fp, canonical, vec![k])),
            }
        }
        // Phase 2: cache tiers, then donors for the misses — all donors
        // are chosen before any solve, as the engine does.
        let mut answers: Vec<Option<(SolveSummary, Answered)>> = vec![None; groups.len()];
        let mut jobs: Vec<(usize, Option<Vec<f64>>)> = Vec::new();
        for (g, (fp, request, members)) in groups.iter().enumerate() {
            let id = lines[members[0]].0;
            let (hit, took) = tracer.time("engine.lookup", Some(root), id, || {
                self.lru.get(*fp).map(|e| e.summary.clone())
            });
            if let Some(summary) = hit {
                layers.memory_hits += 1;
                layers.hit_us += us(took);
                answers[g] = Some((summary, Answered::Memory));
                continue;
            }
            if let Some(disk) = &self.disk {
                let (loaded, took) =
                    tracer.time("engine.disk_load", Some(root), id, || disk.load(*fp));
                if let DiskLoad::Hit(entry) = loaded {
                    layers.disk_hits += 1;
                    layers.disk_load_us += us(took);
                    answers[g] = Some((entry.summary.clone(), Answered::Disk));
                    self.lru.insert(*fp, *entry);
                    continue;
                }
            }
            let (guess, _) = tracer.time("engine.donor", Some(root), id, || {
                nearest_donor(&self.lru, request)
            });
            jobs.push((g, guess));
        }
        // Phase 3: solve the misses in submission order.
        let mut solved = Vec::with_capacity(jobs.len());
        for (g, guess) in jobs {
            let id = lines[groups[g].2[0]].0;
            let warm = guess.is_some();
            let (summary, voltages) =
                solve_traced(&groups[g].1, guess.as_deref(), tracer, root, id, layers)?;
            layers.solves += 1;
            layers.warm += usize::from(warm);
            solved.push((g, summary, voltages, warm));
        }
        // Phase 4: install results.
        for (g, summary, voltages, warm) in solved {
            let (fp, request, _) = &groups[g];
            self.lru.insert(
                *fp,
                CacheEntry {
                    request: request.clone(),
                    summary: summary.clone(),
                    voltages: Some(voltages),
                },
            );
            if self.disk.is_some() && !self.dirty.contains(fp) {
                self.dirty.push(*fp);
            }
            let how = if warm { Answered::Warm } else { Answered::Cold };
            answers[g] = Some((summary, how));
        }
        // Every member gets its group's answer, encoded for the wire.
        let mut out: Vec<Option<(SolveSummary, Answered)>> = vec![None; lines.len()];
        for (g, (_, _, members)) in groups.iter().enumerate() {
            let (summary, how) = answers[g].clone().expect("every group answered");
            for (k, &m) in members.iter().enumerate() {
                let how = match (k, how) {
                    (0, h) => h,
                    (_, Answered::Warm | Answered::Cold) => Answered::Dedup,
                    (_, h) => h,
                };
                if how != Answered::Warm && how != Answered::Cold {
                    layers.hits += 1;
                }
                let ((), took) = tracer.time("engine.encode", Some(root), lines[m].0, || {
                    std::hint::black_box(summary.to_json().emit());
                });
                layers.encodes += 1;
                layers.encode_us += us(took);
                out[m] = Some((summary.clone(), how));
            }
        }
        tracer.close(root);
        Ok(out
            .into_iter()
            .map(|a| a.expect("every request answered"))
            .collect())
    }

    /// Mirrors `Engine::flush`: stores every solve since the last flush.
    ///
    /// # Errors
    ///
    /// Propagates the first store failure.
    pub fn flush(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> io::Result<usize> {
        let Some(disk) = &self.disk else {
            self.dirty.clear();
            return Ok(0);
        };
        let root = tracer.open("engine.flush", None, 0);
        let mut written = 0;
        for fp in std::mem::take(&mut self.dirty) {
            if let Some(entry) = self.lru.peek(fp) {
                let (stored, took) = tracer.time("engine.store", Some(root), 0, || {
                    disk.store(fp, &entry.request, &entry.summary)
                });
                stored?;
                layers.flushed += 1;
                layers.flush_us += us(took);
                written += 1;
            }
        }
        tracer.close(root);
        Ok(written)
    }
}

/// The engine's warm-start donor rule: among cached entries with voltages
/// whose structure-determining knobs all match, the one nearest in the
/// continuous knobs, fingerprint breaking ties.
fn nearest_donor(lru: &LruCache, request: &ScenarioRequest) -> Option<Vec<f64>> {
    if request.has_faults() {
        return None;
    }
    let mut best: Option<(f64, u64, &Vec<f64>)> = None;
    for (fp, entry) in lru.iter() {
        let Some(voltages) = &entry.voltages else {
            continue;
        };
        let d = &entry.request;
        let compatible = d.kind == request.kind
            && d.layers == request.layers
            && d.tsv == request.tsv
            && d.fidelity == request.fidelity
            && d.converters == request.converters
            && d.closed_loop == request.closed_loop
            && d.thermal_coupling == request.thermal_coupling
            && d.hotspot_layer == request.hotspot_layer
            && !d.has_faults();
        if !compatible {
            continue;
        }
        let distance = (d.imbalance - request.imbalance).abs()
            + (d.power_c4 - request.power_c4).abs()
            + (d.ambient_c - request.ambient_c).abs() / 100.0
            + (d.sink_k_per_w - request.sink_k_per_w).abs()
            + (d.hotspot_w - request.hotspot_w).abs() / 100.0;
        let better = match &best {
            None => true,
            Some((bd, bf, _)) => distance < *bd || (distance == *bd && fp < *bf),
        };
        if better {
            best = Some((distance, fp, voltages));
        }
    }
    best.map(|(_, _, v)| v.clone())
}

/// The PDN of either topology, built once per request.
enum Pdn {
    Regular(vstack::pdn::RegularPdn),
    Stacked(vstack::pdn::VstackPdn),
}

/// One solve through the layers, each call in its own span.
fn solve_traced(
    request: &ScenarioRequest,
    guess: Option<&[f64]>,
    tracer: &mut Tracer,
    root: usize,
    id: usize,
    layers: &mut Layers,
) -> Result<(SolveSummary, Vec<f64>), String> {
    let solve_span = tracer.open("request.solve", Some(root), id);
    let parent = Some(solve_span);
    let mut scratch = SolveScratch::new();
    let err = |e: vstack::pdn::PdnError| e.to_string();
    let (summary, voltages) = if request.thermal_coupling {
        let (scenario, took) = tracer.time("core.build", parent, id, || request.to_scenario());
        layers.build_us += us(took);
        let mut config = CoupledConfig::paper_air_cooled()
            .ambient_c(request.ambient_c)
            .sink_resistance(request.sink_k_per_w);
        if let Some(layer) = request.hotspot_layer {
            config = config.hotspot(layer, request.hotspot_w);
        }
        let load = match request.kind {
            SolveKind::Regular => CoupledLoad::RegularPeak,
            SolveKind::VoltageStacked => CoupledLoad::VoltageStacked(request.imbalance),
        };
        let (out, took) = tracer.time("core.coupled", parent, id, || {
            solve_coupled(&scenario, load, &config, guess, &mut scratch)
        });
        let out = out.map_err(err)?;
        layers.coupled += 1;
        layers.coupled_ms += ms(took);
        layers.coupling_iterations += out.report.iterations as f64;
        let mut s = summarize(&out.solved, tracer, parent, id, layers);
        s.em_c4_hours = out.report.em.c4_hours;
        s.em_tsv_hours = out.report.em.tsv_hours;
        s.coupling_iterations = out.report.iterations;
        s.coupling_converged = out.report.converged;
        s.peak_temperature_c = out.report.peak_temperature_c;
        (s, out.solved.voltages)
    } else {
        let ((scenario, pdn, loads), took) = tracer.time("core.build", parent, id, || {
            let scenario = request.to_scenario();
            let (pdn, loads) = match request.kind {
                SolveKind::Regular => (Pdn::Regular(scenario.regular_pdn()), scenario.peak_loads()),
                SolveKind::VoltageStacked => (
                    Pdn::Stacked(scenario.voltage_stacked_pdn()),
                    scenario.interleaved_loads(request.imbalance),
                ),
            };
            (scenario, pdn, loads)
        });
        drop(scenario);
        layers.build_us += us(took);
        let faults = request.fault_set();
        let (solved, took) = tracer.time("pdn.solve", parent, id, || {
            match (&pdn, request.has_faults()) {
                (Pdn::Regular(p), false) => p.solve_warm(&loads, guess, &mut scratch),
                (Pdn::Stacked(p), false) => p.solve_warm(&loads, guess, &mut scratch),
                (Pdn::Regular(p), true) => p.solve_faulted_sketched(&loads, &faults, &mut scratch),
                (Pdn::Stacked(p), true) => p.solve_faulted_sketched(&loads, &faults, &mut scratch),
            }
        });
        let solved = solved.map_err(err)?;
        let report = &solved.report;
        layers.pdn_solves += 1;
        layers.pdn_ms += ms(took);
        layers.unknowns += solved.voltages.len() as f64;
        layers.amg_setup_ms += report.setup_us as f64 / 1e3;
        layers.krylov_ms += report.solve_us as f64 / 1e3;
        layers.iterations += report.iterations as f64;
        layers.fallbacks += report.fallbacks.len() as f64;
        layers.mixed += usize::from(report.precision == "mixed");
        let s = summarize(&solved, tracer, parent, id, layers);
        (s, solved.voltages)
    };
    tracer.close(solve_span);
    Ok((summary, voltages))
}

/// `SolveSummary::from_faulted`, with the EM evaluation in its own span.
fn summarize(
    solved: &FaultedSolution,
    tracer: &mut Tracer,
    parent: Option<usize>,
    id: usize,
    layers: &mut Layers,
) -> SolveSummary {
    let sol = &solved.solution;
    let (em, took) = tracer.time("em.lifetimes", parent, id, || paper_em_lifetimes(sol));
    layers.em_runs += 1;
    layers.em_ms += ms(took);
    layers.em_groups +=
        (sol.vdd_c4.groups().len() + sol.gnd_c4.groups().len() + sol.tsv.groups().len()) as f64;
    SolveSummary {
        max_ir_drop_frac: sol.max_ir_drop_frac,
        mean_ir_drop_frac: sol.mean_ir_drop_frac,
        worst_layer: sol.worst_layer,
        efficiency: sol.efficiency(),
        em_c4_hours: em.c4_hours,
        em_tsv_hours: em.tsv_hours,
        overloaded_converters: sol.overloaded_converters,
        solver_iterations: solved.report.iterations,
        solver_setup_us: solved.report.setup_us,
        solver_trail: solved.report.trail(),
        solver_path: format!("{}+{}", solved.report.operator, solved.report.precision),
        coupling_iterations: 0,
        coupling_converged: true,
        peak_temperature_c: 0.0,
    }
}

/// Whether a replayed answer is the plain run's answer: same solver
/// iterations and path, same emitted summary apart from the wall-clock
/// setup time.
///
/// # Errors
///
/// Describes the first difference.
pub fn faithful(replayed: &SolveSummary, plain: &SolveSummary) -> Result<(), String> {
    if replayed.solver_iterations != plain.solver_iterations
        || replayed.solver_path != plain.solver_path
    {
        return Err(format!(
            "solver {} iterations via {}, plain run {} via {}",
            replayed.solver_iterations,
            replayed.solver_path,
            plain.solver_iterations,
            plain.solver_path
        ));
    }
    let bytes = |s: &SolveSummary| {
        let mut s = s.clone();
        s.solver_setup_us = 0;
        s.to_json().emit()
    };
    if bytes(replayed) != bytes(plain) {
        return Err(format!(
            "summary {} differs from plain {}",
            bytes(replayed),
            bytes(plain)
        ));
    }
    Ok(())
}
