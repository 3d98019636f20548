//! Seeded request streams for the three benchmark workloads.
//!
//! A stream is a list of *units*: the mix blocks of `served_quick`, the
//! rounds of `deep_stack` and the batches of `sweep_axes`. Each unit holds
//! the same mix for every seed; the seed draws the continuous knobs
//! (imbalance, power-C4 fraction, fault sites, ambient and heatsink) and
//! the order inside a unit. A run consumes a prefix of the stream until
//! its time is up, so streams are generated longer than any run needs.

use std::collections::HashSet;

use vstack_engine::request::ScenarioRequest;

use crate::rng::Rng;

/// The benchmark workloads. `BENCHMARK.json` lists `served_quick` and
/// `sweep_axes`; `deep_stack` runs by hand (see `README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique quick requests to a 2-shard daemon over TCP, closed loop.
    ServedQuick,
    /// Paper-fidelity deep stacks through `Engine::query_batch`.
    DeepStack,
    /// Quick grid with fault and thermal axes, memory, dedup and disk hits.
    SweepAxes,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::ServedQuick,
        Workload::DeepStack,
        Workload::SweepAxes,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServedQuick => "served_quick",
            Workload::DeepStack => "deep_stack",
            Workload::SweepAxes => "sweep_axes",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `latency_tail_ms` reports: one that leaves at least
    /// ten samples beyond it at this workload's sample count (see
    /// `README.md`).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::ServedQuick => 98.0,
            Workload::DeepStack => 93.0,
            Workload::SweepAxes => 97.0,
        }
    }

    /// Units generated per stream; every run ends long before it runs out.
    fn units(self) -> usize {
        match self {
            Workload::ServedQuick => 5_000,
            Workload::DeepStack => 300,
            Workload::SweepAxes => 4_000,
        }
    }

    /// The request each set-up answers before the timed phase. It is part
    /// of the workload: it sits in the memory tier when the stream starts,
    /// and `sweep_axes` revisits it in its first batch.
    pub fn warmup(self) -> ScenarioRequest {
        match self {
            Workload::ServedQuick | Workload::SweepAxes => {
                ScenarioRequest::voltage_stacked(2, 0.4).quick()
            }
            Workload::DeepStack => ScenarioRequest::voltage_stacked(8, 0.3),
        }
    }
}

/// What the engine is meant to do with an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// First sight of a fingerprint: a solve.
    Solve,
    /// A point answered earlier in the run: a memory-tier hit.
    Revisit,
    /// A repeat of a point solved in the same batch: deduplicated.
    Dedup,
}

impl Role {
    /// Label in the NDJSON dump.
    pub fn name(self) -> &'static str {
        match self {
            Role::Solve => "solve",
            Role::Revisit => "revisit",
            Role::Dedup => "dedup",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Item {
    /// The request as the program receives it.
    pub request: ScenarioRequest,
    /// Mix class, e.g. `vs2` or `reg8/fault`.
    pub class: &'static str,
    /// Intended engine outcome.
    pub role: Role,
}

/// A generated request stream.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Mix blocks, rounds or batches, in the order they are sent.
    pub units: Vec<Vec<Item>>,
}

/// Memory-tier revisits pick from this many most recent new points, well
/// inside the engine's default 256-entry LRU.
pub const REVISIT_WINDOW: usize = 64;
/// `sweep_axes` batch shape: new points, revisits and in-batch repeats.
pub const SWEEP_NEW: usize = 4;
/// Revisits per `sweep_axes` batch.
pub const SWEEP_REVISITS: usize = 2;
/// In-batch repeats per `sweep_axes` batch.
pub const SWEEP_DEDUPS: usize = 2;

impl Stream {
    /// Generates the full stream of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Stream {
        let mut g = Generator::new(workload, seed);
        Stream {
            units: (0..workload.units()).map(|_| g.next_unit()).collect(),
        }
    }

    /// Every item in the order it is sent.
    pub fn items(&self) -> impl Iterator<Item = &Item> {
        self.units.iter().flatten()
    }

    /// The stream as NDJSON, one item per line — the byte-identity probe.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (u, unit) in self.units.iter().enumerate() {
            for item in unit {
                out.push_str(&format!(
                    "{{\"unit\":{u},\"class\":\"{}\",\"role\":\"{}\",\"scenario\":{}}}\n",
                    item.class,
                    item.role.name(),
                    item.request.to_json().emit()
                ));
            }
        }
        out
    }
}

/// Units of the seed-1 stream whose new points the committed golden
/// answers cover: more than a 60 s run consumes on a 2-core host.
fn golden_units(workload: Workload) -> usize {
    match workload {
        Workload::ServedQuick => 250,
        Workload::DeepStack => 35,
        Workload::SweepAxes => 900,
    }
}

/// The distinct new points of the golden units of `stream`, in the order
/// they are sent: the requests the golden files answer.
pub fn golden_prefix(stream: &Stream, workload: Workload) -> Vec<&ScenarioRequest> {
    let mut seen = HashSet::new();
    stream.units[..golden_units(workload)]
        .iter()
        .flatten()
        .filter(|it| it.role == Role::Solve && seen.insert(it.request.fingerprint()))
        .map(|it| &it.request)
        .collect()
}

/// Item count per class over `items`, classes in first-seen order.
pub fn mix<'a>(items: impl IntoIterator<Item = &'a Item>) -> Vec<(&'static str, usize)> {
    let mut counts = Vec::new();
    tally(&mut counts, items);
    counts
}

/// Adds `items` to the per-class counts of [`mix`].
pub fn tally<'a>(
    counts: &mut Vec<(&'static str, usize)>,
    items: impl IntoIterator<Item = &'a Item>,
) {
    for item in items {
        match counts.iter_mut().find(|(c, _)| *c == item.class) {
            Some((_, n)) => *n += 1,
            None => counts.push((item.class, 1)),
        }
    }
}

/// Draws a workload's stream one unit at a time, so an in-process run
/// holds only the units it consumed. [`Stream::generate`] collects the
/// same units.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    /// Fingerprints handed out so far; new points never repeat one.
    seen: HashSet<u64>,
    /// Units drawn so far.
    unit: usize,
    /// `sweep_axes`: next grid slot per axis (plain, fault, thermal).
    slot: [usize; 3],
    /// `sweep_axes`: the most recent new points, revisit candidates.
    recent: Vec<Item>,
}

impl Generator {
    /// A generator for `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let warmup = workload.warmup();
        Generator {
            workload,
            rng: Rng::new(seed, workload as u64 + 1),
            seen: HashSet::from([warmup.fingerprint()]),
            unit: 0,
            slot: [0; 3],
            recent: vec![Item {
                request: warmup,
                class: "vs2",
                role: Role::Revisit,
            }],
        }
    }

    /// The next mix block, round or batch.
    pub fn next_unit(&mut self) -> Vec<Item> {
        let unit = match self.workload {
            Workload::ServedQuick => self.served_block(self.unit),
            Workload::DeepStack => self.deep_round(),
            Workload::SweepAxes => self.sweep_batch(),
        };
        self.unit += 1;
        unit
    }

    /// Draws requests from `make` until one has an unseen fingerprint.
    fn fresh(&mut self, make: impl Fn(&mut Rng) -> ScenarioRequest) -> ScenarioRequest {
        loop {
            let r = make(&mut self.rng);
            if self.seen.insert(r.fingerprint()) {
                return r;
            }
        }
    }

    fn item(&mut self, class: &'static str, make: impl Fn(&mut Rng) -> ScenarioRequest) -> Item {
        Item {
            request: self.fresh(make),
            class,
            role: Role::Solve,
        }
    }

    /// Ten requests: seven 2-layer V-S (loadgen's request), one 4/6/8-layer
    /// V-S and two regular stacks of 2–8 layers, depths rotating by block.
    fn served_block(&mut self, b: usize) -> Vec<Item> {
        const VS: [(usize, &str); 3] = [(4, "vs4"), (6, "vs6"), (8, "vs8")];
        const REG: [(usize, &str); 4] = [(2, "reg2"), (4, "reg4"), (6, "reg6"), (8, "reg8")];
        let mut block: Vec<Item> = (0..7)
            .map(|_| {
                self.item("vs2", |r| {
                    ScenarioRequest::voltage_stacked(2, r.knob(0.05, 0.6)).quick()
                })
            })
            .collect();
        let (layers, class) = VS[b % 3];
        block.push(self.item(class, |r| {
            ScenarioRequest::voltage_stacked(layers, r.knob(0.05, 0.6))
                .power_c4(r.knob(0.2, 0.3))
                .quick()
        }));
        for k in 0..2 {
            let (layers, class) = REG[(2 * b + k) % 4];
            block.push(self.item(class, |r| {
                ScenarioRequest::regular(layers)
                    .power_c4(r.knob(0.15, 0.35))
                    .quick()
            }));
        }
        self.rng.shuffle(&mut block);
        block
    }

    /// One of each paper-fidelity deep stack: V-S at 8/16/32 layers with 4
    /// and 16 converters per core, and regular at 8/16/32 layers.
    fn deep_round(&mut self) -> Vec<Item> {
        const VS: [(usize, usize, &str); 6] = [
            (8, 4, "vs8c4"),
            (16, 4, "vs16c4"),
            (32, 4, "vs32c4"),
            (8, 16, "vs8c16"),
            (16, 16, "vs16c16"),
            (32, 16, "vs32c16"),
        ];
        const REG: [(usize, &str); 3] = [(8, "reg8"), (16, "reg16"), (32, "reg32")];
        let mut round = Vec::with_capacity(9);
        for (layers, conv, class) in VS {
            round.push(self.item(class, |r| {
                ScenarioRequest::voltage_stacked(layers, r.knob(0.1, 0.5)).converters(conv)
            }));
        }
        for (layers, class) in REG {
            round.push(self.item(class, |r| {
                ScenarioRequest::regular(layers).power_c4(r.knob(0.2, 0.3))
            }));
        }
        self.rng.shuffle(&mut round);
        round
    }

    /// A batch of eight: four new grid points (two plain, one faulted, one
    /// thermally coupled, each axis rotating over kind × {2, 4, 8} layers),
    /// two revisits of recent points and two repeats of this batch's points.
    fn sweep_batch(&mut self) -> Vec<Item> {
        const GRID: [(bool, usize, [&str; 3]); 6] = [
            (true, 2, ["vs2", "vs2/fault", "vs2/thermal"]),
            (false, 2, ["reg2", "reg2/fault", "reg2/thermal"]),
            (true, 4, ["vs4", "vs4/fault", "vs4/thermal"]),
            (false, 4, ["reg4", "reg4/fault", "reg4/thermal"]),
            (true, 8, ["vs8", "vs8/fault", "vs8/thermal"]),
            (false, 8, ["reg8", "reg8/fault", "reg8/thermal"]),
        ];
        let mut batch = Vec::with_capacity(8);
        for axis in [0, 0, 1, 2] {
            let (vs, layers, classes) = GRID[self.slot[axis] % GRID.len()];
            self.slot[axis] += 1;
            let item = self.item(classes[axis], |r| {
                let base = if vs {
                    ScenarioRequest::voltage_stacked(layers, r.knob(0.05, 0.6)).quick()
                } else {
                    ScenarioRequest::regular(layers)
                        .power_c4(r.knob(0.15, 0.35))
                        .quick()
                };
                match axis {
                    0 => base,
                    1 => base.fail_vdd_pad(r.below(16)).fail_tsvs(
                        r.below(layers - 1),
                        r.below(16),
                        1,
                    ),
                    _ => base
                        .thermal_coupling(true)
                        .ambient_c(r.knob(25.0, 45.0))
                        .sink_k_per_w(r.knob(0.2, 0.4)),
                }
            });
            batch.push(item);
        }
        let new: Vec<Item> = batch.clone();
        let window = &self.recent;
        let first = self.rng.below(window.len());
        let mut second = self.rng.below(window.len());
        if window.len() > 1 && second == first {
            second = (first + 1) % window.len();
        }
        for k in [first, second] {
            let mut item = window[k].clone();
            item.role = Role::Revisit;
            batch.push(item);
        }
        let a = self.rng.below(SWEEP_NEW);
        let b = (a + 1 + self.rng.below(SWEEP_NEW - 1)) % SWEEP_NEW;
        for k in [a, b] {
            batch.push(new[k].clone());
        }
        self.rng.shuffle(&mut batch);
        // The first occurrence of a new point solves; later ones dedup.
        let mut firsts = HashSet::new();
        for item in &mut batch {
            if item.role != Role::Revisit {
                let fp = item.request.fingerprint();
                item.role = if firsts.insert(fp) {
                    Role::Solve
                } else {
                    Role::Dedup
                };
            }
        }
        self.recent.extend(new);
        let stale = self.recent.len().saturating_sub(REVISIT_WINDOW);
        self.recent.drain(..stale);
        batch
    }
}
