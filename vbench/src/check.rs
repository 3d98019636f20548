//! Answer checks: committed golden values for the default seed, an
//! in-process cross-check of a sample for every seed, and the physical
//! validity count.

use std::collections::HashMap;

use vstack_engine::engine::solve_scenario;
use vstack_engine::json::Json;
use vstack_engine::request::ScenarioRequest;
use vstack_engine::SolveSummary;

use vbench::gen::Workload;

/// The seed the committed golden files were computed for.
pub const GOLDEN_SEED: u64 = 1;

/// Relative tolerance between an answer and its reference. Served and
/// engine answers may be warm-started from a neighbour, references are
/// cold solves; both meet the solver's convergence tolerance, so they
/// agree far inside this bound.
pub const REL_TOL: f64 = 1e-6;

/// Relative tolerance for thermally coupled answers: the coupling loop
/// stops once the layer temperatures move by less than 0.05 °C, so a
/// warm-started fixed point and a cold one differ by that much.
pub const REL_TOL_COUPLED: f64 = 2e-3;

/// The checked fields of one answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    values: [f64; 6],
    overloaded: usize,
    coupled: bool,
}

const FIELDS: [&str; 6] = [
    "max_ir_drop_frac",
    "mean_ir_drop_frac",
    "efficiency",
    "em_c4_hours",
    "em_tsv_hours",
    "peak_temperature_c",
];

impl Reference {
    /// The checked fields of `s`.
    pub fn of(s: &SolveSummary) -> Reference {
        Reference {
            values: [
                s.max_ir_drop_frac,
                s.mean_ir_drop_frac,
                s.efficiency,
                s.em_c4_hours,
                s.em_tsv_hours,
                s.peak_temperature_c,
            ],
            overloaded: s.overloaded_converters,
            coupled: s.coupling_iterations > 0,
        }
    }

    /// Compares an answer against this reference.
    ///
    /// # Errors
    ///
    /// Names the first field outside tolerance.
    pub fn check(&self, answer: &SolveSummary) -> Result<(), String> {
        let got = Reference::of(answer);
        let tol = if self.coupled {
            REL_TOL_COUPLED
        } else {
            REL_TOL
        };
        for (k, (&want, &have)) in self.values.iter().zip(&got.values).enumerate() {
            let close = if want.is_finite() && have.is_finite() {
                (want - have).abs() <= tol * want.abs().max(have.abs()).max(1e-12)
            } else {
                want == have
            };
            if !close {
                return Err(format!("{}: got {have}, want {want}", FIELDS[k]));
            }
        }
        if got.overloaded != self.overloaded {
            return Err(format!(
                "overloaded_converters: got {}, want {}",
                got.overloaded, self.overloaded
            ));
        }
        if got.coupled != self.coupled {
            return Err("coupling block present on one side only".to_string());
        }
        Ok(())
    }

    fn to_line(&self, fp: u64) -> String {
        let values: Vec<String> = self.values.iter().map(|v| format!("{v:.9e}")).collect();
        format!(
            "{{\"fp\":\"{}\",\"v\":[{}],\"o\":{},\"c\":{}}}",
            ScenarioRequest::format_fingerprint(fp),
            values.join(","),
            self.overloaded,
            self.coupled
        )
    }

    fn from_line(line: &str) -> Option<(u64, Reference)> {
        let doc = Json::parse(line).ok()?;
        let fp = ScenarioRequest::parse_fingerprint(doc.get("fp")?.as_str()?)?;
        let arr = doc.get("v")?.as_arr()?;
        let mut values = [0.0; 6];
        for (slot, v) in values.iter_mut().zip(arr) {
            *slot = v.as_f64()?;
        }
        Some((
            fp,
            Reference {
                values,
                overloaded: doc.get("o")?.as_usize()?,
                coupled: doc.get("c")?.as_bool()?,
            },
        ))
    }
}

/// The committed golden answers of `workload` at [`GOLDEN_SEED`].
pub fn golden(workload: Workload) -> HashMap<u64, Reference> {
    let text = match workload {
        Workload::ServedQuick => include_str!("../golden/served_quick.ndjson"),
        Workload::DeepStack => include_str!("../golden/deep_stack.ndjson"),
        Workload::SweepAxes => include_str!("../golden/sweep_axes.ndjson"),
    };
    text.lines().filter_map(Reference::from_line).collect()
}

/// Cold in-process reference for `request`.
///
/// # Errors
///
/// The engine's error text when the reference solve fails.
pub fn reference(request: &ScenarioRequest) -> Result<Reference, String> {
    solve_scenario(&request.canonical(), None)
        .map(|(s, _)| Reference::of(&s))
        .map_err(|e| e.to_string())
}

/// One golden-file line for `request`.
///
/// # Errors
///
/// As for [`reference`].
pub fn golden_line(request: &ScenarioRequest) -> Result<String, String> {
    Ok(reference(request)?.to_line(request.fingerprint()))
}

/// Whether an answer is physically meaningful: efficiency in [0, 1] and
/// no negative drop.
pub fn physically_valid(s: &SolveSummary) -> bool {
    (0.0..=1.0).contains(&s.efficiency) && s.max_ir_drop_frac >= 0.0 && s.mean_ir_drop_frac >= 0.0
}

/// Checks answers as they arrive: against the golden file (default seed)
/// and, for an evenly spaced sample of them, against fresh in-process
/// solves (every seed). It holds only that sample, so the harness's memory
/// does not grow with the number of answers a run gets.
pub struct Checker {
    /// Loaded for every seed, so the harness's memory is the same whatever
    /// the seed; consulted only at [`GOLDEN_SEED`].
    gold: HashMap<u64, Reference>,
    use_gold: bool,
    /// Cross-checks a run makes.
    samples: usize,
    /// Every `stride`-th answer is kept; the stride doubles whenever the
    /// sample fills, so the kept answers stay evenly spaced.
    stride: usize,
    kept: Vec<(ScenarioRequest, SolveSummary)>,
    /// Answers seen.
    pub answers: usize,
    /// Answers that are not physically valid.
    pub invalid: usize,
    /// Answers that failed a check; each is reported on stderr.
    pub mismatches: usize,
}

impl Checker {
    /// A checker for `workload` at `seed` that cross-checks `samples`
    /// answers.
    pub fn new(workload: Workload, seed: u64, samples: usize) -> Checker {
        Checker {
            gold: golden(workload),
            use_gold: seed == GOLDEN_SEED,
            samples: samples.max(1),
            stride: 1,
            kept: Vec::new(),
            answers: 0,
            invalid: 0,
            mismatches: 0,
        }
    }

    fn report(&mut self, what: &str, fp: u64, e: String) {
        eprintln!(
            "vbench: {what} mismatch for {}: {e}",
            ScenarioRequest::format_fingerprint(fp)
        );
        self.mismatches += 1;
    }

    /// Checks one answer.
    pub fn add(&mut self, request: &ScenarioRequest, summary: &SolveSummary) {
        if !physically_valid(summary) {
            self.invalid += 1;
        }
        if self.use_gold {
            let fp = request.fingerprint();
            if let Some(Err(e)) = self.gold.get(&fp).map(|g| g.check(summary)) {
                self.report("golden", fp, e);
            }
        }
        if self.answers.is_multiple_of(self.stride) {
            self.kept.push((request.clone(), summary.clone()));
            if self.kept.len() == 2 * self.samples {
                let mut k = 0;
                self.kept.retain(|_| {
                    k += 1;
                    k % 2 == 1
                });
                self.stride *= 2;
            }
        }
        self.answers += 1;
    }

    /// Cross-checks the sample against cold in-process solves.
    pub fn finish(&mut self) {
        let kept = std::mem::take(&mut self.kept);
        let picks = self.samples.min(kept.len());
        for (req, summary) in (0..picks).map(|i| &kept[i * kept.len() / picks]) {
            let fp = req.fingerprint();
            match reference(req) {
                Ok(r) => {
                    if let Err(e) = r.check(summary) {
                        self.report("cross-check", fp, e);
                    }
                }
                Err(e) => self.report("cross-check", fp, e),
            }
        }
    }
}
