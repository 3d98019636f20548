//! Resilient solve pipeline: a deterministic escalation ladder over the
//! iterative solvers, with a [`SolveReport`] recording every fallback.
//!
//! Degraded power grids (failed C4 pads, open TSVs — see `vstack-pdn`'s
//! fault injection) produce systems that are much harder than the pristine
//! SPD grid Laplacians the default solver configuration is tuned for:
//! multigrid coarsening can degenerate, CG can break down or stagnate on a
//! near-singular operator. [`solve_robust`] climbs a fixed ladder instead
//! of giving up. Which rung it starts on is the [`LadderPlan`], derived
//! from the system size by [`LadderPlan::for_size`]:
//!
//! 1. **CG + f32 AMG** ([`LadderPlan::Amg`] only, and only when the caller
//!    holds an f32 hierarchy slot) — the mixed-precision hot path: an f64
//!    outer CG (optionally driven through a matrix-free
//!    [`StencilOperator`]) preconditioned by a single-precision V-cycle
//!    ([`crate::amg::AmgHierarchyF32`]); any breakdown or stagnation
//!    drops to the pure-f64 rungs below with a [`FallbackStep`] on record;
//! 2. **CG + AMG** ([`LadderPlan::Amg`] only) — an aggregation-based
//!    multigrid V-cycle whose iteration counts stay nearly flat as grids
//!    grow; degenerate coarsening ([`SolveError::CoarseningFailed`]) or
//!    any other numerical failure drops cleanly to the next rung;
//! 3. **CG + Jacobi** — where [`LadderPlan::Jacobi`] (small systems)
//!    starts; PDN grid Laplacians are diagonally dominant enough that
//!    diagonal scaling converges reliably;
//! 4. **BiCGSTAB + Jacobi** — if CG breaks down or stagnates; BiCGSTAB
//!    tolerates indefiniteness that kills CG (uses no preconditioner when
//!    the diagonal itself is singular);
//! 5. **CG + Jacobi on `A + λI`** — a last-resort Tikhonov (diagonal)
//!    shift with `λ = 1e-8 · max|diag(A)|`; the reported residual is
//!    measured against the *original* system, never the shifted one.
//!
//! Every abandoned rung is recorded in [`SolveReport::fallbacks`] with the
//! error that caused the transition, so experiments can log exactly which
//! solves needed rescue. The ladder is fully deterministic: the same
//! system and options always take the same path.

use std::time::Instant;

use crate::amg::{AmgHierarchy, AmgHierarchyF32, AmgOptions};
use crate::cancel::CancelToken;
use crate::solver::{
    bicgstab_with_guess_ws, cg_with_amg_f32_ws, cg_with_amg_op_ws, cg_with_guess_ws,
    validate_finite, BiCgStabOptions, CgOptions, Preconditioner, SolveWorkspace, Solved,
};
use crate::stencil::{LinearOperator, StencilOperator};
use crate::{CsrMatrix, SolveError, TripletMatrix};

/// Solver method identifiers for [`SolveReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// Mixed-precision conjugate gradient: f64 outer iteration
    /// preconditioned by a single-precision AMG V-cycle
    /// ([`crate::amg::AmgHierarchyF32`]).
    CgAmgMixed,
    /// Conjugate gradient preconditioned by an aggregation-based algebraic
    /// multigrid V-cycle (see [`crate::amg`]).
    CgAmg,
    /// Conjugate gradient with Jacobi (diagonal) preconditioning.
    CgJacobi,
    /// BiCGSTAB with Jacobi preconditioning (or none if the diagonal is
    /// singular).
    BiCgStab,
    /// Conjugate gradient on the Tikhonov-shifted system `A + λI`.
    CgShifted,
    /// Sherman–Morrison–Woodbury rank-k update against a cached baseline
    /// factorization (see [`crate::smw`]) — no Krylov iteration at all.
    SmwSketch,
}

impl core::fmt::Display for SolveMethod {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            SolveMethod::CgAmgMixed => "cg+amgf32",
            SolveMethod::CgAmg => "cg+amg",
            SolveMethod::CgJacobi => "cg+jacobi",
            SolveMethod::BiCgStab => "bicgstab",
            SolveMethod::CgShifted => "cg+shift",
            SolveMethod::SmwSketch => "smw-sketch",
        };
        f.write_str(name)
    }
}

/// One abandoned rung of the escalation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackStep {
    /// The method that was attempted and abandoned.
    pub from: SolveMethod,
    /// The error that forced the escalation.
    pub error: SolveError,
}

/// Diagnostics for a [`solve_robust`] call: which method finally produced
/// the answer, every fallback taken on the way, and the final quality.
///
/// Equality ([`PartialEq`]) compares only the deterministic outcome and
/// ignores the wall-clock fields ([`SolveReport::setup_us`],
/// [`SolveReport::solve_us`]), so study results embedding reports stay
/// comparable with `assert_eq!` across threads and re-runs.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Method that produced the accepted solution.
    pub method: SolveMethod,
    /// Every abandoned attempt, in order.
    pub fallbacks: Vec<FallbackStep>,
    /// Iterations performed by the successful method.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖` against the **original**
    /// system (even when the answer came from the shifted rung).
    pub relative_residual: f64,
    /// Diagonal (Tikhonov) shift applied, `0.0` unless the last rung ran.
    pub diagonal_shift: f64,
    /// Fine-grid operator the accepted rung iterated with: `"stencil"`
    /// when the matrix-free [`StencilOperator`] drove the SpMVs, `"csr"`
    /// otherwise (including every pure-f64 fallback rung).
    pub operator: &'static str,
    /// Arithmetic of the accepted rung's preconditioner: `"mixed"` for
    /// the f32 V-cycle refinement rung, `"f64"` everywhere else. The
    /// solution always meets the f64 tolerance either way.
    pub precision: &'static str,
    /// Wall-clock microseconds the accepted rung spent on preconditioner
    /// setup (AMG hierarchy build and f32 mirror); 0 when a cached
    /// hierarchy was reused. Excluded from equality.
    pub setup_us: u64,
    /// Wall-clock microseconds the accepted rung spent iterating.
    /// Excluded from equality.
    pub solve_us: u64,
}

impl PartialEq for SolveReport {
    fn eq(&self, other: &Self) -> bool {
        self.method == other.method
            && self.fallbacks == other.fallbacks
            && self.iterations == other.iterations
            && self.relative_residual == other.relative_residual
            && self.diagonal_shift == other.diagonal_shift
            && self.operator == other.operator
            && self.precision == other.precision
    }
}

impl SolveReport {
    /// True when the first-choice method did not produce the answer.
    pub fn was_rescued(&self) -> bool {
        !self.fallbacks.is_empty()
    }

    /// Compact single-line rendering for experiment logs, e.g.
    /// `cg+amg->cg+jacobi->bicgstab (14 iters, res 3.2e-11)`.
    pub fn trail(&self) -> String {
        let mut s = String::new();
        for step in &self.fallbacks {
            s.push_str(&step.from.to_string());
            s.push_str("->");
        }
        s.push_str(&self.method.to_string());
        s.push_str(&format!(
            " ({} iters, res {:.1e})",
            self.iterations, self.relative_residual
        ));
        s
    }
}

/// Result of a successful [`solve_robust`]: the solution plus its report.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustSolved {
    /// The solution vector.
    pub x: Vec<f64>,
    /// How it was obtained.
    pub report: SolveReport,
}

/// Systems with at least this many unknowns lead the ladder with AMG
/// (see [`LadderPlan::for_size`]). Below it, single-level Jacobi wins:
/// multigrid setup costs a few SpMV-equivalents that small systems never
/// amortize. At paper fidelity (26×26 nodes per rail per layer) the
/// threshold engages from 4 stacked layers up — exactly the systems whose
/// Jacobi iteration counts blow up with size.
const AMG_MIN_UNKNOWNS: usize = 4096;

/// Stagnation window handed to the CG rungs (see
/// [`CgOptions::stagnation_window`]): a stalled rung hands control to the
/// next one instead of burning its whole iteration budget.
const STAGNATION_WINDOW: usize = 250;

/// Relative Tikhonov shift of the last rung: `λ = SHIFT_SCALE · max|diag(A)|`.
const SHIFT_SCALE: f64 = 1e-8;

/// Acceptance slack of the shifted rung: its solution is accepted if the
/// residual against the original system is within
/// `SHIFT_ACCEPTANCE × tolerance`.
const SHIFT_ACCEPTANCE: f64 = 100.0;

/// Which rung a [`solve_robust`] call starts on (see the
/// [module docs](self) for the full ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderPlan {
    /// Start at CG + Jacobi: systems too small to amortize AMG setup.
    Jacobi,
    /// Start with the multigrid rungs — the mixed-precision one first
    /// when the caller holds an f32 hierarchy slot — then fall back to
    /// the single-level rungs.
    Amg,
}

impl LadderPlan {
    /// The plan for a system of `n` unknowns: [`LadderPlan::Amg`] from
    /// 4096 unknowns up, [`LadderPlan::Jacobi`] below.
    pub fn for_size(n: usize) -> Self {
        if n >= AMG_MIN_UNKNOWNS {
            LadderPlan::Amg
        } else {
            LadderPlan::Jacobi
        }
    }
}

/// Options controlling [`solve_robust`].
#[derive(Debug, Clone, PartialEq)]
pub struct RobustOptions {
    /// Relative residual tolerance `‖r‖/‖b‖` at which a rung succeeds.
    pub tolerance: f64,
    /// Iteration budget per rung.
    pub max_iterations: usize,
    /// The rung the ladder starts on; callers derive it from the system
    /// size with [`LadderPlan::for_size`].
    pub plan: LadderPlan,
    /// Cooperative cancellation handle, polled between ladder rungs. The
    /// default ([`CancelToken::never`]) can never fire. A fired token
    /// aborts the ladder with [`SolveError::Cancelled`] before the next
    /// rung starts; a rung already running completes normally. Tokens
    /// compare equal, so options equality is unaffected.
    pub cancel: CancelToken,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions {
            tolerance: 1e-10,
            max_iterations: 20_000,
            plan: LadderPlan::Jacobi,
            cancel: CancelToken::never(),
        }
    }
}

fn cg_options(o: &RobustOptions, pre: Preconditioner) -> CgOptions {
    CgOptions {
        tolerance: o.tolerance,
        max_iterations: o.max_iterations,
        preconditioner: pre,
        stagnation_window: STAGNATION_WINDOW,
    }
}

/// Is this error worth escalating past, or a structural caller bug that
/// every rung would reproduce identically?
fn is_structural(e: &SolveError) -> bool {
    matches!(
        e,
        SolveError::DimensionMismatch { .. }
            | SolveError::NotSquare { .. }
            | SolveError::NonFinite { .. }
            | SolveError::Cancelled
    )
}

/// Polls the cooperative cancellation token at a rung boundary.
fn check_cancelled(cancel: &CancelToken) -> Result<(), SolveError> {
    if cancel.is_cancelled() {
        vstack_obs::metrics::global().ladder_cancelled.inc();
        Err(SolveError::Cancelled)
    } else {
        Ok(())
    }
}

/// Records an abandoned rung: bumps the escalation counter exactly once
/// per recorded fallback step, keeping the two in lock-step for tests.
fn note_fallback(fallbacks: &mut Vec<FallbackStep>, from: SolveMethod, error: SolveError) {
    vstack_obs::metrics::global().ladder_escalations.inc();
    fallbacks.push(FallbackStep { from, error });
}

fn shifted_matrix(a: &CsrMatrix, lambda: f64) -> CsrMatrix {
    let mut t = TripletMatrix::new(a.rows(), a.cols());
    for (r, c, v) in a.iter() {
        t.push(r, c, v);
    }
    for i in 0..a.rows() {
        t.push(i, i, lambda);
    }
    t.to_csr()
}

/// Builds the f64 hierarchy into the cache slot if absent, returning the
/// build time in microseconds (0 on a cache hit). A failed build is
/// remembered in `prior_err` so a later rung sharing the slot reports the
/// same error without paying for a second doomed build.
fn ensure_hierarchy(
    a: &CsrMatrix,
    ws: &mut SolveWorkspace,
    amg_cache: &mut Option<AmgHierarchy>,
    prior_err: &mut Option<SolveError>,
) -> Result<u64, SolveError> {
    if amg_cache.is_some() {
        return Ok(0);
    }
    if let Some(e) = prior_err.clone() {
        return Err(e);
    }
    let timer = Instant::now();
    match AmgHierarchy::build_ws(a, &AmgOptions::default(), ws) {
        Ok(h) => {
            let us = timer.elapsed().as_micros() as u64;
            *amg_cache = Some(h);
            Ok(us)
        }
        Err(e) => {
            *prior_err = Some(e.clone());
            Err(e)
        }
    }
}

/// Solves `A x = b` through the deterministic escalation ladder described
/// in the [module docs](self), reporting every fallback taken.
///
/// The caller owns every piece of cross-solve state:
///
/// * `ws` — Krylov and preconditioner-setup scratch, borrowed by every
///   rung instead of allocating (results are bit-identical to a fresh
///   workspace).
/// * `amg_cache` — the f64 AMG hierarchy slot of the [`LadderPlan::Amg`]
///   rungs. When empty, the first multigrid rung builds the hierarchy and
///   *leaves it in the slot*; later calls reuse it and report
///   [`SolveReport::setup_us`] of 0. The cached hierarchy is *frozen*:
///   re-solves after value-only re-stamps keep using it (CG converges
///   against the current matrix under any fixed SPD preconditioner; only
///   iteration counts drift as values do), so callers clear the slot
///   whenever the sparsity pattern changes.
/// * `amg_f32_cache` — the slot for the f32 mirror of the cached
///   hierarchy. Passing `Some` is what enables the mixed-precision rung
///   under [`LadderPlan::Amg`]; the mirror is converted on first use and
///   must be cleared together with `amg_cache`.
///   [`SolveReport::precision`] records whether the accepted rung used it.
/// * `stencil` — a matrix-free [`StencilOperator`] extracted from `a`,
///   consulted only by the mixed rung, whose outer CG SpMVs it drives
///   instead of the CSR (bit-identical by the stencil's extraction
///   contract, just faster). Every pure-f64 rung deliberately stays on
///   the CSR so a stencil-side surprise can never take down the whole
///   ladder. The accepted rung's choice is recorded in
///   [`SolveReport::operator`].
///
/// # Errors
///
/// * [`SolveError::NonFinite`] / shape errors immediately — these are
///   caller bugs no fallback can fix.
/// * Otherwise, the error of the **last** rung attempted, with all earlier
///   failures necessarily having occurred first (the ladder never skips
///   downward).
///
/// # Example
///
/// ```
/// use vstack_sparse::robust::{solve_robust, LadderPlan, RobustOptions};
/// use vstack_sparse::{CsrMatrix, SolveWorkspace};
///
/// # fn main() -> Result<(), vstack_sparse::SolveError> {
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (1, 1, 9.0)]);
/// let options = RobustOptions {
///     plan: LadderPlan::for_size(a.rows()),
///     ..RobustOptions::default()
/// };
/// let mut ws = SolveWorkspace::new();
/// let sol = solve_robust(&a, None, &[8.0, 27.0], None, &options, &mut ws, &mut None, None)?;
/// assert!((sol.x[0] - 2.0).abs() < 1e-9);
/// assert!(!sol.report.was_rescued());
/// # Ok(())
/// # }
/// ```
#[allow(clippy::too_many_arguments)]
pub fn solve_robust(
    a: &CsrMatrix,
    stencil: Option<&StencilOperator>,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &RobustOptions,
    ws: &mut SolveWorkspace,
    amg_cache: &mut Option<AmgHierarchy>,
    amg_f32_cache: Option<&mut Option<AmgHierarchyF32>>,
) -> Result<RobustSolved, SolveError> {
    if a.cols() != a.rows() {
        return Err(SolveError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if b.len() != a.rows() {
        return Err(SolveError::DimensionMismatch {
            expected: a.rows(),
            found: b.len(),
        });
    }
    validate_finite(a, b, guess)?;

    let _span = vstack_obs::span!("solve_robust");
    vstack_obs::metrics::global().ladder_solves.inc();
    check_cancelled(&options.cancel)?;
    let mut fallbacks = Vec::new();

    let accept = |method: SolveMethod,
                  operator: &'static str,
                  precision: &'static str,
                  solved: Solved,
                  fallbacks: &mut Vec<FallbackStep>| {
        if !fallbacks.is_empty() {
            vstack_obs::metrics::global().ladder_rescued.inc();
        }
        RobustSolved {
            x: solved.x,
            report: SolveReport {
                method,
                fallbacks: core::mem::take(fallbacks),
                iterations: solved.iterations,
                relative_residual: solved.relative_residual,
                diagonal_shift: 0.0,
                operator,
                precision,
                setup_us: solved.setup_us,
                solve_us: solved.solve_us,
            },
        }
    };

    if options.plan == LadderPlan::Amg {
        // A failed f64 hierarchy build is shared between the mixed and
        // the pure-f64 AMG rungs; each still records its own fallback step.
        let mut amg_build_err: Option<SolveError> = None;

        // Rung 1: mixed-precision CG + f32 AMG, run only when the caller
        // holds an f32 slot. The f64 hierarchy is built (or reused) from
        // the shared cache slot, mirrored into f32 once per pattern, and
        // the outer CG runs through the stencil operator when one was
        // provided.
        if let Some(amg_f32_cache) = amg_f32_cache {
            match ensure_hierarchy(a, ws, amg_cache, &mut amg_build_err) {
                Err(e) if is_structural(&e) => return Err(e),
                Err(e) => note_fallback(&mut fallbacks, SolveMethod::CgAmgMixed, e),
                Ok(mut build_us) => {
                    if amg_f32_cache.is_none() {
                        let timer = Instant::now();
                        let h = amg_cache.as_ref().expect("hierarchy just ensured");
                        *amg_f32_cache = Some(AmgHierarchyF32::from_hierarchy(h));
                        build_us += timer.elapsed().as_micros() as u64;
                    }
                    let h32 = amg_f32_cache.as_ref().expect("f32 mirror just ensured");
                    let op: &dyn LinearOperator = match stencil {
                        Some(s) => s,
                        None => a,
                    };
                    match cg_with_amg_f32_ws(
                        op,
                        b,
                        guess,
                        &cg_options(options, Preconditioner::Amg),
                        h32,
                        ws,
                    ) {
                        Ok(mut solved) => {
                            solved.setup_us += build_us;
                            let operator = if stencil.is_some() { "stencil" } else { "csr" };
                            return Ok(accept(
                                SolveMethod::CgAmgMixed,
                                operator,
                                "mixed",
                                solved,
                                &mut fallbacks,
                            ));
                        }
                        Err(e) if is_structural(&e) => return Err(e),
                        Err(e) => note_fallback(&mut fallbacks, SolveMethod::CgAmgMixed, e),
                    }
                }
            }
        }

        // Rung 2: CG + AMG. Build into the caller's cache slot when
        // empty; any numerical failure — degenerate coarsening included —
        // drops to the single-level rungs below. Deliberately pure f64
        // and pure CSR: this is the fallback target when the mixed rung
        // above stagnates or breaks down.
        check_cancelled(&options.cancel)?;
        match ensure_hierarchy(a, ws, amg_cache, &mut amg_build_err) {
            Err(e) if is_structural(&e) => return Err(e),
            Err(e) => note_fallback(&mut fallbacks, SolveMethod::CgAmg, e),
            Ok(build_us) => {
                let h = amg_cache.as_ref().expect("hierarchy just ensured");
                match cg_with_amg_op_ws(
                    a,
                    b,
                    guess,
                    &cg_options(options, Preconditioner::Amg),
                    h,
                    ws,
                ) {
                    Ok(mut solved) => {
                        solved.setup_us += build_us;
                        return Ok(accept(
                            SolveMethod::CgAmg,
                            "csr",
                            "f64",
                            solved,
                            &mut fallbacks,
                        ));
                    }
                    Err(e) if is_structural(&e) => return Err(e),
                    Err(e) => note_fallback(&mut fallbacks, SolveMethod::CgAmg, e),
                }
            }
        }
    }

    // Rung 3: CG + Jacobi.
    check_cancelled(&options.cancel)?;
    match cg_with_guess_ws(
        a,
        b,
        guess,
        &cg_options(options, Preconditioner::Jacobi),
        ws,
    ) {
        Ok(solved) => {
            return Ok(accept(
                SolveMethod::CgJacobi,
                "csr",
                "f64",
                solved,
                &mut fallbacks,
            ))
        }
        Err(e) if is_structural(&e) => return Err(e),
        Err(e) => note_fallback(&mut fallbacks, SolveMethod::CgJacobi, e),
    }

    // Rung 4: BiCGSTAB. Use Jacobi unless the diagonal itself is singular
    // (the very error rung 3 may have just hit), in which case run
    // unpreconditioned.
    check_cancelled(&options.cancel)?;
    let bicg_pre = if fallbacks
        .iter()
        .any(|f| matches!(f.error, SolveError::SingularDiagonal { .. }))
    {
        Preconditioner::None
    } else {
        Preconditioner::Jacobi
    };
    let bicg_opts = BiCgStabOptions {
        tolerance: options.tolerance,
        max_iterations: options.max_iterations,
        preconditioner: bicg_pre,
    };
    match bicgstab_with_guess_ws(a, b, guess, &bicg_opts, ws) {
        Ok(solved) => {
            return Ok(accept(
                SolveMethod::BiCgStab,
                "csr",
                "f64",
                solved,
                &mut fallbacks,
            ))
        }
        Err(e) if is_structural(&e) => return Err(e),
        Err(e) => note_fallback(&mut fallbacks, SolveMethod::BiCgStab, e),
    }

    // Rung 5: Tikhonov-shifted CG. The shift regularizes a near-singular
    // operator; the answer is only accepted if it actually satisfies the
    // *original* system to within the acceptance slack.
    check_cancelled(&options.cancel)?;
    let max_diag = a
        .diagonal()
        .into_iter()
        .fold(0.0f64, |acc, d| acc.max(d.abs()));
    let lambda = SHIFT_SCALE * max_diag;
    if lambda > 0.0 {
        let shifted = shifted_matrix(a, lambda);
        match cg_with_guess_ws(
            &shifted,
            b,
            guess,
            &cg_options(options, Preconditioner::Jacobi),
            ws,
        ) {
            Ok(solved) => {
                let b_norm = crate::vecops::norm2(b);
                let true_res = a.residual_norm(&solved.x, b) / b_norm.max(f64::MIN_POSITIVE);
                if true_res <= SHIFT_ACCEPTANCE * options.tolerance {
                    vstack_obs::metrics::global().ladder_rescued.inc();
                    return Ok(RobustSolved {
                        x: solved.x,
                        report: SolveReport {
                            method: SolveMethod::CgShifted,
                            fallbacks,
                            iterations: solved.iterations,
                            relative_residual: true_res,
                            diagonal_shift: lambda,
                            operator: "csr",
                            precision: "f64",
                            setup_us: solved.setup_us,
                            solve_us: solved.solve_us,
                        },
                    });
                }
                return Err(SolveError::NotConverged {
                    iterations: solved.iterations,
                    residual: true_res,
                });
            }
            Err(e) if is_structural(&e) => return Err(e),
            Err(e) => return Err(e),
        }
    }

    // Ladder exhausted; surface the most recent failure.
    Err(fallbacks
        .pop()
        .map(|f| f.error)
        .unwrap_or(SolveError::Breakdown { iterations: 0 }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csr()
    }

    /// A ladder solve with fresh scratch, no cached hierarchy and no f32
    /// slot.
    fn solve(
        a: &CsrMatrix,
        b: &[f64],
        guess: Option<&[f64]>,
        options: &RobustOptions,
    ) -> Result<RobustSolved, SolveError> {
        solve_robust(
            a,
            None,
            b,
            guess,
            options,
            &mut SolveWorkspace::new(),
            &mut None,
            None,
        )
    }

    fn amg_plan() -> RobustOptions {
        RobustOptions {
            plan: LadderPlan::Amg,
            ..RobustOptions::default()
        }
    }

    /// Symmetric indefinite with a zero diagonal entry: neither AMG nor
    /// Jacobi can be formed, but the system is well-posed.
    fn zero_diagonal() -> CsrMatrix {
        CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
    }

    #[test]
    fn plan_switches_to_amg_at_4096_unknowns() {
        assert_eq!(LadderPlan::for_size(0), LadderPlan::Jacobi);
        assert_eq!(LadderPlan::for_size(4095), LadderPlan::Jacobi);
        assert_eq!(LadderPlan::for_size(4096), LadderPlan::Amg);
        assert_eq!(LadderPlan::for_size(1 << 20), LadderPlan::Amg);
        assert_eq!(RobustOptions::default().plan, LadderPlan::for_size(0));
    }

    #[test]
    fn healthy_system_takes_first_rung() {
        let a = laplacian_1d(50);
        let b = vec![1.0; 50];
        let sol = solve(&a, &b, None, &RobustOptions::default()).expect("solves");
        assert_eq!(sol.report.method, SolveMethod::CgJacobi);
        assert!(!sol.report.was_rescued());
        assert!(a.residual_norm(&sol.x, &b) < 1e-8);
    }

    #[test]
    fn warm_start_is_honored() {
        let a = laplacian_1d(200);
        let b = vec![1.0; 200];
        let opts = RobustOptions::default();
        let cold = solve(&a, &b, None, &opts).expect("cold");
        let warm = solve(&a, &b, Some(&cold.x), &opts).expect("warm");
        assert!(warm.report.iterations <= 1);
    }

    #[test]
    fn non_finite_inputs_fail_fast() {
        let a = laplacian_1d(4);
        let err = solve(
            &a,
            &[1.0, f64::NAN, 0.0, 0.0],
            None,
            &RobustOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SolveError::NonFinite {
                what: "rhs",
                index: 1
            }
        ));
        let err = solve(
            &a,
            &[1.0; 4],
            Some(&[0.0, 0.0, f64::INFINITY, 0.0]),
            &RobustOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::NonFinite { what: "guess", .. }));
    }

    #[test]
    fn zero_diagonal_escalates_to_unpreconditioned_bicgstab() {
        let a = zero_diagonal();
        let b = [2.0, 5.0];
        let sol = solve(&a, &b, None, &RobustOptions::default()).expect("rescued");
        assert!(sol.report.was_rescued());
        assert_eq!(sol.report.method, SolveMethod::BiCgStab);
        assert!(matches!(
            sol.report.fallbacks[..],
            [FallbackStep {
                from: SolveMethod::CgJacobi,
                error: SolveError::SingularDiagonal { .. },
            }]
        ));
        // x = (b1 - b0, b0) for this matrix.
        assert!((sol.x[0] - 3.0).abs() < 1e-8, "x = {:?}", sol.x);
        assert!((sol.x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn singular_system_reports_failure_not_panic() {
        // Exactly singular: two identical rows, inconsistent rhs.
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let err = solve(&a, &[1.0, 2.0], None, &RobustOptions::default()).unwrap_err();
        assert!(!is_structural(&err), "numerical failure expected: {err}");
    }

    #[test]
    fn amg_rung_takes_priority_and_caches_the_hierarchy() {
        let a = laplacian_1d(600);
        let b = vec![1.0; 600];
        let opts = amg_plan();
        let mut cache = None;
        let mut ws = SolveWorkspace::new();
        let cold = solve_robust(&a, None, &b, None, &opts, &mut ws, &mut cache, None)
            .expect("amg rung solves");
        assert_eq!(cold.report.method, SolveMethod::CgAmg);
        assert!(!cold.report.was_rescued(), "trail: {}", cold.report.trail());
        assert!(a.residual_norm(&cold.x, &b) < 1e-7);
        assert!(cache.is_some(), "hierarchy must be left in the cache slot");
        let warm = solve_robust(&a, None, &b, None, &opts, &mut ws, &mut cache, None)
            .expect("cached re-solve");
        assert_eq!(warm.report.setup_us, 0, "cached hierarchy skips setup");
        assert_eq!(cold, warm, "cached re-solve must be bit-identical");
    }

    #[test]
    fn mixed_rung_runs_only_with_an_f32_slot() {
        let a = laplacian_1d(600);
        let b = vec![1.0; 600];
        let opts = amg_plan();
        let mut ws = SolveWorkspace::new();
        let (mut amg, mut amg_f32) = (None, None);
        let mixed = solve_robust(
            &a,
            None,
            &b,
            None,
            &opts,
            &mut ws,
            &mut amg,
            Some(&mut amg_f32),
        )
        .expect("mixed rung solves");
        assert_eq!(mixed.report.method, SolveMethod::CgAmgMixed);
        assert_eq!(mixed.report.precision, "mixed");
        assert!(amg.is_some() && amg_f32.is_some(), "both slots filled");
        // Without the slot the plan starts at the f64 rung, reusing the
        // hierarchy the mixed solve left behind.
        let plain = solve_robust(&a, None, &b, None, &opts, &mut ws, &mut amg, None)
            .expect("f64 rung solves");
        assert_eq!(plain.report.method, SolveMethod::CgAmg);
        assert_eq!(plain.report.setup_us, 0);
        // The Jacobi plan never touches either slot.
        let (mut amg, mut amg_f32) = (None, None);
        let jacobi = solve_robust(
            &laplacian_1d(50),
            None,
            &b[..50],
            None,
            &RobustOptions::default(),
            &mut ws,
            &mut amg,
            Some(&mut amg_f32),
        )
        .expect("jacobi rung solves");
        assert_eq!(jacobi.report.method, SolveMethod::CgJacobi);
        assert!(amg.is_none() && amg_f32.is_none());
    }

    #[test]
    fn degenerate_coarsening_falls_through_to_jacobi() {
        // Diagonal matrix above the AMG direct-solve size: every node
        // aggregates into a singleton, coarsening stalls, and the ladder
        // must carry on to CG + Jacobi with the failure on record.
        let n = 300;
        let triplets: Vec<_> = (0..n).map(|i| (i, i, 2.0)).collect();
        let a = CsrMatrix::from_triplets(n, n, &triplets);
        let b = vec![1.0; n];
        let mut cache = None;
        let sol = solve_robust(
            &a,
            None,
            &b,
            None,
            &amg_plan(),
            &mut SolveWorkspace::new(),
            &mut cache,
            None,
        )
        .expect("rescued by jacobi");
        assert_eq!(sol.report.method, SolveMethod::CgJacobi);
        assert!(
            cache.is_none(),
            "no hierarchy to cache after a failed build"
        );
        assert!(
            matches!(
                sol.report.fallbacks[..],
                [FallbackStep {
                    from: SolveMethod::CgAmg,
                    error: SolveError::CoarseningFailed { .. },
                }]
            ),
            "trail: {}",
            sol.report.trail()
        );
    }

    #[test]
    fn trail_renders_methods_in_order() {
        // The 2×2 indefinite system defeats the AMG plan's coarse
        // Cholesky, then Jacobi; BiCGSTAB finally solves it.
        let a = zero_diagonal();
        let sol = solve(&a, &[2.0, 5.0], None, &amg_plan()).expect("rescued");
        let trail = sol.report.trail();
        assert!(
            trail.starts_with("cg+amg->cg+jacobi->bicgstab ("),
            "trail: {trail}"
        );
    }
}
