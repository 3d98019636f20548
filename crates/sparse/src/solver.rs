//! Iterative solvers for sparse linear systems.
//!
//! The resistive-grid and thermal systems in `vstack` are symmetric positive
//! definite (SPD) — including the voltage-stacked PDN, whose switched-
//! capacitor converter stamps are rank-1 PSD (see `vstack-pdn`) — so the
//! preconditioned [conjugate gradient](cg) method is the default. The
//! [BiCGSTAB](bicgstab) method is provided for general non-symmetric systems
//! produced by full MNA matrices with unreduced controlled sources.
//!
//! Both solvers support Jacobi (diagonal) preconditioning, which is exact for
//! diagonally dominant grid Laplacians' scaling and costs one divide per
//! unknown per iteration. CG additionally takes an AMG V-cycle: built per
//! solve ([`Preconditioner::Amg`]), or prebuilt and cached by the caller —
//! in f64 ([`cg_with_amg_op_ws`]) or as its f32 mirror
//! ([`cg_with_amg_f32_ws`]) — with the outer iteration driven through any
//! [`LinearOperator`]. The `_ws` entry points borrow their work vectors
//! from a caller-owned [`SolveWorkspace`]; the escalation ladder in
//! [`crate::robust`] is built from them.

use std::time::Instant;

use crate::amg::{AmgHierarchy, AmgHierarchyF32, AmgOptions};
use crate::stencil::LinearOperator;
use crate::vecops::{axpy, dot, norm2, xpby};
use crate::{CsrMatrix, SolveError};

/// Preconditioner selection for the iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preconditioner {
    /// No preconditioning.
    None,
    /// Diagonal (Jacobi) scaling: `M⁻¹ = diag(A)⁻¹`.
    #[default]
    Jacobi,
    /// Aggregation-based algebraic multigrid V-cycle (see
    /// [`crate::amg::AmgHierarchy`]), built with [`AmgOptions::default`].
    /// Iteration counts are nearly independent of problem size, at the
    /// price of a setup pass; callers that re-solve one sparsity pattern
    /// many times should build the hierarchy once and use
    /// [`cg_with_amg_op_ws`] instead.
    Amg,
}

/// Options controlling a [`cg`] solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOptions {
    /// Relative residual tolerance `‖r‖/‖b‖` at which to stop.
    pub tolerance: f64,
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Preconditioner to apply.
    pub preconditioner: Preconditioner,
    /// If non-zero, declare [`SolveError::Stagnated`] when the residual
    /// fails to improve for this many consecutive iterations. `0` disables
    /// the check (the default, preserving plain-CG behavior); the
    /// [`crate::robust`] escalation ladder enables it so a stalled solve
    /// hands control to the next rung instead of burning the full budget.
    pub stagnation_window: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tolerance: 1e-10,
            max_iterations: 20_000,
            preconditioner: Preconditioner::Jacobi,
            stagnation_window: 0,
        }
    }
}

/// Options controlling a [`bicgstab`] solve.
#[derive(Debug, Clone, PartialEq)]
pub struct BiCgStabOptions {
    /// Relative residual tolerance `‖r‖/‖b‖` at which to stop.
    pub tolerance: f64,
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Preconditioner to apply.
    pub preconditioner: Preconditioner,
}

impl Default for BiCgStabOptions {
    fn default() -> Self {
        BiCgStabOptions {
            tolerance: 1e-10,
            max_iterations: 20_000,
            preconditioner: Preconditioner::Jacobi,
        }
    }
}

fn inverse_diagonal(a: &CsrMatrix) -> Result<Vec<f64>, SolveError> {
    a.diagonal()
        .into_iter()
        .enumerate()
        .map(|(row, d)| {
            if d.abs() > f64::MIN_POSITIVE {
                Ok(1.0 / d)
            } else {
                Err(SolveError::SingularDiagonal { row })
            }
        })
        .collect()
}

/// Rejects NaN/Inf in the operator, right-hand side and warm-start guess
/// so malformed systems fail fast with [`SolveError::NonFinite`] instead
/// of iterating to a confusing breakdown. Only operators that can
/// enumerate their entries (see [`LinearOperator::first_non_finite_row`])
/// are screened themselves; a non-finite value in any other operator
/// surfaces as a [`SolveError::Breakdown`], which the escalation ladder
/// treats as numerical and falls back from.
pub(crate) fn validate_finite(
    a: &dyn LinearOperator,
    b: &[f64],
    guess: Option<&[f64]>,
) -> Result<(), SolveError> {
    if let Some(index) = a.first_non_finite_row() {
        return Err(SolveError::NonFinite {
            what: "matrix",
            index,
        });
    }
    if let Some(index) = b.iter().position(|v| !v.is_finite()) {
        return Err(SolveError::NonFinite { what: "rhs", index });
    }
    if let Some(g) = guess {
        if let Some(index) = g.iter().position(|v| !v.is_finite()) {
            return Err(SolveError::NonFinite {
                what: "guess",
                index,
            });
        }
    }
    Ok(())
}

/// Reusable scratch vectors for [`cg_with_guess_ws`],
/// [`bicgstab_with_guess_ws`] and [`crate::solve_robust`].
///
/// A CG solve needs four work vectors and a BiCGSTAB solve eight; sweep
/// loops and the wearout feedback loop used to re-allocate them for every
/// solve. A workspace owns them all and is resized (never shrunk) to each
/// system's dimension on entry, so steady-state re-solves perform **no
/// allocation** beyond the returned solution vector. Every vector is
/// re-zeroed on entry, so reuse across solves — including solves of
/// different sizes or sparsity patterns — is bit-identical to the
/// allocate-fresh path.
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    r_hat: Vec<f64>,
    v: Vec<f64>,
    phat: Vec<f64>,
    s: Vec<f64>,
    shat: Vec<f64>,
    t: Vec<f64>,
    /// Preconditioner-setup scratch (AMG strength/aggregation buffers),
    /// so cached-pattern re-setup is allocation-free once grown.
    pub(crate) setup: SetupScratch,
}

impl SolveWorkspace {
    /// Creates an empty workspace; vectors grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total `f64` capacity currently held (diagnostic; used by tests to
    /// verify that steady-state reuse stops allocating).
    pub fn capacity(&self) -> usize {
        self.r.capacity()
            + self.z.capacity()
            + self.p.capacity()
            + self.ap.capacity()
            + self.r_hat.capacity()
            + self.v.capacity()
            + self.phat.capacity()
            + self.s.capacity()
            + self.shat.capacity()
            + self.t.capacity()
    }

    /// How many times a preconditioner-setup scratch buffer had to grow its
    /// allocation. Steady once the workspace has seen its largest system:
    /// tests assert this stays flat across repeated AMG setups on a cached
    /// pattern.
    pub fn setup_regrowths(&self) -> u64 {
        self.setup.growths
    }
}

/// Scratch buffers for preconditioner *setup* (as opposed to the per-
/// iteration vectors above): AMG diagonal/aggregation/prolongator-triplet
/// temporaries. Every buffer is `clear()`-ed and re-filled on use, so
/// reuse across setups — including setups of different sizes — is
/// bit-identical to the allocate-fresh path.
#[derive(Debug, Clone, Default)]
pub(crate) struct SetupScratch {
    /// Level diagonal (AMG strength graph / smoother setup).
    pub(crate) diag: Vec<f64>,
    /// Aggregate ids per node (AMG).
    pub(crate) agg: Vec<usize>,
    /// Pass-1 aggregate snapshot (AMG).
    pub(crate) pass: Vec<usize>,
    /// Prolongator assembly triplets (AMG).
    pub(crate) trip: Vec<(usize, usize, f64)>,
    /// Number of buffer regrowths since creation (see
    /// [`SolveWorkspace::setup_regrowths`]).
    pub(crate) growths: u64,
}

impl SetupScratch {
    /// Resets `v` to `n` copies of `fill`, reusing its allocation when
    /// large enough and counting a regrowth when not.
    pub(crate) fn prep<T: Clone>(growths: &mut u64, v: &mut Vec<T>, n: usize, fill: T) {
        if v.capacity() < n {
            *growths += 1;
        }
        v.clear();
        v.resize(n, fill);
    }
}

/// Resets `v` to `n` zeros, reusing its allocation when large enough —
/// the workspace equivalent of `vec![0.0; n]`.
fn prep(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

/// Publishes a completed CG solve to the global metrics registry.
fn record_cg(solved: Solved, amg_preconditioned: bool) -> Solved {
    let m = vstack_obs::metrics::global();
    let it = solved.iterations as u64;
    m.cg_solves.inc();
    m.solver_iterations.add(it);
    m.solver_iterations_hist.observe(it);
    m.solver_setup_us.add(solved.setup_us);
    m.solver_solve_us.add(solved.solve_us);
    m.setup_us_hist.observe(solved.setup_us);
    m.solve_us_hist.observe(solved.solve_us);
    if amg_preconditioned {
        m.amg_vcycles_per_solve.observe(it);
    }
    solved
}

/// Publishes a completed BiCGSTAB solve to the global metrics registry.
fn record_bicgstab(solved: Solved) -> Solved {
    let m = vstack_obs::metrics::global();
    let it = solved.iterations as u64;
    m.bicgstab_solves.inc();
    m.solver_iterations.add(it);
    m.solver_iterations_hist.observe(it);
    m.solver_setup_us.add(solved.setup_us);
    m.solver_solve_us.add(solved.solve_us);
    m.setup_us_hist.observe(solved.setup_us);
    m.solve_us_hist.observe(solved.solve_us);
    solved
}

/// Materialized preconditioner state. `AmgRef`/`AmgF32Ref` borrow a
/// hierarchy a caller built (and caches) elsewhere; the other variants are
/// owned.
enum Precond<'a> {
    None,
    Jacobi(Vec<f64>),
    Amg(Box<AmgHierarchy>),
    AmgRef(&'a AmgHierarchy),
    /// Mixed-precision V-cycle: the f32 hierarchy applied with
    /// scale-to-unit iterative-refinement framing (see
    /// [`AmgHierarchyF32::apply`]). The outer CG stays entirely in f64.
    AmgF32Ref(&'a AmgHierarchyF32),
}

impl Precond<'_> {
    fn build(
        kind: Preconditioner,
        a: &CsrMatrix,
        scratch: &mut SetupScratch,
    ) -> Result<Self, SolveError> {
        Ok(match kind {
            Preconditioner::None => Precond::None,
            Preconditioner::Jacobi => Precond::Jacobi(inverse_diagonal(a)?),
            Preconditioner::Amg => Precond::Amg(Box::new(AmgHierarchy::build_scratch(
                a,
                &AmgOptions::default(),
                scratch,
            )?)),
        })
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            Precond::Jacobi(inv_d) => {
                for ((zi, ri), di) in z.iter_mut().zip(r).zip(inv_d) {
                    *zi = ri * di;
                }
            }
            Precond::Amg(h) => h.apply(r, z),
            Precond::AmgRef(h) => h.apply(r, z),
            Precond::AmgF32Ref(h) => h.apply(r, z),
            Precond::None => z.copy_from_slice(r),
        }
    }
}

/// Solves the SPD system `A x = b` by preconditioned conjugate gradient.
///
/// Returns the solution vector. Use [`CsrMatrix::residual_norm`] to verify
/// independently.
///
/// # Errors
///
/// * [`SolveError::NotSquare`] / [`SolveError::DimensionMismatch`] on shape
///   problems.
/// * [`SolveError::NotConverged`] if the relative residual fails to reach
///   `options.tolerance` within `options.max_iterations`.
/// * [`SolveError::Breakdown`] if an inner product vanishes (typically the
///   matrix was not SPD).
///
/// # Example
///
/// ```
/// use vstack_sparse::{CsrMatrix, solver::{cg, CgOptions}};
///
/// # fn main() -> Result<(), vstack_sparse::SolveError> {
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (1, 1, 9.0)]);
/// let x = cg(&a, &[8.0, 27.0], &CgOptions::default())?;
/// assert!((x[0] - 2.0).abs() < 1e-9 && (x[1] - 3.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn cg(a: &CsrMatrix, b: &[f64], options: &CgOptions) -> Result<Vec<f64>, SolveError> {
    let solved = cg_with_guess(a, b, None, options)?;
    Ok(solved.x)
}

/// Output of [`cg_with_guess`]: solution plus convergence diagnostics.
///
/// Equality ([`PartialEq`]) compares only the *numerical* outcome — `x`,
/// `iterations` and `relative_residual` — and deliberately ignores the
/// wall-clock observability fields, so the crate's bit-identity guarantees
/// ("reused workspace equals fresh", "threaded equals serial") remain
/// testable with `assert_eq!`.
#[derive(Debug, Clone)]
pub struct Solved {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖ / ‖b‖`.
    pub relative_residual: f64,
    /// Wall-clock microseconds spent building the preconditioner (0 when
    /// the caller supplied a prebuilt one). Excluded from equality.
    pub setup_us: u64,
    /// Wall-clock microseconds spent iterating after setup. Excluded from
    /// equality.
    pub solve_us: u64,
}

impl PartialEq for Solved {
    fn eq(&self, other: &Self) -> bool {
        self.x == other.x
            && self.iterations == other.iterations
            && self.relative_residual == other.relative_residual
    }
}

impl Solved {
    /// The trivial solution of a zero right-hand side.
    fn zeros(n: usize) -> Self {
        Solved {
            x: vec![0.0; n],
            iterations: 0,
            relative_residual: 0.0,
            setup_us: 0,
            solve_us: 0,
        }
    }
}

/// Like [`cg`], but accepts a warm-start guess and reports diagnostics.
///
/// Warm starting matters in `vstack`: parameter sweeps (e.g. the Fig 6
/// imbalance sweep) solve a sequence of nearby systems, and reusing the
/// previous solution typically halves iteration counts.
///
/// # Errors
///
/// Same as [`cg`].
pub fn cg_with_guess(
    a: &CsrMatrix,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &CgOptions,
) -> Result<Solved, SolveError> {
    cg_with_guess_ws(a, b, guess, options, &mut SolveWorkspace::new())
}

/// Like [`cg_with_guess`], but borrows its work vectors from `ws` instead
/// of allocating them — the entry point for sweep loops that solve many
/// systems in sequence. Results are bit-identical to [`cg_with_guess`].
///
/// # Errors
///
/// Same as [`cg`].
pub fn cg_with_guess_ws(
    a: &CsrMatrix,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &CgOptions,
    ws: &mut SolveWorkspace,
) -> Result<Solved, SolveError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolveError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if b.len() != n {
        return Err(SolveError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    validate_finite(a, b, guess)?;
    if norm2(b) == 0.0 {
        return Ok(Solved::zeros(n));
    }

    let setup_timer = Instant::now();
    let pre = {
        let _span = vstack_obs::span!("cg_setup");
        Precond::build(options.preconditioner, a, &mut ws.setup)?
    };
    let setup_us = setup_timer.elapsed().as_micros() as u64;
    cg_core(a, b, guess, options, &pre, setup_us, ws)
}

/// Shape screening shared by the operator entry points.
fn validate_operator(op: &dyn LinearOperator, b: &[f64]) -> Result<usize, SolveError> {
    let n = op.rows();
    if op.cols() != n {
        return Err(SolveError::NotSquare {
            rows: op.rows(),
            cols: op.cols(),
        });
    }
    if b.len() != n {
        return Err(SolveError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    Ok(n)
}

/// Like [`cg_with_guess_ws`], but preconditions with a *prebuilt* AMG
/// hierarchy instead of building one from `options.preconditioner` (which
/// is ignored), and drives the outer iteration through any
/// [`LinearOperator`]: a [`CsrMatrix`], or a [`crate::StencilOperator`]
/// whose apply is bit-identical to the CSR it was extracted from (a pure
/// speedup on regular grids). This is the warm path for callers that solve
/// one sparsity pattern many times — `vstack-pdn` caches the hierarchy in
/// its `SolveScratch` so fault and sweep re-solves skip setup entirely;
/// the reported [`Solved::setup_us`] is 0.
///
/// The hierarchy stays mathematically sound as a preconditioner even when
/// the matrix *values* have drifted since it was built (CG converges
/// against the current operator for any fixed SPD preconditioner); only
/// its dimension must still match.
///
/// # Errors
///
/// Same as [`cg`] (a [`CsrMatrix`] operator is screened for non-finite
/// entries like [`cg_with_guess_ws`] does), plus
/// [`SolveError::DimensionMismatch`] when `amg.dim() != op.rows()`.
pub fn cg_with_amg_op_ws(
    op: &dyn LinearOperator,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &CgOptions,
    amg: &AmgHierarchy,
    ws: &mut SolveWorkspace,
) -> Result<Solved, SolveError> {
    let n = validate_operator(op, b)?;
    if amg.dim() != n {
        return Err(SolveError::DimensionMismatch {
            expected: n,
            found: amg.dim(),
        });
    }
    validate_finite(op, b, guess)?;
    if norm2(b) == 0.0 {
        return Ok(Solved::zeros(n));
    }
    cg_core(op, b, guess, options, &Precond::AmgRef(amg), 0, ws)
}

/// Mixed-precision solve: f64 outer CG over `op`, preconditioned by a
/// prebuilt **f32** AMG hierarchy applied as one V-cycle of iterative
/// refinement per iteration (see [`AmgHierarchyF32`]). The solution meets
/// the same f64 tolerance as the all-f64 path — precision of the
/// preconditioner only affects the iteration count — and the f32 V-cycle
/// is fully serial, so results are deterministic across thread counts.
///
/// # Errors
///
/// Same as [`cg_with_amg_op_ws`]. An overflowing f32 conversion (matrix
/// values beyond ~3.4e38) produces non-finite V-cycle output and surfaces
/// as [`SolveError::Breakdown`], which the escalation ladder treats as a
/// cue to fall back to the pure-f64 path.
pub fn cg_with_amg_f32_ws(
    op: &dyn LinearOperator,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &CgOptions,
    amg: &AmgHierarchyF32,
    ws: &mut SolveWorkspace,
) -> Result<Solved, SolveError> {
    let n = validate_operator(op, b)?;
    if amg.dim() != n {
        return Err(SolveError::DimensionMismatch {
            expected: n,
            found: amg.dim(),
        });
    }
    validate_finite(op, b, guess)?;
    if norm2(b) == 0.0 {
        return Ok(Solved::zeros(n));
    }
    cg_core(op, b, guess, options, &Precond::AmgF32Ref(amg), 0, ws)
}

/// The shared CG iteration, parameterized over a materialized
/// preconditioner and a generic fine-grid operator. Inputs are already
/// validated and `b` is non-zero.
fn cg_core(
    a: &dyn LinearOperator,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &CgOptions,
    pre: &Precond<'_>,
    setup_us: u64,
    ws: &mut SolveWorkspace,
) -> Result<Solved, SolveError> {
    let _span = vstack_obs::span!("cg_solve");
    let amg_preconditioned = matches!(
        pre,
        Precond::Amg(_) | Precond::AmgRef(_) | Precond::AmgF32Ref(_)
    );
    let n = a.rows();
    let b_norm = norm2(b);
    let solve_timer = Instant::now();

    let mut x = match guess {
        Some(g) => {
            if g.len() != n {
                return Err(SolveError::DimensionMismatch {
                    expected: n,
                    found: g.len(),
                });
            }
            g.to_vec()
        }
        None => vec![0.0; n],
    };

    let SolveWorkspace { r, z, p, ap, .. } = ws;
    prep(r, n);
    prep(z, n);
    prep(p, n);
    prep(ap, n);

    // r = b − A x
    a.mul_vec_into(&x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }

    pre.apply(r, z);
    p.copy_from_slice(z);
    let mut rz = dot(r, z);

    // Stagnation tracking: `best_res` only updates on a meaningful
    // (relative) improvement, so round-off chatter does not reset the
    // window.
    let mut best_res = f64::INFINITY;
    let mut stalled = 0usize;

    for it in 0..options.max_iterations {
        let res = norm2(r) / b_norm;
        if res <= options.tolerance {
            return Ok(record_cg(
                Solved {
                    x,
                    iterations: it,
                    relative_residual: res,
                    setup_us,
                    solve_us: solve_timer.elapsed().as_micros() as u64,
                },
                amg_preconditioned,
            ));
        }
        if options.stagnation_window > 0 {
            if res < best_res * (1.0 - 1e-6) {
                best_res = res;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= options.stagnation_window {
                    return Err(SolveError::Stagnated {
                        iterations: it,
                        residual: res,
                    });
                }
            }
        }
        a.mul_vec_into(p, ap);
        let pap = dot(p, ap);
        if pap <= 0.0 || !pap.is_finite() {
            return Err(SolveError::Breakdown { iterations: it });
        }
        let alpha = rz / pap;
        axpy(alpha, p, &mut x);
        axpy(-alpha, ap, r);
        pre.apply(r, z);
        let rz_next = dot(r, z);
        let beta = rz_next / rz;
        rz = rz_next;
        xpby(z, beta, p);
    }

    let res = norm2(r) / b_norm;
    if res <= options.tolerance {
        Ok(record_cg(
            Solved {
                x,
                iterations: options.max_iterations,
                relative_residual: res,
                setup_us,
                solve_us: solve_timer.elapsed().as_micros() as u64,
            },
            amg_preconditioned,
        ))
    } else {
        Err(SolveError::NotConverged {
            iterations: options.max_iterations,
            residual: res,
        })
    }
}

/// Solves the (possibly non-symmetric) system `A x = b` by BiCGSTAB.
///
/// Used for full MNA matrices that retain voltage-source and controlled-
/// source rows. For SPD systems prefer [`cg`], which is cheaper per
/// iteration and guaranteed to converge.
///
/// # Errors
///
/// * [`SolveError::NotSquare`] / [`SolveError::DimensionMismatch`] on shape
///   problems.
/// * [`SolveError::NotConverged`] if the tolerance is not met in
///   `options.max_iterations`.
/// * [`SolveError::Breakdown`] on vanishing inner products.
pub fn bicgstab(
    a: &CsrMatrix,
    b: &[f64],
    options: &BiCgStabOptions,
) -> Result<Vec<f64>, SolveError> {
    let solved = bicgstab_with_guess(a, b, None, options)?;
    Ok(solved.x)
}

/// Like [`bicgstab`], but accepts a warm-start guess and reports
/// diagnostics — the same contract as [`cg_with_guess`].
///
/// Warm starting is what makes the wearout loop in `vstack` affordable:
/// each pad-kill step perturbs the previous system only locally, so the
/// previous voltage field is an excellent initial iterate.
///
/// # Errors
///
/// Same as [`bicgstab`].
pub fn bicgstab_with_guess(
    a: &CsrMatrix,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &BiCgStabOptions,
) -> Result<Solved, SolveError> {
    bicgstab_with_guess_ws(a, b, guess, options, &mut SolveWorkspace::new())
}

/// Like [`bicgstab_with_guess`], but borrows its eight work vectors from
/// `ws` instead of allocating them. Results are bit-identical to
/// [`bicgstab_with_guess`].
///
/// # Errors
///
/// Same as [`bicgstab`].
pub fn bicgstab_with_guess_ws(
    a: &CsrMatrix,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &BiCgStabOptions,
    ws: &mut SolveWorkspace,
) -> Result<Solved, SolveError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolveError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if b.len() != n {
        return Err(SolveError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    validate_finite(a, b, guess)?;
    if norm2(b) == 0.0 {
        return Ok(Solved::zeros(n));
    }

    let setup_timer = Instant::now();
    let pre = Precond::build(options.preconditioner, a, &mut ws.setup)?;
    let setup_us = setup_timer.elapsed().as_micros() as u64;
    bicgstab_core(a, b, guess, options, &pre, setup_us, ws)
}

/// The shared BiCGSTAB iteration, parameterized over a materialized
/// preconditioner and a generic operator. Inputs are already validated and
/// `b` is non-zero.
fn bicgstab_core(
    a: &dyn LinearOperator,
    b: &[f64],
    guess: Option<&[f64]>,
    options: &BiCgStabOptions,
    pre: &Precond<'_>,
    setup_us: u64,
    ws: &mut SolveWorkspace,
) -> Result<Solved, SolveError> {
    let _span = vstack_obs::span!("bicgstab_solve");
    let n = a.rows();
    let b_norm = norm2(b);
    let solve_timer = Instant::now();

    let mut x = match guess {
        Some(g) => {
            if g.len() != n {
                return Err(SolveError::DimensionMismatch {
                    expected: n,
                    found: g.len(),
                });
            }
            g.to_vec()
        }
        None => vec![0.0; n],
    };

    let SolveWorkspace {
        r,
        r_hat,
        v,
        p,
        phat,
        s,
        shat,
        t,
        ..
    } = ws;
    prep(r, n);
    prep(r_hat, n);
    prep(v, n);
    prep(p, n);
    prep(phat, n);
    prep(s, n);
    prep(shat, n);
    prep(t, n);

    // r = b − A x
    a.mul_vec_into(&x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let initial_res = norm2(r) / b_norm;
    if initial_res <= options.tolerance {
        return Ok(record_bicgstab(Solved {
            x,
            iterations: 0,
            relative_residual: initial_res,
            setup_us,
            solve_us: solve_timer.elapsed().as_micros() as u64,
        }));
    }
    r_hat.copy_from_slice(r);
    let mut rho = 1.0;
    let mut alpha = 1.0;
    let mut omega = 1.0;

    for it in 0..options.max_iterations {
        let rho_next = dot(r_hat, r);
        if rho_next.abs() < f64::MIN_POSITIVE {
            return Err(SolveError::Breakdown { iterations: it });
        }
        let beta = (rho_next / rho) * (alpha / omega);
        rho = rho_next;
        // p = r + beta (p − omega v)
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        pre.apply(p, phat);
        a.mul_vec_into(phat, v);
        let denom = dot(r_hat, v);
        if denom.abs() < f64::MIN_POSITIVE {
            return Err(SolveError::Breakdown { iterations: it });
        }
        alpha = rho / denom;
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        let s_res = norm2(s) / b_norm;
        if s_res <= options.tolerance {
            axpy(alpha, phat, &mut x);
            return Ok(record_bicgstab(Solved {
                x,
                iterations: it + 1,
                relative_residual: s_res,
                setup_us,
                solve_us: solve_timer.elapsed().as_micros() as u64,
            }));
        }
        pre.apply(s, shat);
        a.mul_vec_into(shat, t);
        let tt = dot(t, t);
        if tt.abs() < f64::MIN_POSITIVE {
            return Err(SolveError::Breakdown { iterations: it });
        }
        omega = dot(t, s) / tt;
        axpy(alpha, phat, &mut x);
        axpy(omega, shat, &mut x);
        for i in 0..n {
            r[i] = s[i] - omega * t[i];
        }
        let res = norm2(r) / b_norm;
        if res <= options.tolerance {
            return Ok(record_bicgstab(Solved {
                x,
                iterations: it + 1,
                relative_residual: res,
                setup_us,
                solve_us: solve_timer.elapsed().as_micros() as u64,
            }));
        }
        if omega.abs() < f64::MIN_POSITIVE {
            return Err(SolveError::Breakdown { iterations: it });
        }
    }

    Err(SolveError::NotConverged {
        iterations: options.max_iterations,
        residual: norm2(r) / b_norm,
    })
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

    #[test]
    fn cg_solves_laplacian() {
        let n = 100;
        let a = laplacian_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.mul_vec(&x_true);
        let x = cg(&a, &b, &CgOptions::default()).expect("cg should converge");
        let err: f64 = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "max err {err}");
    }

    #[test]
    fn cg_without_preconditioner() {
        let a = laplacian_1d(50);
        let b = vec![1.0; 50];
        let opts = CgOptions {
            preconditioner: Preconditioner::None,
            ..CgOptions::default()
        };
        let x = cg(&a, &b, &opts).expect("cg should converge");
        assert!(a.residual_norm(&x, &b) < 1e-8);
    }

    #[test]
    fn cg_zero_rhs_returns_zero() {
        let a = laplacian_1d(10);
        let x = cg(&a, &[0.0; 10], &CgOptions::default()).expect("trivial solve");
        assert_eq!(x, vec![0.0; 10]);
    }

    #[test]
    fn cg_warm_start_converges_faster() {
        let n = 400;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let opts = CgOptions::default();
        let cold = cg_with_guess(&a, &b, None, &opts).expect("cold solve");
        let warm = cg_with_guess(&a, &b, Some(&cold.x), &opts).expect("warm solve");
        assert!(warm.iterations <= 1, "warm start should converge instantly");
    }

    #[test]
    fn cg_dimension_mismatch_rejected() {
        let a = laplacian_1d(4);
        let err = cg(&a, &[1.0; 3], &CgOptions::default()).unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
    }

    #[test]
    fn cg_rejects_nonsquare() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        let err = cg(&a, &[1.0, 1.0], &CgOptions::default()).unwrap_err();
        assert!(matches!(err, SolveError::NotSquare { .. }));
    }

    #[test]
    fn cg_not_converged_when_budget_too_small() {
        let a = laplacian_1d(200);
        let b = vec![1.0; 200];
        let opts = CgOptions {
            max_iterations: 2,
            ..CgOptions::default()
        };
        let err = cg(&a, &b, &opts).unwrap_err();
        assert!(matches!(err, SolveError::NotConverged { .. }));
    }

    #[test]
    fn bicgstab_solves_nonsymmetric() {
        // Upwind-like convection-diffusion matrix: non-symmetric, diagonally
        // dominant.
        let n = 60;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0);
            if i + 1 < n {
                t.push(i, i + 1, -0.5);
                t.push(i + 1, i, -1.5);
            }
        }
        let a = t.to_csr();
        assert!(!a.is_symmetric(1e-12));
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let b = a.mul_vec(&x_true);
        let x = bicgstab(&a, &b, &BiCgStabOptions::default()).expect("bicgstab converges");
        let err: f64 = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "max err {err}");
    }

    #[test]
    fn bicgstab_matches_cg_on_spd() {
        let a = laplacian_1d(64);
        let b: Vec<f64> = (0..64).map(|i| (i as f64).cos()).collect();
        let x1 = cg(&a, &b, &CgOptions::default()).expect("cg");
        let x2 = bicgstab(&a, &b, &BiCgStabOptions::default()).expect("bicgstab");
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn bicgstab_zero_rhs() {
        let a = laplacian_1d(8);
        let x = bicgstab(&a, &[0.0; 8], &BiCgStabOptions::default()).expect("trivial");
        assert_eq!(x, vec![0.0; 8]);
    }

    #[test]
    fn bicgstab_warm_start_converges_instantly() {
        let a = laplacian_1d(100);
        let b = vec![1.0; 100];
        let opts = BiCgStabOptions::default();
        let cold = bicgstab_with_guess(&a, &b, None, &opts).expect("cold");
        assert!(cold.iterations > 0);
        let warm = bicgstab_with_guess(&a, &b, Some(&cold.x), &opts).expect("warm");
        assert_eq!(warm.iterations, 0, "residual {}", warm.relative_residual);
    }

    #[test]
    fn jacobi_on_zero_diagonal_is_surfaced_not_masked() {
        // Zero diagonal at row 1: previously silently treated as 1.0.
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)]);
        let err = cg(&a, &[1.0, 1.0], &CgOptions::default()).unwrap_err();
        assert!(matches!(err, SolveError::SingularDiagonal { row: 1 }));
    }

    #[test]
    fn non_finite_inputs_rejected_up_front() {
        let a = laplacian_1d(3);
        let err = cg(&a, &[1.0, f64::NAN, 0.0], &CgOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            SolveError::NonFinite {
                what: "rhs",
                index: 1
            }
        ));

        let err = cg_with_guess(
            &a,
            &[1.0; 3],
            Some(&[f64::INFINITY, 0.0, 0.0]),
            &CgOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SolveError::NonFinite {
                what: "guess",
                index: 0
            }
        ));

        let bad = CsrMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN), (1, 1, 1.0)]);
        let err = bicgstab(&bad, &[1.0, 1.0], &BiCgStabOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            SolveError::NonFinite {
                what: "matrix",
                index: 0
            }
        ));
    }

    #[test]
    fn workspace_reuse_is_bit_identical_and_allocation_stable() {
        let mut ws = SolveWorkspace::new();
        // Solve systems of several sizes through one workspace, interleaving
        // CG and BiCGSTAB; every result must match the allocate-fresh path
        // bit for bit, and once the workspace has grown to the largest size
        // its capacity must stop changing.
        for &n in &[10, 50, 30, 50, 7] {
            let a = laplacian_1d(n);
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
            let fresh = cg_with_guess(&a, &b, None, &CgOptions::default()).unwrap();
            let reused = cg_with_guess_ws(&a, &b, None, &CgOptions::default(), &mut ws).unwrap();
            assert_eq!(fresh, reused, "cg n={n}");
            let fresh = bicgstab_with_guess(&a, &b, None, &BiCgStabOptions::default()).unwrap();
            let reused =
                bicgstab_with_guess_ws(&a, &b, None, &BiCgStabOptions::default(), &mut ws).unwrap();
            assert_eq!(fresh, reused, "bicgstab n={n}");
        }
        let cap = ws.capacity();
        for _ in 0..3 {
            let a = laplacian_1d(50);
            let b = vec![1.0; 50];
            cg_with_guess_ws(&a, &b, None, &CgOptions::default(), &mut ws).unwrap();
            bicgstab_with_guess_ws(&a, &b, None, &BiCgStabOptions::default(), &mut ws).unwrap();
        }
        assert_eq!(ws.capacity(), cap, "steady-state reuse must not reallocate");
    }

    #[test]
    fn stagnation_detected_on_singular_neumann_laplacian() {
        // Pure-Neumann 1-D Laplacian: singular (constant null space). With a
        // right-hand side that has a component in the null space, CG's
        // residual plateaus at the projection instead of converging.
        let n = 40;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            if i + 1 < n {
                t.stamp_conductance(Some(i), Some(i + 1), 1.0);
            }
        }
        let a = t.to_csr();
        let b = vec![1.0; n];
        let opts = CgOptions {
            stagnation_window: 50,
            ..CgOptions::default()
        };
        let err = cg(&a, &b, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                SolveError::Stagnated { .. } | SolveError::Breakdown { .. }
            ),
            "got {err:?}"
        );
    }
}
