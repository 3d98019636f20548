//! Integration tests for the matrix-free stencil operator and the
//! mixed-precision ladder rung.
//!
//! Three contracts are exercised property-style:
//!
//! 1. **Bit-identity** — applying a [`StencilOperator`] extracted from a
//!    stacked-grid CSR reproduces `CsrMatrix::mul_vec_into` bit-for-bit,
//!    serially and at 1/2/4 pool contexts, with and without irregular
//!    converter taps.
//! 2. **f32/f64 agreement** — the mixed-precision rung converges to the
//!    same CG tolerance as the all-f64 ladder on random regular and
//!    converter-coupled grids, and the solutions agree.
//! 3. **Allocation stability** — AMG re-setup on a warm
//!    [`SolveWorkspace`] never regrows its scratch buffers.

use std::sync::Arc;

use proptest::prelude::*;
use vstack_sparse::pool::ThreadPool;
use vstack_sparse::{
    solve_robust, AmgHierarchy, AmgHierarchyF32, AmgOptions, CsrMatrix, LadderPlan, RobustOptions,
    RobustSolved, SolveError, SolveMethod, SolveWorkspace, StencilDescriptor, StencilOperator,
    TripletMatrix,
};

/// The AMG plan: the multigrid rungs first, as large PDN systems run it.
fn amg_first() -> RobustOptions {
    RobustOptions {
        plan: LadderPlan::Amg,
        ..RobustOptions::default()
    }
}

/// The AMG plan with an f32 slot, so the mixed rung leads — the hot
/// path of large `NetworkBuilder` solves.
fn solve_mixed(a: &CsrMatrix, op: &StencilOperator, b: &[f64]) -> Result<RobustSolved, SolveError> {
    let mut ws = SolveWorkspace::new();
    let (mut amg, mut amg_f32) = (None, None::<AmgHierarchyF32>);
    solve_robust(
        a,
        Some(op),
        b,
        None,
        &amg_first(),
        &mut ws,
        &mut amg,
        Some(&mut amg_f32),
    )
}

/// The AMG plan without an f32 slot: pure-f64 multigrid first.
fn solve_f64(a: &CsrMatrix, b: &[f64]) -> Result<RobustSolved, SolveError> {
    let mut ws = SolveWorkspace::new();
    solve_robust(a, None, b, None, &amg_first(), &mut ws, &mut None, None)
}

/// Assembles the conductance matrix of a stacked regular grid: uniform
/// horizontal coupling `horiz[p]` per plane, per-node vertical coupling
/// `vert[i]` across flagged interfaces, per-node diagonal anchor
/// `anchor[i]` (keeps the system SPD), and arbitrary converter `taps`
/// that land as irregular rank-1 stamps.
fn stacked_grid(
    desc: &StencilDescriptor,
    horiz: &[f64],
    vert: &[f64],
    anchor: &[f64],
    taps: &[(usize, usize, f64)],
) -> CsrMatrix {
    let (nx, ny) = (desc.nx, desc.ny);
    let ps = nx * ny;
    let n = desc.unknowns();
    let mut t = TripletMatrix::new(n, n);
    for (p, &g) in horiz.iter().enumerate().take(desc.planes) {
        for iy in 0..ny {
            for ix in 0..nx {
                let i = p * ps + iy * nx + ix;
                if ix + 1 < nx {
                    t.stamp_conductance(Some(i), Some(i + 1), g);
                }
                if iy + 1 < ny {
                    t.stamp_conductance(Some(i), Some(i + nx), g);
                }
            }
        }
    }
    for (p, &coupled) in desc.interfaces.iter().enumerate() {
        if coupled {
            for (i, &gv) in vert.iter().enumerate().take((p + 1) * ps).skip(p * ps) {
                t.stamp_conductance(Some(i), Some(i + ps), gv);
            }
        }
    }
    for (i, &g) in anchor.iter().enumerate() {
        t.push(i, i, g);
    }
    for &(p, q, g) in taps {
        if p != q {
            t.stamp_conductance(Some(p), Some(q), g);
        }
    }
    t.to_csr()
}

/// Small LCG for size-dependent random data: the vendored proptest stub
/// has no `prop_flat_map`, so dimensions come from range strategies and
/// everything sized by them is derived deterministically from a `u64`
/// seed strategy through this generator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform `f64` in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// Uniform `usize` in `[0, bound)`; `bound` must be positive.
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Strategy: a random stacked-grid descriptor plus its assembled CSR,
/// with up to `max_taps` converter-style cross-grid stamps.
fn stacked_case(max_taps: usize) -> impl Strategy<Value = (StencilDescriptor, CsrMatrix)> {
    (2..6usize, 2..6usize, 1..5usize, 0..u64::MAX).prop_map(move |(nx, ny, planes, seed)| {
        let mut rng = Lcg(seed);
        let n = nx * ny * planes;
        let desc = StencilDescriptor {
            nx,
            ny,
            planes,
            interfaces: (1..planes).map(|_| rng.next() & 1 == 1).collect(),
        };
        let horiz: Vec<f64> = (0..planes).map(|_| rng.range(0.5, 20.0)).collect();
        let vert: Vec<f64> = (0..n).map(|_| rng.range(0.5, 20.0)).collect();
        let anchor: Vec<f64> = (0..n).map(|_| rng.range(0.01, 2.0)).collect();
        let taps: Vec<(usize, usize, f64)> = (0..rng.below(max_taps + 1))
            .map(|_| (rng.below(n), rng.below(n), rng.range(0.5, 5.0)))
            .collect();
        let a = stacked_grid(&desc, &horiz, &vert, &anchor, &taps);
        (desc, a)
    })
}

/// Deterministic pseudo-random vector in `[-3, 3)` from an LCG seed.
fn lcg_vec(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Lcg(seed);
    (0..n).map(|_| rng.range(-3.0, 3.0)).collect()
}

/// Shared pools, as in `properties.rs` — spawning per case would dominate.
fn pools() -> &'static [Arc<ThreadPool>] {
    static POOLS: std::sync::OnceLock<Vec<Arc<ThreadPool>>> = std::sync::OnceLock::new();
    POOLS.get_or_init(|| {
        [1, 2, 4]
            .iter()
            .map(|&c| Arc::new(ThreadPool::new(c)))
            .collect()
    })
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

proptest! {
    /// The stencil apply is bit-identical to the CSR apply — serial and at
    /// 1/2/4 pool contexts — on random stacked grids with converter taps.
    #[test]
    fn stencil_apply_bit_identical_to_csr(
        case in stacked_case(3),
        seed in 0..u64::MAX,
    ) {
        let (desc, a) = case;
        let n = desc.unknowns();
        let op = StencilOperator::from_csr(&a, desc).expect("extraction");
        let x = lcg_vec(seed, n);
        let mut want = vec![0.0; n];
        a.mul_vec_into(&x, &mut want);
        let mut got = vec![f64::NAN; n];
        op.mul_vec_into(&x, &mut got);
        for (w, g) in want.iter().zip(&got) {
            prop_assert_eq!(w.to_bits(), g.to_bits());
        }
        for pool in pools() {
            let mut par = vec![f64::NAN; n];
            op.par_mul_vec_into(pool, &x, &mut par);
            for (w, p) in want.iter().zip(&par) {
                prop_assert_eq!(w.to_bits(), p.to_bits());
            }
        }
    }

    /// Without converter taps every row fits the stencil: the side-CSR
    /// stays empty no matter the grid shape, couplings, or interfaces.
    #[test]
    fn untapped_grids_extract_fully_regular(case in stacked_case(0)) {
        let (desc, a) = case;
        let op = StencilOperator::from_csr(&a, desc).expect("extraction");
        prop_assert_eq!(op.irregular_rows(), 0);
    }

    /// The mixed-precision rung (stencil operator + f32 V-cycle) converges
    /// to the same CG tolerance as the all-f64 ladder and the solutions
    /// agree, on random regular and converter-coupled grids.
    #[test]
    fn mixed_precision_agrees_with_f64(
        case in stacked_case(2),
        seed in 0..u64::MAX,
    ) {
        let (desc, a) = case;
        let n = desc.unknowns();
        let x_true = lcg_vec(seed, n);
        let b = a.mul_vec(&x_true);
        let bnorm = norm2(&b).max(1.0);

        let op = StencilOperator::from_csr(&a, desc).expect("extraction");
        let mixed = solve_mixed(&a, &op, &b).expect("mixed ladder must converge");
        let plain = solve_f64(&a, &b).expect("f64 ladder must converge");

        prop_assert!(a.residual_norm(&mixed.x, &b) <= 1e-6 * bnorm);
        prop_assert!(a.residual_norm(&plain.x, &b) <= 1e-6 * bnorm);
        let xscale = plain.x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (u, v) in mixed.x.iter().zip(&plain.x) {
            prop_assert!(
                (u - v).abs() <= 1e-4 * xscale,
                "mixed {} vs f64 {}", u, v
            );
        }
    }
}

/// Fixed three-plane stacked grid with two converter taps — the
/// deterministic fixture for the rung-acceptance and fallback tests.
fn fixture() -> (StencilDescriptor, CsrMatrix) {
    fixture_scaled(1.0)
}

/// Same fixture with every conductance scaled by `s`. Scaling the whole
/// matrix leaves its conditioning — and the f64 path — untouched while
/// letting tests push values past f32 range.
fn fixture_scaled(s: f64) -> (StencilDescriptor, CsrMatrix) {
    let desc = StencilDescriptor {
        nx: 12,
        ny: 12,
        planes: 3,
        interfaces: vec![true, false],
    };
    let n = desc.unknowns();
    let vert: Vec<f64> = (0..n).map(|i| s * (2.0 + (i % 7) as f64 * 0.25)).collect();
    let anchor: Vec<f64> = (0..n).map(|i| s * (0.5 + (i % 5) as f64 * 0.1)).collect();
    let taps = [(5, 300, 1.5 * s), (40, 350, 2.0 * s)];
    let a = stacked_grid(&desc, &[4.0 * s, 5.0 * s, 6.0 * s], &vert, &anchor, &taps);
    (desc, a)
}

/// The hot path end-to-end: with a stencil operator and an f32 slot the
/// AMG plan accepts the mixed rung outright, reports the
/// `stencil`/`mixed` provenance, and needs at most 50% more CG iterations
/// than the pure-f64 AMG rung on the same system.
#[test]
fn mixed_rung_accepted_with_stencil_operator() {
    let (desc, a) = fixture();
    let n = desc.unknowns();
    let b = a.mul_vec(&lcg_vec(1, n));
    let op = StencilOperator::from_csr(&a, desc).expect("extraction");
    assert!(
        op.irregular_rows() > 0,
        "taps must demote rows to the side-CSR"
    );

    let mixed = solve_mixed(&a, &op, &b).expect("mixed rung must converge");
    assert_eq!(mixed.report.method, SolveMethod::CgAmgMixed);
    assert_eq!(mixed.report.operator, "stencil");
    assert_eq!(mixed.report.precision, "mixed");
    assert!(
        mixed.report.fallbacks.is_empty(),
        "trail: {}",
        mixed.report.trail()
    );

    let plain = solve_f64(&a, &b).expect("f64 rung must converge");
    assert_eq!(plain.report.method, SolveMethod::CgAmg);
    assert_eq!(plain.report.operator, "csr");
    assert_eq!(plain.report.precision, "f64");
    assert!(
        2 * mixed.report.iterations <= 3 * plain.report.iterations + 2,
        "mixed took {} iterations vs {} for f64 — more than +50%",
        mixed.report.iterations,
        plain.report.iterations
    );
}

/// Values beyond f32 range make the f32 V-cycle return a zero correction;
/// the outer CG breaks down deterministically and the ladder falls back
/// to the pure-f64 CSR rung, recording the abandoned mixed rung.
#[test]
fn f32_overflow_falls_back_to_pure_f64() {
    let (desc, a) = fixture_scaled(1e200);
    let n = desc.unknowns();
    let b = lcg_vec(2, n);
    let op = StencilOperator::from_csr(&a, desc).expect("extraction");

    let sol = solve_mixed(&a, &op, &b).expect("f64 rung must rescue the solve");
    assert_eq!(sol.report.fallbacks[0].from, SolveMethod::CgAmgMixed);
    assert_eq!(sol.report.method, SolveMethod::CgAmg);
    assert_eq!(sol.report.operator, "csr");
    assert_eq!(sol.report.precision, "f64");
    let bnorm = norm2(&b).max(1.0);
    assert!(a.residual_norm(&sol.x, &b) <= 1e-6 * bnorm);
}

/// After a value restamp on the same pattern, `refresh_values_from`
/// re-extracts in place and the apply stays bit-identical to the new CSR.
#[test]
fn refresh_values_tracks_restamped_matrix() {
    let (desc, a1) = fixture();
    let n = desc.unknowns();
    let mut op = StencilOperator::from_csr(&a1, desc.clone()).expect("extraction");

    // Same geometry and tap pattern, different conductances.
    let vert: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    let anchor: Vec<f64> = (0..n).map(|i| 0.25 + (i % 4) as f64 * 0.2).collect();
    let taps = [(5, 300, 0.75), (40, 350, 3.0)];
    let a2 = stacked_grid(&desc, &[7.0, 2.5, 3.25], &vert, &anchor, &taps);
    op.refresh_values_from(&a2).expect("refresh");

    let x = lcg_vec(3, n);
    let mut want = vec![0.0; n];
    a2.mul_vec_into(&x, &mut want);
    let mut got = vec![f64::NAN; n];
    op.mul_vec_into(&x, &mut got);
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w.to_bits(), g.to_bits());
    }
}

/// Rebuilding the AMG hierarchy on a warm workspace regrows nothing, and
/// the rebuilt hierarchy is bit-identical to the first.
#[test]
fn amg_rebuild_is_allocation_free_on_warm_workspace() {
    let desc = StencilDescriptor::single_plane(24);
    let n = desc.unknowns();
    let vert = vec![0.0; n];
    let anchor: Vec<f64> = (0..n).map(|i| 0.3 + (i % 6) as f64 * 0.1).collect();
    let a = stacked_grid(&desc, &[3.0], &vert, &anchor, &[]);

    let mut ws = SolveWorkspace::new();
    let h1 = AmgHierarchy::build_ws(&a, &AmgOptions::default(), &mut ws).expect("build");
    let after_first = ws.setup_regrowths();
    assert!(after_first > 0, "a cold workspace must grow at least once");
    let h2 = AmgHierarchy::build_ws(&a, &AmgOptions::default(), &mut ws).expect("rebuild");
    assert_eq!(
        ws.setup_regrowths(),
        after_first,
        "AMG re-setup on a warm workspace must not reallocate"
    );

    let r = lcg_vec(4, n);
    let (mut z1, mut z2) = (vec![0.0; n], vec![0.0; n]);
    h1.apply(&r, &mut z1);
    h2.apply(&r, &mut z2);
    for (u, v) in z1.iter().zip(&z2) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
}
