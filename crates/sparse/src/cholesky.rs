//! Sparse Cholesky factorization for small SPD systems, and the
//! process-wide memo that lets repeated solves of one system share a
//! factor.
//!
//! The factor is an *envelope* (profile) factor: after a reverse
//! Cuthill–McKee ordering `P`, row `i` of `L` (with `P A Pᵀ = L Lᵀ`) is
//! stored densely from its first structural nonzero to the diagonal.
//! Envelope Cholesky creates no fill outside that profile, so the
//! [`CholeskyFactor::analyze`] pass — which depends on the sparsity
//! pattern only — knows the factor's size before any arithmetic happens.
//! The escalation ladder compares that size with `nnz(A)` to decide
//! whether the direct rung is worth running (see [`crate::robust`]).
//!
//! The factor is used as the preconditioner of the ordinary CG loop
//! ([`crate::solver::cg_with_cholesky_ws`]): a cold solve converges in one
//! iteration, and CG keeps iterating, as iterative refinement would, in
//! the rare case that one triangular solve pair misses the tolerance.
//!
//! # The memo
//!
//! Served traffic solves the same small systems over and over — often a
//! bit-identical matrix with a new right-hand side. The memo keeps, per
//! exact sparsity pattern (compared in full, never by hash), the symbolic
//! analysis — or the remembered verdict that its factor is too large —
//! and the latest numeric factor with the values it came from. The ladder
//! reuses that factor only when every value is bit-equal and otherwise
//! refactors in place into the entry's buffers. The analysis is a pure
//! function of the pattern and the factor a pure function of the values,
//! so a solve's result never depends on whether the memo hit.
//!
//! Concurrent solves share an unchanged factor read-only. A refactor
//! writes in place unless another solve still holds the old factor, in
//! which case it writes into a copy, so no solve ever sees its
//! preconditioner change underneath it.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::{CsrMatrix, SolveError};

/// Most memo entries (distinct sparsity patterns) kept; the least recently
/// used entry is dropped beyond it.
const MEMO_CAPACITY: usize = 16;

/// An envelope Cholesky factor `P A Pᵀ = L Lᵀ` under a reverse
/// Cuthill–McKee ordering.
///
/// [`CholeskyFactor::analyze`] fixes the ordering and the envelope from
/// the sparsity pattern; [`CholeskyFactor::factorize`] fills in the
/// numbers and may be called again, in place, for new values on the same
/// pattern.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    /// `perm[new] = old`: the reverse Cuthill–McKee ordering.
    perm: Vec<usize>,
    /// The inverse ordering, `iperm[old] = new`.
    iperm: Vec<usize>,
    /// Column of the first stored entry of each (permuted) row of `L`.
    first: Vec<usize>,
    /// Offsets of each row's entries in `l` (length `n + 1`); a row's
    /// diagonal is its last entry.
    start: Vec<usize>,
    /// The envelope of `L`, row by row; empty until factorized.
    l: Vec<f64>,
    /// The CSR values `l` was factored from, for bit-exact reuse checks.
    source: Vec<f64>,
    /// Outcome of factoring `source`: the failed pivot's original row, if
    /// the factorization broke down.
    failed_pivot: Option<usize>,
}

impl CholeskyFactor {
    /// Symbolic analysis of `a`'s sparsity pattern (its values are not
    /// read): a reverse Cuthill–McKee ordering from a pseudo-peripheral
    /// node of each connected component, and the row envelope of the
    /// permuted matrix. The envelope covers the pattern of `A + Aᵀ`, so a
    /// structurally unsymmetric matrix gets a valid (if useless) analysis
    /// too.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn analyze(a: &CsrMatrix) -> Self {
        assert_eq!(
            a.rows(),
            a.cols(),
            "cholesky analysis needs a square matrix"
        );
        let n = a.rows();
        let (row_ptr, col_idx, _) = a.raw_parts();
        let perm = reverse_cuthill_mckee(n, row_ptr, col_idx);
        let mut iperm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new;
        }
        let mut first: Vec<usize> = (0..n).collect();
        for r in 0..n {
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                let (i, j) = (iperm[r], iperm[c]);
                let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
                first[hi] = first[hi].min(lo);
            }
        }
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        for (i, &f) in first.iter().enumerate() {
            start.push(start[i] + i - f + 1);
        }
        vstack_obs::metrics::global().chol_analyses.inc();
        CholeskyFactor {
            perm,
            iperm,
            first,
            start,
            l: Vec::new(),
            source: Vec::new(),
            failed_pivot: None,
        }
    }

    /// Number of unknowns.
    pub(crate) fn dim(&self) -> usize {
        self.perm.len()
    }

    /// Entries the factor holds (the envelope of `L`, diagonal included).
    pub(crate) fn fill(&self) -> usize {
        self.start[self.dim()]
    }

    /// Numeric factorization of `a`, which must have the sparsity pattern
    /// this factor was analyzed from. Reuses the current factor — and
    /// returns `Ok(false)` — when `a`'s values are bit-identical to the
    /// ones it was computed from; otherwise refactors in place into the
    /// same buffers and returns `Ok(true)`. Only the lower triangle of the
    /// permuted matrix is read, so `a` is treated as symmetric.
    ///
    /// # Errors
    ///
    /// [`SolveError::SingularMatrix`] with the original row of the first
    /// non-positive or non-finite pivot. The failure is remembered, so an
    /// identical matrix fails again without refactoring.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s dimension differs from the analyzed one.
    pub fn factorize(&mut self, a: &CsrMatrix) -> Result<bool, SolveError> {
        if self.is_factor_of(a) {
            self.reuse()
        } else {
            self.refactor(a)
        }
    }

    /// Whether this factor (or its remembered failure) was computed from
    /// exactly `a`'s values, bit for bit.
    fn is_factor_of(&self, a: &CsrMatrix) -> bool {
        let values = a.raw_parts().2;
        self.l.len() == self.fill()
            && self.source.len() == values.len()
            && self
                .source
                .iter()
                .zip(values)
                .all(|(s, v)| s.to_bits() == v.to_bits())
    }

    /// Counts a reuse of the current factor and returns its outcome.
    fn reuse(&self) -> Result<bool, SolveError> {
        vstack_obs::metrics::global().chol_factor_reuses.inc();
        self.outcome().map(|()| false)
    }

    /// Factors `a`'s values in place and returns the outcome.
    fn refactor(&mut self, a: &CsrMatrix) -> Result<bool, SolveError> {
        assert_eq!(
            a.rows(),
            self.dim(),
            "factor analyzed for a different dimension"
        );
        vstack_obs::metrics::global().chol_factorizations.inc();
        let (row_ptr, col_idx, values) = a.raw_parts();
        // `source` is empty while `l` is being rewritten, so a factor left
        // half-done by a panic never matches any values.
        self.source.clear();
        self.failed_pivot = self.factor_values(row_ptr, col_idx, values);
        self.source.extend_from_slice(values);
        self.outcome().map(|()| true)
    }

    /// The factorization outcome of the current `source` values.
    fn outcome(&self) -> Result<(), SolveError> {
        match self.failed_pivot {
            Some(pivot) => Err(SolveError::SingularMatrix { pivot }),
            None => Ok(()),
        }
    }

    /// Scatters the lower triangle of `P A Pᵀ` into the envelope and
    /// factors it in place (row-oriented bordering). Returns the original
    /// row of a failed pivot.
    fn factor_values(
        &mut self,
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f64],
    ) -> Option<usize> {
        let n = self.dim();
        let fill = self.fill();
        self.l.clear();
        self.l.resize(fill, 0.0);
        for (new, &old) in self.perm.iter().enumerate() {
            for k in row_ptr[old]..row_ptr[old + 1] {
                let j = self.iperm[col_idx[k]];
                if j <= new {
                    self.l[self.start[new] + j - self.first[new]] = values[k];
                }
            }
        }
        let (first, start) = (&self.first, &self.start);
        for i in 0..n {
            let fi = first[i];
            let (done, rest) = self.l.split_at_mut(start[i]);
            let row = &mut rest[..start[i + 1] - start[i]];
            for j in fi..i {
                let fj = first[j];
                let k0 = fi.max(fj);
                let row_j = &done[start[j]..start[j + 1]];
                let mut s = row[j - fi];
                for (x, y) in row[k0 - fi..j - fi].iter().zip(&row_j[k0 - fj..j - fj]) {
                    s -= x * y;
                }
                row[j - fi] = s / row_j[j - fj];
            }
            let mut d = row[i - fi];
            for x in &row[..i - fi] {
                d -= x * x;
            }
            if !(d > 0.0 && d.is_finite()) {
                return Some(self.perm[i]);
            }
            row[i - fi] = d.sqrt();
        }
        None
    }

    /// Applies the factored inverse: `z = A⁻¹ r` through `Pᵀ L⁻ᵀ L⁻¹ P`,
    /// both triangular sweeps running in place in `z` through the
    /// ordering. Serial, so the result is the same at any thread count.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the factor was never computed or the
    /// slices have the wrong length.
    pub(crate) fn solve_into(&self, r: &[f64], z: &mut [f64]) {
        let n = self.dim();
        debug_assert!(r.len() == n && z.len() == n && self.l.len() == self.fill());
        let (perm, first, start, l) = (&self.perm, &self.first, &self.start, &self.l);
        // Forward: L y = P r, with y_i kept at z[perm[i]].
        for i in 0..n {
            let row = &l[start[i]..start[i + 1]];
            let (off, diag) = row.split_at(row.len() - 1);
            let mut s = r[perm[i]];
            for (x, &p) in off.iter().zip(&perm[first[i]..i]) {
                s -= x * z[p];
            }
            z[perm[i]] = s / diag[0];
        }
        // Backward: Lᵀ x = y, column by column.
        for i in (0..n).rev() {
            let row = &l[start[i]..start[i + 1]];
            let (off, diag) = row.split_at(row.len() - 1);
            let xi = z[perm[i]] / diag[0];
            z[perm[i]] = xi;
            for (x, &p) in off.iter().zip(&perm[first[i]..i]) {
                z[p] -= x * xi;
            }
        }
    }
}

/// Reverse Cuthill–McKee ordering of the row pattern, returned as
/// `perm[new] = old`. Each connected component, taken in order of its
/// lowest-numbered node, is ordered breadth-first from a pseudo-peripheral
/// node (George–Liu), visiting neighbours by ascending degree with ties
/// broken by index; the whole sequence is then reversed. Rows serve as
/// adjacency lists as they are — no symmetrized copy — so the extra
/// memory is O(n); an unsymmetric pattern still gets a valid ordering.
fn reverse_cuthill_mckee(n: usize, row_ptr: &[usize], col_idx: &[usize]) -> Vec<usize> {
    let degree = |v: usize| row_ptr[v + 1] - row_ptr[v];
    let neighbours = |v: usize| &col_idx[row_ptr[v]..row_ptr[v + 1]];

    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // BFS marks for the pseudo-peripheral search, stamped per search so
    // they never need clearing.
    let mut mark = vec![0usize; n];
    let mut stamp = 0usize;
    let mut queue = Vec::new();
    let mut candidates = Vec::new();
    for seed in 0..n {
        if placed[seed] {
            continue;
        }
        // Pseudo-peripheral node: walk to a minimum-degree node of the
        // last BFS level while the eccentricity keeps growing.
        let mut root = seed;
        let (mut depth, mut last) =
            bfs_levels(root, &neighbours, &mut mark, &mut stamp, &mut queue);
        loop {
            let far = queue[last..]
                .iter()
                .copied()
                .min_by_key(|&v| (degree(v), v))
                .expect("the last level is never empty");
            let (d, l) = bfs_levels(far, &neighbours, &mut mark, &mut stamp, &mut queue);
            if d <= depth {
                break;
            }
            (root, depth, last) = (far, d, l);
        }
        // Cuthill–McKee breadth-first numbering from the root.
        let head = order.len();
        order.push(root);
        placed[root] = true;
        let mut next = head;
        while next < order.len() {
            let v = order[next];
            next += 1;
            candidates.clear();
            candidates.extend(neighbours(v).iter().copied().filter(|&u| !placed[u]));
            candidates.sort_unstable_by_key(|&u| (degree(u), u));
            for &u in &candidates {
                placed[u] = true;
                order.push(u);
            }
        }
    }
    order.reverse();
    order
}

/// Breadth-first search from `root` over its component, leaving the visit
/// order in `queue`. Returns the eccentricity of `root` and the queue
/// offset where the last level starts.
fn bfs_levels<'a>(
    root: usize,
    neighbours: &impl Fn(usize) -> &'a [usize],
    mark: &mut [usize],
    stamp: &mut usize,
    queue: &mut Vec<usize>,
) -> (usize, usize) {
    *stamp += 1;
    queue.clear();
    queue.push(root);
    mark[root] = *stamp;
    let (mut level_start, mut depth) = (0, 0);
    loop {
        let level_end = queue.len();
        for k in level_start..level_end {
            for &u in neighbours(queue[k]) {
                if mark[u] != *stamp {
                    mark[u] = *stamp;
                    queue.push(u);
                }
            }
        }
        if queue.len() == level_end {
            return (depth, level_start);
        }
        depth += 1;
        level_start = level_end;
    }
}

/// One memo entry: a sparsity pattern and what is known about it.
#[derive(Debug)]
struct MemoEntry {
    /// The pattern's CSR index arrays, stored as `u32` to halve the
    /// memo's footprint (patterns that do not fit are not memoized).
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    /// The analysis and latest numeric factor; `None` when the fill gate
    /// rejected the pattern, which is remembered without its analysis.
    /// Solves hold clones of the `Arc` while they run, so a refactor only
    /// writes in place when no solve still uses the old values.
    factor: Option<Mutex<Arc<CholeskyFactor>>>,
}

impl MemoEntry {
    fn matches(&self, row_ptr: &[usize], col_idx: &[usize]) -> bool {
        let same = |key: &[u32], idx: &[usize]| {
            key.len() == idx.len() && key.iter().zip(idx).all(|(&k, &i)| k as usize == i)
        };
        same(&self.row_ptr, row_ptr) && same(&self.col_idx, col_idx)
    }
}

/// The process-wide memo, least recently used entry first.
static MEMO: Mutex<Vec<Arc<MemoEntry>>> = Mutex::new(Vec::new());

/// Locks `m`. Every critical section here leaves its data valid at each
/// step (a list edit, or a refactor that marks the factor unmatched until
/// it completes), so a lock poisoned by a panicking thread is safe to take
/// over.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Empties the process-wide factor memo. Solves are unaffected apart from
/// their timing: the next solve of each pattern analyzes and factors it
/// afresh.
pub fn clear_memo() {
    lock(&MEMO).clear();
}

/// The memo entry for `a`'s sparsity pattern, analyzing the pattern on
/// first sight, and the analysis time spent (0 on a hit); `None` for a
/// pattern with more than `u32::MAX` entries. The entry becomes the most
/// recently used; the least recently used one is dropped beyond the
/// capacity.
fn entry_for(a: &CsrMatrix, max_fill_ratio: usize) -> Option<(Arc<MemoEntry>, u64)> {
    let (row_ptr, col_idx, _) = a.raw_parts();
    if a.nnz() > u32::MAX as usize {
        return None;
    }
    {
        let mut memo = lock(&MEMO);
        if let Some(pos) = memo.iter().position(|e| e.matches(row_ptr, col_idx)) {
            let entry = memo.remove(pos);
            memo.push(Arc::clone(&entry));
            return Some((entry, 0));
        }
    }
    // First sight: analyze outside the lock. A thread racing on the same
    // pattern analyzes it too; both arrive at the same entry contents.
    let timer = Instant::now();
    let factor = CholeskyFactor::analyze(a);
    let analysis_us = timer.elapsed().as_micros() as u64;
    let admitted = factor.fill() <= max_fill_ratio.saturating_mul(a.nnz());
    let entry = Arc::new(MemoEntry {
        row_ptr: row_ptr.iter().map(|&i| i as u32).collect(),
        col_idx: col_idx.iter().map(|&i| i as u32).collect(),
        factor: admitted.then(|| Mutex::new(Arc::new(factor))),
    });
    let mut memo = lock(&MEMO);
    memo.retain(|e| !e.matches(row_ptr, col_idx));
    memo.push(Arc::clone(&entry));
    if memo.len() > MEMO_CAPACITY {
        memo.remove(0);
    }
    Some((entry, analysis_us))
}

/// The Cholesky factor of `a` for the ladder's direct rung, from the
/// process-wide memo, and the setup microseconds spent (analysis plus
/// numeric factorization; 0 when the memo held both). `Ok(None)` when
/// the pattern's factor would hold more than `max_fill_ratio · nnz(A)`
/// entries — a verdict that depends on the pattern alone, so it is
/// remembered with it — or the pattern is too large to key.
///
/// # Errors
///
/// [`SolveError::SingularMatrix`] from [`CholeskyFactor::factorize`].
pub(crate) fn memo_factor(
    a: &CsrMatrix,
    max_fill_ratio: usize,
) -> Result<Option<(Arc<CholeskyFactor>, u64)>, SolveError> {
    let Some((entry, analysis_us)) = entry_for(a, max_fill_ratio) else {
        return Ok(None);
    };
    let Some(slot) = &entry.factor else {
        return Ok(None);
    };
    let timer = Instant::now();
    let mut current = lock(slot);
    let refactored = if current.is_factor_of(a) {
        current.reuse()?
    } else {
        // Writes in place unless a running solve still holds the factor.
        Arc::make_mut(&mut current).refactor(a)?
    };
    let factor_us = if refactored {
        timer.elapsed().as_micros() as u64
    } else {
        0
    };
    Ok(Some((Arc::clone(&current), analysis_us + factor_us)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{with_pool, ThreadPool};
    use crate::robust::{solve_robust, RobustOptions, RobustSolved, SolveMethod};
    use crate::{SolveWorkspace, TripletMatrix};
    use std::sync::{Arc, Barrier};

    /// A `w × h` grid Laplacian with every node tied to ground, its
    /// conductances scaled by `scale(edge)` so tests can vary the values
    /// on one pattern. Nodes are numbered column-major with a stride
    /// that makes the natural ordering's envelope wide.
    fn grid(w: usize, h: usize, scale: impl Fn(usize) -> f64) -> CsrMatrix {
        let n = w * h;
        let id = |x: usize, y: usize| x * h + y;
        let mut t = TripletMatrix::new(n, n);
        let mut edge = 0;
        for x in 0..w {
            for y in 0..h {
                t.push(id(x, y), id(x, y), 0.01);
                let mut link = |p: usize, q: usize| {
                    edge += 1;
                    t.stamp_conductance(Some(p), Some(q), scale(edge));
                };
                if x + 1 < w {
                    link(id(x, y), id(x + 1, y));
                }
                if y + 1 < h {
                    link(id(x, y), id(x, y + 1));
                }
            }
        }
        t.to_csr()
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7919) % 13) as f64 * 1e-3 - 4e-3)
            .collect()
    }

    fn ladder(a: &CsrMatrix, b: &[f64]) -> RobustSolved {
        let options = RobustOptions::default();
        solve_robust(
            a,
            None,
            b,
            None,
            &options,
            &mut SolveWorkspace::new(),
            &mut None,
            None,
        )
        .expect("solves")
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn factor_solves_to_rounding() {
        let a = grid(9, 7, |e| 1.0 + (e % 5) as f64);
        let mut f = CholeskyFactor::analyze(&a);
        assert!(
            f.fill() < a.nnz() * 3,
            "rcm keeps the envelope narrow: {}",
            f.fill()
        );
        assert_eq!(f.factorize(&a), Ok(true));
        let b = rhs(a.rows());
        let mut x = vec![0.0; a.rows()];
        f.solve_into(&b, &mut x);
        let bn = crate::vecops::norm2(&b);
        assert!(
            a.residual_norm(&x, &b) <= 1e-13 * bn,
            "{}",
            a.residual_norm(&x, &b)
        );
        // Bit-identical values reuse the factor; new values refactor.
        assert_eq!(f.factorize(&a), Ok(false));
        let a2 = grid(9, 7, |e| 2.0 + (e % 3) as f64);
        assert_eq!(f.factorize(&a2), Ok(true));
        f.solve_into(&b, &mut x);
        assert!(a2.residual_norm(&x, &b) <= 1e-13 * bn);
    }

    #[test]
    fn ordering_covers_every_component() {
        // Two disconnected paths plus an isolated node.
        let a = CsrMatrix::from_triplets(
            5,
            5,
            &[
                (0, 0, 2.0),
                (0, 3, -1.0),
                (3, 0, -1.0),
                (3, 3, 2.0),
                (1, 1, 1.0),
                (2, 2, 2.0),
                (2, 4, -1.0),
                (4, 2, -1.0),
                (4, 4, 2.0),
            ],
        );
        let mut f = CholeskyFactor::analyze(&a);
        let mut seen = f.perm.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..5).collect::<Vec<_>>());
        assert_eq!(f.fill(), 7, "no fill beyond the two couplings");
        f.factorize(&a).unwrap();
        let mut x = vec![0.0; 5];
        f.solve_into(&[1.0, 1.0, 1.0, 1.0, 1.0], &mut x);
        assert!(a.residual_norm(&x, &[1.0; 5]) < 1e-14);
    }

    #[test]
    fn non_positive_pivot_is_a_singular_matrix() {
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)]);
        let mut f = CholeskyFactor::analyze(&a);
        let err = f.factorize(&a).unwrap_err();
        assert!(matches!(err, SolveError::SingularMatrix { pivot } if pivot < 2));
        // The failure is remembered for identical values.
        assert_eq!(f.factorize(&a), Err(err));
        let nan = CsrMatrix::from_triplets(1, 1, &[(0, 0, f64::NAN)]);
        let mut f = CholeskyFactor::analyze(&nan);
        assert_eq!(
            f.factorize(&nan),
            Err(SolveError::SingularMatrix { pivot: 0 })
        );
    }

    #[test]
    fn memo_hits_are_bit_identical_to_cold_analyses() {
        let (a1, a2) = (
            grid(12, 10, |e| 1.0 + (e % 4) as f64),
            grid(12, 10, |e| 3.0 - (e % 2) as f64),
        );
        let b = rhs(a1.rows());
        clear_memo();
        let cold1 = ladder(&a1, &b);
        assert_eq!(cold1.report.method, SolveMethod::CgCholesky);
        let hit1 = ladder(&a1, &b);
        // New values on the memoized pattern refactor in place.
        let refactored2 = ladder(&a2, &b);
        let again1 = ladder(&a1, &b);
        clear_memo();
        let cold2 = ladder(&a2, &b);
        for (warm, cold) in [(&hit1, &cold1), (&again1, &cold1), (&refactored2, &cold2)] {
            assert_eq!(bits(&warm.x), bits(&cold.x));
            assert_eq!(warm.report, cold.report);
        }
    }

    #[test]
    fn concurrent_solves_of_one_pattern_match_serial_answers() {
        let systems: Vec<CsrMatrix> = (0..2)
            .map(|k| grid(10, 10, move |e| 1.0 + ((e + k) % 3) as f64))
            .collect();
        let b = rhs(systems[0].rows());
        let serial: Vec<Vec<u64>> = systems.iter().map(|a| bits(&ladder(a, &b).x)).collect();
        clear_memo();
        let barrier = Arc::new(Barrier::new(systems.len()));
        let handles: Vec<_> = systems
            .into_iter()
            .map(|a| {
                let (barrier, b) = (Arc::clone(&barrier), b.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    (0..20).map(|_| bits(&ladder(&a, &b).x)).collect::<Vec<_>>()
                })
            })
            .collect();
        for (handle, expected) in handles.into_iter().zip(&serial) {
            for answer in handle.join().expect("solver thread") {
                assert_eq!(&answer, expected);
            }
        }
    }

    #[test]
    fn answers_do_not_depend_on_the_thread_count() {
        let a = grid(16, 12, |e| 1.0 + (e % 7) as f64);
        let b = rhs(a.rows());
        let answers: Vec<RobustSolved> = [1, 4]
            .iter()
            .map(|&threads| with_pool(&Arc::new(ThreadPool::new(threads)), || ladder(&a, &b)))
            .collect();
        assert_eq!(answers[0].report.method, SolveMethod::CgCholesky);
        assert_eq!(bits(&answers[0].x), bits(&answers[1].x));
        assert_eq!(answers[0].report, answers[1].report);
    }
}
