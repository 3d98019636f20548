//! Matrix-free stencil operator for regular-grid PDN Laplacians.
//!
//! A stacked-rail power-delivery network is, away from its stamped
//! irregularities, a stack of identical 5-point grid Laplacians coupled
//! vertically by TSVs: the sparsity pattern and most values are implied by
//! the grid geometry, so streaming 8-byte CSR column indices for them is
//! pure memory-bandwidth waste. [`StencilOperator`] stores that regular
//! portion structurally — one horizontal coupling per plane, one diagonal
//! per row, one optional vertical coupling per node — and keeps the rows
//! that *don't* fit (converter rank-1 couplings, anything value-perturbed)
//! in a small side-CSR, applied per-row.
//!
//! ## Bit-identity contract
//!
//! The apply reproduces [`CsrMatrix::mul_vec_into`] *bitwise*: each regular
//! row accumulates its terms in exactly the ascending-column order the CSR
//! kernel uses (`acc = 0.0; acc += v·x` per stored entry), irregular rows
//! delegate to the side-CSR's `row_dot`, and rows are independent, so any
//! contiguous row partition across pool contexts yields the same bits at
//! any thread count. Extraction verifies every regular row's values
//! *bitwise* against the per-plane couplings — a row that deviates (faulted
//! conductance, boundary stamp) is demoted to the side-CSR rather than
//! approximated. Consequently swapping a `CsrMatrix` for the
//! [`StencilOperator`] built from it changes performance, never results.
//!
//! The [`LinearOperator`] trait is the common surface: `cg` and `bicgstab`
//! cores in [`crate::solver`] take `&dyn LinearOperator`, so a solve can be
//! driven by either representation without duplicating solver code.

use crate::error::SolveError;
use crate::CsrMatrix;

/// Minimal abstraction over `y = A x` that iterative solvers accept, so a
/// [`CsrMatrix`] and a [`StencilOperator`] are interchangeable in the hot
/// path. Implementations must be deterministic: same inputs, same bits,
/// at any pool width.
pub trait LinearOperator: Sync {
    /// Number of rows of the operator.
    fn rows(&self) -> usize;
    /// Number of columns of the operator.
    fn cols(&self) -> usize;
    /// Computes `y = A x` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]);
    /// Row of the first non-finite stored entry, for operators that can
    /// enumerate their entries; `None` for those that cannot (the
    /// default), which the solvers then do not screen.
    fn first_non_finite_row(&self) -> Option<usize> {
        None
    }
}

impl LinearOperator for CsrMatrix {
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }
    fn cols(&self) -> usize {
        CsrMatrix::cols(self)
    }
    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::mul_vec_into(self, x, y)
    }
    fn first_non_finite_row(&self) -> Option<usize> {
        self.iter()
            .find(|(_, _, v)| !v.is_finite())
            .map(|(row, _, _)| row)
    }
}

/// Geometry of a stacked regular grid: `planes` copies of an `nx × ny`
/// 5-point grid, with plane `p` coupled to plane `p + 1` (at node offset
/// `nx · ny`) iff `interfaces[p]` is true.
///
/// For the vstacked PDN each layer contributes two planes (top rail,
/// bottom rail) and only odd interfaces carry TSVs — the even ones are
/// converter-coupled, which is a rank-1 stamp the stencil treats as
/// irregular. Emitted by the network builder next to the assembled CSR so
/// the solver can build the matching [`StencilOperator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StencilDescriptor {
    /// Grid width (fastest-varying index).
    pub nx: usize,
    /// Grid height.
    pub ny: usize,
    /// Number of stacked planes.
    pub planes: usize,
    /// `interfaces[p]` ⇒ plane `p` may couple to plane `p + 1` at node
    /// offset `nx · ny`. Length `planes - 1` (empty for a single plane).
    pub interfaces: Vec<bool>,
}

impl StencilDescriptor {
    /// A single `n × n` plane with no vertical couplings.
    pub fn single_plane(n: usize) -> Self {
        StencilDescriptor {
            nx: n,
            ny: n,
            planes: 1,
            interfaces: Vec::new(),
        }
    }

    /// Total unknown count `nx · ny · planes`.
    pub fn unknowns(&self) -> usize {
        self.nx * self.ny * self.planes
    }
}

/// Matrix-free representation of a stacked-grid Laplacian: structural
/// storage for rows matching the regular stencil, a side-CSR for the rest.
/// Built from an assembled [`CsrMatrix`] (the CSR stays the source of
/// truth for preconditioner setup and validation); applying it is
/// bit-identical to applying that CSR.
#[derive(Debug, Clone)]
pub struct StencilOperator {
    desc: StencilDescriptor,
    /// Uniform horizontal (east/west/north/south) coupling value per plane.
    horiz: Vec<f64>,
    /// Diagonal entry per row (regular rows only are read from here).
    diag: Vec<f64>,
    /// Vertical coupling of node `i` to `i + nx·ny`; only read where
    /// `up_present[i]`. Row `i + nx·ny`'s *down* term reuses `up[i]`, which
    /// extraction verified bitwise against the stored symmetric entry.
    up: Vec<f64>,
    /// Pattern-level presence of the `i → i + nx·ny` coupling. Explicit
    /// stored zeros (e.g. faulted TSVs restamped to zero) stay *present* so
    /// the accumulation order matches the CSR exactly.
    up_present: Vec<bool>,
    /// Per-row flag: `p > 0 && interfaces[p-1] && up_present[i - nx·ny]`,
    /// precomputed so the apply kernel does no interface lookups.
    down_present: Vec<bool>,
    /// Rows whose pattern or values fit the stencil; others go via `side`.
    regular: Vec<bool>,
    /// Full rows of every irregular row (all other rows empty).
    side: CsrMatrix,
    irregular_rows: usize,
}

/// Row count above which the apply runs on the active thread pool; below
/// it a broadcast costs more than the product (cf.
/// [`CsrMatrix::PAR_SPMV_MIN_NNZ`] at ~5 entries/row).
const PAR_MIN_ROWS: usize = 8_192;

impl StencilOperator {
    /// Extracts a stencil operator from `a` using grid geometry `desc`.
    ///
    /// Every row is classified: a row is *regular* iff its stored column
    /// set is exactly the expected stencil neighborhood (down, north,
    /// west, diagonal, east, south, up — each where the geometry admits
    /// it) **and** its horizontal values bitwise match the plane's uniform
    /// coupling **and** its down value bitwise matches the symmetric up
    /// value stored at `i - nx·ny`. Anything else — converter rank-1
    /// terms, value-perturbed rows — lands whole in the side-CSR.
    ///
    /// # Errors
    ///
    /// [`SolveError::DimensionMismatch`] if `a` is not square of dimension
    /// `desc.unknowns()` or `desc.interfaces` has the wrong length.
    pub fn from_csr(a: &CsrMatrix, desc: StencilDescriptor) -> Result<Self, SolveError> {
        let n = desc.unknowns();
        if a.rows() != a.cols() || a.rows() != n {
            return Err(SolveError::DimensionMismatch {
                expected: n,
                found: a.rows(),
            });
        }
        if desc.planes == 0 || desc.interfaces.len() + 1 != desc.planes {
            return Err(SolveError::DimensionMismatch {
                expected: desc.planes.saturating_sub(1),
                found: desc.interfaces.len(),
            });
        }
        let mut op = StencilOperator {
            desc,
            horiz: Vec::new(),
            diag: Vec::new(),
            up: Vec::new(),
            up_present: Vec::new(),
            down_present: Vec::new(),
            regular: Vec::new(),
            side: CsrMatrix::from_triplets(n, n, &[]),
            irregular_rows: 0,
        };
        op.fill_from(a)?;
        Ok(op)
    }

    /// Re-extracts all values (and row classifications) from `a` after a
    /// value restamp on the same pattern, reusing this operator's buffers.
    /// Rows may migrate between the regular and side-CSR sets — a faulted
    /// conductance breaks a plane's value uniformity for that row only.
    ///
    /// # Errors
    ///
    /// [`SolveError::DimensionMismatch`] if `a`'s shape no longer matches
    /// the descriptor; the operator is left in an unspecified but safe
    /// state and should be rebuilt.
    pub fn refresh_values_from(&mut self, a: &CsrMatrix) -> Result<(), SolveError> {
        let n = self.desc.unknowns();
        if a.rows() != a.cols() || a.rows() != n {
            return Err(SolveError::DimensionMismatch {
                expected: n,
                found: a.rows(),
            });
        }
        self.fill_from(a)
    }

    /// Extraction core shared by [`StencilOperator::from_csr`] and
    /// [`StencilOperator::refresh_values_from`]; overwrites every field
    /// from `a`, reusing buffer capacity.
    fn fill_from(&mut self, a: &CsrMatrix) -> Result<(), SolveError> {
        let desc = &self.desc;
        let (nx, ny, planes) = (desc.nx, desc.ny, desc.planes);
        let ps = nx * ny;
        let n = ps * planes;
        let (row_ptr, col_idx, values) = a.raw_parts();

        self.horiz.clear();
        self.horiz.resize(planes, 0.0);
        self.diag.clear();
        self.diag.resize(n, 0.0);
        self.up.clear();
        self.up.resize(n, 0.0);
        self.up_present.clear();
        self.up_present.resize(n, false);
        self.down_present.clear();
        self.down_present.resize(n, false);
        self.regular.clear();
        self.regular.resize(n, false);

        // Expected ascending-column neighborhood of row i, value-checked
        // against what extraction has already established. Returns the
        // (up_value, up_present) pair on success, None if the row is
        // irregular.
        let mut side_triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut irregular = 0usize;

        for p in 0..planes {
            // Pass A: pick this plane's candidate horizontal coupling from
            // the first structurally-regular row that has a horizontal
            // neighbor. Converter rows fail the structural check (extra
            // columns) and are skipped, so the candidate comes from a
            // genuinely regular interior/edge row.
            let mut w = 0.0f64;
            let mut w_found = nx * ny == 1;
            for i in p * ps..(p + 1) * ps {
                if w_found {
                    break;
                }
                let r = i - p * ps;
                let (iy, ix) = (r / nx, r % nx);
                let cols = &col_idx[row_ptr[i]..row_ptr[i + 1]];
                let vals = &values[row_ptr[i]..row_ptr[i + 1]];
                let mut k = 0usize;
                let mut ok = true;
                let mut first_horiz = None;
                let mut eat = |expect: usize, horiz: bool, k: &mut usize| -> bool {
                    if *k < cols.len() && cols[*k] == expect {
                        if horiz && first_horiz.is_none() {
                            first_horiz = Some(vals[*k]);
                        }
                        *k += 1;
                        true
                    } else {
                        false
                    }
                };
                if self.down_allowed(p) && self.up_present[i - ps] && !eat(i - ps, false, &mut k) {
                    ok = false;
                }
                if ok && iy > 0 && !eat(i - nx, true, &mut k) {
                    ok = false;
                }
                if ok && ix > 0 && !eat(i - 1, true, &mut k) {
                    ok = false;
                }
                if ok && !eat(i, false, &mut k) {
                    ok = false;
                }
                if ok && ix + 1 < nx && !eat(i + 1, true, &mut k) {
                    ok = false;
                }
                if ok && iy + 1 < ny && !eat(i + nx, true, &mut k) {
                    ok = false;
                }
                if ok && self.up_allowed(p) && *cols.last().unwrap_or(&0) == i + ps {
                    // Optional up coupling: pattern-level presence.
                    eat(i + ps, false, &mut k);
                }
                if ok && k == cols.len() {
                    if let Some(v) = first_horiz {
                        w = v;
                        w_found = true;
                    }
                }
            }
            self.horiz[p] = w;

            // Pass B: classify and extract every row of the plane.
            for i in p * ps..(p + 1) * ps {
                let r = i - p * ps;
                let (iy, ix) = (r / nx, r % nx);
                let cols = &col_idx[row_ptr[i]..row_ptr[i + 1]];
                let vals = &values[row_ptr[i]..row_ptr[i + 1]];
                let down = self.down_allowed(p) && self.up_present[i - ps];
                let mut k = 0usize;
                let mut ok = true;
                let mut up_val = 0.0f64;
                let mut up_here = false;

                if down {
                    // Down value must bitwise equal the symmetric stored
                    // up value so the apply can reuse `up[i - ps]`.
                    if k < cols.len()
                        && cols[k] == i - ps
                        && vals[k].to_bits() == self.up[i - ps].to_bits()
                    {
                        k += 1;
                    } else {
                        ok = false;
                    }
                }
                let horiz_ok = |k: &mut usize, expect: usize| -> bool {
                    if *k < cols.len() && cols[*k] == expect && vals[*k].to_bits() == w.to_bits() {
                        *k += 1;
                        true
                    } else {
                        false
                    }
                };
                if ok && iy > 0 && !horiz_ok(&mut k, i - nx) {
                    ok = false;
                }
                if ok && ix > 0 && !horiz_ok(&mut k, i - 1) {
                    ok = false;
                }
                let mut diag_val = 0.0f64;
                if ok {
                    if k < cols.len() && cols[k] == i {
                        diag_val = vals[k];
                        k += 1;
                    } else {
                        ok = false;
                    }
                }
                if ok && ix + 1 < nx && !horiz_ok(&mut k, i + 1) {
                    ok = false;
                }
                if ok && iy + 1 < ny && !horiz_ok(&mut k, i + nx) {
                    ok = false;
                }
                if ok && self.up_allowed(p) && k < cols.len() && cols[k] == i + ps {
                    up_val = vals[k];
                    up_here = true;
                    k += 1;
                }
                if ok && k != cols.len() {
                    ok = false;
                }

                if ok {
                    self.regular[i] = true;
                    self.diag[i] = diag_val;
                    self.up[i] = up_val;
                    self.up_present[i] = up_here;
                    self.down_present[i] = down;
                } else {
                    // Whole row via the side-CSR; still record vertical
                    // *pattern* presence so rows above see a consistent
                    // neighborhood, and the symmetric up value for their
                    // down check.
                    self.regular[i] = false;
                    irregular += 1;
                    if self.up_allowed(p) {
                        if let Ok(pos) = cols.binary_search(&(i + ps)) {
                            self.up[i] = vals[pos];
                            self.up_present[i] = true;
                        }
                    }
                    for (c, v) in cols.iter().zip(vals.iter()) {
                        side_triplets.push((i, *c, *v));
                    }
                }
            }
        }

        self.irregular_rows = irregular;
        self.side = CsrMatrix::from_triplets(n, n, &side_triplets);
        Ok(())
    }

    #[inline]
    fn down_allowed(&self, p: usize) -> bool {
        p > 0 && self.desc.interfaces[p - 1]
    }

    #[inline]
    fn up_allowed(&self, p: usize) -> bool {
        p + 1 < self.desc.planes && self.desc.interfaces[p]
    }

    /// The grid geometry this operator was built for.
    pub fn descriptor(&self) -> &StencilDescriptor {
        &self.desc
    }

    /// Rows served by the side-CSR instead of the structural kernel.
    pub fn irregular_rows(&self) -> usize {
        self.irregular_rows
    }

    /// One grid row (`nx` nodes) of the apply, columns `ix0..ix1` of band
    /// (`p`, `iy`); `base` is the node index of the band's `ix = 0` node.
    /// Term order per node matches the CSR's ascending-column storage
    /// exactly.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn band_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        p: usize,
        iy: usize,
        base: usize,
        ix0: usize,
        ix1: usize,
    ) {
        let (nx, ny) = (self.desc.nx, self.desc.ny);
        let ps = nx * ny;
        let w = self.horiz[p];
        let north = iy > 0;
        let south = iy + 1 < ny;
        for ix in ix0..ix1 {
            let i = base + ix;
            if !self.regular[i] {
                y[ix - ix0] = self.side.row_dot(i, x);
                continue;
            }
            let mut acc = 0.0f64;
            if self.down_present[i] {
                acc += self.up[i - ps] * x[i - ps];
            }
            if north {
                acc += w * x[i - nx];
            }
            if ix > 0 {
                acc += w * x[i - 1];
            }
            acc += self.diag[i] * x[i];
            if ix + 1 < nx {
                acc += w * x[i + 1];
            }
            if south {
                acc += w * x[i + nx];
            }
            if self.up_present[i] {
                acc += self.up[i] * x[i + ps];
            }
            y[ix - ix0] = acc;
        }
    }

    /// Applies rows `[r0, r1)` into `y[r0 - r0_off..]`... serial kernel
    /// used by both the serial path and each pool context. `y` is indexed
    /// by `row - r0`.
    fn apply_range(&self, x: &[f64], y: &mut [f64], r0: usize, r1: usize) {
        let (nx, ny) = (self.desc.nx, self.desc.ny);
        let ps = nx * ny;
        let mut i = r0;
        while i < r1 {
            let p = i / ps;
            let rem = i - p * ps;
            let iy = rem / nx;
            let ix0 = rem - iy * nx;
            let band_end = (i + (nx - ix0)).min(r1);
            let base = i - ix0;
            self.band_into(
                x,
                &mut y[(i - r0)..(band_end - r0)],
                p,
                iy,
                base,
                ix0,
                ix0 + (band_end - i),
            );
            i = band_end;
        }
    }

    /// Computes `y = A x`, bit-identical to the source CSR's
    /// `mul_vec_into` at any pool width. Large operators
    /// (≥ `8192` rows) partition rows contiguously across the active
    /// thread pool.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` don't match the operator shape.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        let n = self.desc.unknowns();
        assert_eq!(x.len(), n, "stencil apply dimension mismatch (x)");
        assert_eq!(y.len(), n, "stencil apply dimension mismatch (y)");
        vstack_obs::metrics::global().stencil_applies.inc();
        if n >= PAR_MIN_ROWS {
            crate::pool::active(|pool| self.par_mul_vec_into(pool, x, y));
            return;
        }
        self.apply_range(x, y, 0, n);
    }

    /// Pool-parallel apply with contiguous equal-row partitioning; rows
    /// are independent, so this is bit-identical to the serial kernel for
    /// any context count.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` don't match the operator shape.
    pub fn par_mul_vec_into(&self, pool: &crate::pool::ThreadPool, x: &[f64], y: &mut [f64]) {
        let n = self.desc.unknowns();
        assert_eq!(x.len(), n, "stencil apply dimension mismatch (x)");
        assert_eq!(y.len(), n, "stencil apply dimension mismatch (y)");
        let contexts = pool.contexts();
        if contexts == 1 {
            self.apply_range(x, y, 0, n);
            return;
        }
        let out = crate::pool::SharedSliceMut::new(y);
        pool.run(&|ctx| {
            let r0 = n * ctx / contexts;
            let r1 = n * (ctx + 1) / contexts;
            // Per-context stack buffer is not possible for arbitrary
            // ranges; write through the shared slice row by row via a
            // small fixed chunk.
            let mut buf = [0.0f64; 256];
            let mut i = r0;
            while i < r1 {
                let hi = (i + buf.len()).min(r1);
                self.apply_range(x, &mut buf[..hi - i], i, hi);
                for (k, v) in buf[..hi - i].iter().enumerate() {
                    // SAFETY: row ranges are disjoint across contexts and
                    // `i + k < n = out.len()`.
                    #[allow(unsafe_code)]
                    unsafe {
                        out.set(i + k, *v)
                    };
                }
                i = hi;
            }
        });
    }
}

impl LinearOperator for StencilOperator {
    fn rows(&self) -> usize {
        self.desc.unknowns()
    }
    fn cols(&self) -> usize {
        self.desc.unknowns()
    }
    fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        StencilOperator::mul_vec_into(self, x, y)
    }
}
