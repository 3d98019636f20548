//! Sparse linear algebra kernels for the `vstack` 3D-IC power-delivery toolkit.
//!
//! The power-delivery-network (PDN), circuit (MNA) and thermal models in
//! `vstack` all reduce to solving large, sparse systems of linear equations
//! `A x = b`. This crate provides everything those models need, with no
//! external dependencies:
//!
//! * [`TripletMatrix`] — a coordinate-format builder that tolerates duplicate
//!   entries (they are summed), which is exactly how nodal-analysis stamping
//!   works.
//! * [`CsrMatrix`] — compressed-sparse-row storage with matrix–vector
//!   products, transpose, and structural queries.
//! * [`solver`] — iterative solvers: preconditioned conjugate gradient
//!   ([`solver::cg`]) for the symmetric positive-definite systems produced by
//!   resistive grids and thermal networks, and BiCGSTAB
//!   ([`solver::bicgstab`]) for the mildly non-symmetric systems produced by
//!   MNA matrices with voltage and controlled sources.
//! * [`amg`] — an aggregation-based algebraic multigrid preconditioner
//!   whose CG iteration counts stay nearly flat as grids grow; the
//!   escalation ladder uses it as its top rung on large PDN systems.
//! * [`robust`] — the escalation ladder itself: one entry point,
//!   [`solve_robust`], whose rung plan ([`LadderPlan`]) is derived from
//!   the system size.
//! * [`smw`] — a Sherman–Morrison–Woodbury rank-k update sketch that
//!   answers low-rank *downdates* of a cached baseline solve (PDN fault
//!   what-ifs) with dense k×k work instead of a fresh Krylov solve.
//! * [`dense`] — a small dense matrix with LU and Cholesky factorizations,
//!   used for tiny systems (converter test benches), the AMG coarsest
//!   level, and as a reference implementation in tests.
//! * [`pool`] — a std-only scoped thread pool behind the parallel kernels
//!   (row-partitioned SpMV, fixed-chunk tree reductions). All parallel
//!   paths are bit-identical to the
//!   serial ones at any thread count; set `VSTACK_THREADS` to override the
//!   default (available parallelism).
//!
//! # Example
//!
//! Solve the 1-D Poisson system `tridiag(-1, 2, -1) x = b`:
//!
//! ```
//! use vstack_sparse::{TripletMatrix, solver::{cg, CgOptions}};
//!
//! # fn main() -> Result<(), vstack_sparse::SolveError> {
//! let n = 64;
//! let mut a = TripletMatrix::new(n, n);
//! for i in 0..n {
//!     a.push(i, i, 2.0);
//!     if i + 1 < n {
//!         a.push(i, i + 1, -1.0);
//!         a.push(i + 1, i, -1.0);
//!     }
//! }
//! let a = a.to_csr();
//! let b = vec![1.0; n];
//! let x = cg(&a, &b, &CgOptions::default())?;
//! let r = a.residual_norm(&x, &b);
//! assert!(r < 1e-8);
//! # Ok(())
//! # }
//! ```

// Unsafe code is denied by default; the only exemption is the thread pool
// (`pool`), whose lifetime-erased broadcast and partitioned slice writes
// cannot be expressed in safe Rust. Each use carries a SAFETY comment.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod error;
mod triplet;

pub mod amg;
pub mod cancel;
pub mod dense;
pub mod pool;
pub mod robust;
pub mod smw;
pub mod solver;
pub mod stencil;
pub mod vecops;

pub use amg::{AmgHierarchy, AmgHierarchyF32, AmgOptions};
pub use cancel::CancelToken;
pub use csr::CsrMatrix;
pub use error::SolveError;
pub use robust::{solve_robust, LadderPlan, RobustOptions, RobustSolved, SolveMethod, SolveReport};
pub use smw::{SmwAnswer, SmwRejection, SmwSketch, SmwUpdate};
pub use solver::SolveWorkspace;
pub use stencil::{LinearOperator, StencilDescriptor, StencilOperator};
pub use triplet::TripletMatrix;
