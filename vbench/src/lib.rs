//! `vbench` — the seeded request generators behind the vstack benchmark.
//!
//! The benchmark binary (`src/main.rs`) drives these streams through the
//! daemon, the in-process engine and a traced per-layer replay. The
//! generators live in this library so `tests/generator.rs` can pin their
//! properties: the same seed gives a byte-identical stream, another seed
//! gives other fingerprints with the same mix, and each workload keeps its
//! stated shares.

#![forbid(unsafe_code)]

pub mod gen;
pub mod rng;
