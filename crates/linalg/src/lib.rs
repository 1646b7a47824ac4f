//! Dense linear algebra for the FUNNEL reproduction — built from scratch.
//!
//! FUNNEL's detection core is the Singular Spectrum Transform, whose exact
//! form needs an SVD of a Hankel trajectory matrix and whose fast form (the
//! Implicit Krylov Approximation of Idé & Tsuda, paper §3.2.3) needs
//! Lanczos tridiagonalization plus a QL eigensolver on the resulting
//! tridiagonal. The MRLS baseline additionally needs repeated SVDs. No
//! mainstream crate exposes Lanczos over an *implicit* operator in the form
//! IKA wants, so this crate implements the whole stack:
//!
//! * [`matrix`] — a small dense row-major matrix plus vector helpers,
//! * [`mod@svd`] — one-sided Jacobi SVD (accurate for the small matrices SST
//!   builds; dimensions are `ω×δ` with `ω ≈ 9..100`),
//! * [`symeig`] — cyclic Jacobi eigendecomposition for dense symmetric
//!   matrices (used by the exact robust-SST path on `A(t)A(t)ᵀ`),
//! * [`tridiag`] — implicit-shift QL eigensolver for symmetric tridiagonal
//!   matrices (the "QL iteration" of paper §3.2.3),
//! * [`op`] — the [`LinearOperator`] abstraction ("implicit inner product
//!   calculation": operators are applied, never materialized),
//! * [`hankel`] — implicit Hankel trajectory-matrix operators and their
//!   Gram operators `BBᵀ` ("matrix compression": `O(ω)` storage for the
//!   `ω×δ` matrix),
//! * [`mod@lanczos`] — Lanczos tridiagonalization with full reorthogonalization,
//! * [`power`] — power/deflated-subspace iteration for a few extreme
//!   eigenpairs.
//!
//! Everything is `f64` and deterministic. The kernels the fast SST runs per
//! window ([`lanczos_into`], [`tridiag_eig_into`], [`tridiag_eig_lockstep`],
//! the Hankel `_into` products) write into caller-owned buffers and
//! allocate nothing; the `Vec`-returning forms are thin wrappers over them.

#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod hankel;
pub mod lanczos;
pub mod matrix;
pub mod op;
pub mod power;
pub mod svd;
pub mod symeig;
pub mod tridiag;

pub use hankel::{GramOperator, HankelMatrix};
pub use lanczos::{lanczos, lanczos_into, LanczosResult};
pub use matrix::Mat;
pub use op::LinearOperator;
pub use power::{dominant_eigenpair, top_eigenpairs};
pub use svd::{svd, Svd};
pub use symeig::{sym_eig, SymEig};
pub use tridiag::{tridiag_eig, tridiag_eig_into, tridiag_eig_lockstep, TridiagEig, Tridiagonal};

/// Convergence tolerance used across iterative routines (relative).
pub const EPS: f64 = 1e-12;
