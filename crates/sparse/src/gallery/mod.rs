//! Reproducible test-matrix generators.
//!
//! The paper deliberately avoids hand-crafted matrices ("to ensure
//! reproducibility, we did not create either of these matrices from
//! scratch"): it uses Matlab's `gallery('poisson',100)` and the UF
//! collection's `mult_dcop_03`. This gallery reconstructs the former
//! exactly and substitutes a synthetic circuit generator for the latter
//! (rationale in `crates/sparse/src/gallery/circuit.rs`), alongside the
//! standard Krylov test operators used by the extended experiments.

mod circuit;
mod convdiff;
mod poisson;
mod random;
mod special;

pub use circuit::{circuit_mna, mult_dcop_like, CircuitMnaConfig};
pub use convdiff::convection_diffusion_2d;
pub use poisson::{poisson1d, poisson2d, poisson2d_kron, poisson2d_spectrum, poisson3d};
pub use random::{sprand, sprand_spd};
pub use special::{anisotropic_poisson2d, grcar, helmholtz2d, laplacian_path_graph};
