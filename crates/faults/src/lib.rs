//! Silent-data-corruption modelling and injection for the SDC-GMRES
//! reproduction.
//!
//! The paper's experimental protocol (§VII-B) injects **exactly one**
//! numerical perturbation per solve, at a precisely chosen site inside the
//! inner solver's orthogonalization loop, with a value defined *relative*
//! to the correct result (`×10^150`, `×10^-0.5`, `×10^-300`). This crate
//! provides the machinery:
//!
//! * [`model`] — what a fault does to a value: the paper's relative
//!   scalings, absolute overwrites, offsets, bit flips, and the IEEE-754
//!   specials.
//! * [`site`] — where a fault strikes: which kernel, which outer/inner
//!   iteration, which position in the Gram-Schmidt loop.
//! * [`trigger`] — when a fault strikes: site predicates plus
//!   once/always/nth firing modes.
//! * [`injector`] — the [`injector::FaultInjector`] trait the solvers
//!   call at every instrumented operation, with a thread-safe
//!   single-event implementation that logs exactly what it corrupted.
//! * [`bitflip`] — bit-level anatomy of `f64`, connecting the bit-flip
//!   fault model of prior work to the paper's generalized numerical-error
//!   model (§III-A-2).
//! * [`campaign`] — the paper's fault classes and Gram-Schmidt positions
//!   as enums, plus deterministic campaign-plan builders.

pub mod bitflip;
pub mod campaign;
pub mod injector;
pub mod model;
pub mod site;
pub mod trigger;

pub use campaign::{FaultClass, FaultTarget, MgsPosition};
pub use injector::{FaultInjector, InjectionRecord, NoFaults, SingleFaultInjector};
pub use model::FaultModel;
pub use site::{Kernel, Site};
pub use trigger::{FireMode, SitePredicate, Trigger};
