//! Experiment harness regenerating every table and figure of
//! *Evaluating the Impact of SDC on the GMRES Iterative Solver*.
//!
//! The heavy lifting lives in [`sdc_campaigns`]: the declarative spec,
//! the sharded resumable executor, the JSONL artifact format and the
//! re-solve-free report layer. This crate is the presentation tier —
//! ASCII figures, aligned tables, CSV emitters — plus the thin figure,
//! table and `campaign` binaries on top.
//!
//! * [`figure`] — the Figure-3/Figure-4 driver, now a front-end that
//!   runs a paper-shaped campaign through the engine and renders the
//!   resulting artifact.
//! * [`render`] — ASCII figures, aligned tables and CSV emitters.
//!
//! Every binary accepts `--quick` for a subsampled sweep on a smaller
//! matrix (CI-friendly) and `--csv DIR` to dump raw data; the sweep
//! binaries also accept `--out PATH` to keep the JSONL artifact.

pub mod baseline;
pub mod figure;
pub mod render;
