//! `sdc_campaigns` — the declarative, resumable, artifact-first campaign
//! engine.
//!
//! The paper's results are single-fault *sweeps*: thousands of
//! independent re-solves over a (problem × fault class × MGS position ×
//! detector policy × least-squares policy) grid. This crate turns those
//! sweeps from one-shot binaries into a subsystem:
//!
//! * [`spec`] — a [`spec::CampaignSpec`] describes a full scenario grid
//!   as data, serialized with the workspace's JSON codec [`json`]
//!   (`sdc_obs::json`, re-exported here).
//! * [`executor`] — expands the spec into a deterministic unit sequence,
//!   runs units in genuinely parallel shards (real threads), and streams one JSONL
//!   record per completed experiment to an artifact file whose bytes are
//!   a pure function of the spec — independent of scheduling, sharding
//!   or interruption. Killed campaigns resume where they stopped.
//! * [`artifact`] — the JSONL record format and the tolerant scanner
//!   that resume and reporting are built on.
//! * [`report`] — reconstructs [`sweep::SweepResult`] series,
//!   Table-1-style characteristics and cross-run diffs from a stored
//!   artifact alone, with no re-solving.
//! * [`sweep`] — the raw single-series sweep driver, shared by the
//!   executor and by callers that want results in memory without an
//!   artifact.
//! * [`problems`] — the evaluation problems.
//! * [`cli`] — the minimal flag parser shared by every experiment
//!   binary.
//!
//! See `crates/campaigns/README.md` for the spec format and the
//! run/resume/report workflow, and `crates/campaigns/DESIGN.md` for why
//! the artifact is the source of truth.

pub mod artifact;
pub mod cli;
pub mod executor;
pub mod problems;
pub mod report;
pub mod spec;
pub mod sweep;

pub use executor::{run, ProgressHook, RunError, RunOptions, RunSummary};
pub use problems::Problem;
pub use report::{render_diff, render_report, CampaignData};
pub use sdc_obs::json;
pub use spec::{CampaignSpec, DetectorPolicy, GridBlock, LsqSpec, ProblemSpec, Scenario};
pub use sweep::{failure_free, run_sweep, CampaignConfig, SweepPoint, SweepResult};
