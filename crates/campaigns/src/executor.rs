//! The sharded, resumable campaign executor.
//!
//! Execution model:
//!
//! 1. The spec is expanded into a canonical *unit sequence*: preamble
//!    records (header, one problem record per problem, one baseline
//!    record per distinct (problem, lsq) pair), then one experiment unit
//!    per (scenario, strided aggregate iteration), scenario-major.
//! 2. Units are partitioned into fixed-size shards. Each shard's
//!    experiments run genuinely concurrently over the `sdc_parallel`
//!    work pool (threads claim units dynamically; nested parallel
//!    kernels inside a solve run inline on their worker), but results
//!    are collected and appended to the artifact *in unit order*,
//!    followed by a flush — so the artifact's bytes are a pure function
//!    of the spec at **any** thread count, and a killed run loses at
//!    most one shard. `tests/threads.rs` pins this byte-for-byte at
//!    1/2/8 threads.
//! 3. On resume the existing artifact is scanned, validated against the
//!    canonical sequence, truncated after the last record that matches
//!    it, and execution continues from the first missing unit. Baselines
//!    already in the artifact are *reused, not re-solved*.
//! 4. Experiments do not re-solve the fault-free prefix. The baseline
//!    solve of each (problem, lsq) key is kept as a [`CleanFtGmres`] —
//!    the inner results `z_j` of its clean outer iterations plus the
//!    largest inner `|h|` per inner solve — and each unit forks from it
//!    at the outer iteration whose inner solve holds the fault (earlier
//!    when the scenario's detector would have fired on the clean run):
//!    the outer steps before it take their `z_j` from the record
//!    instead of running an inner solve. The fork's result is bitwise
//!    the from-scratch one, so the artifact does not depend on it.
//!    Traced units (`trace_out`) run from scratch, because a fork emits
//!    no inner det events for its prefix. The snapshots are dropped
//!    when [`run`] returns.
//!
//! Every unit carries a stable seed derived from the spec seed and the
//! unit index (SplitMix64), recorded in its artifact line. The paper's
//! single-fault experiments are fully deterministic and do not consume
//! it, but stochastic workloads (random fault sites, perturbed
//! right-hand sides) get reproducible per-unit randomness for free.

use crate::artifact::{self, ArtifactError, Record};
use crate::problems::Problem;
use crate::spec::{CampaignSpec, LsqSpec, Scenario};
use crate::sweep::{clean_run, fork_boundary, run_experiment};
use sdc_faults::campaign::CampaignPoint;
use sdc_gmres::ftgmres::CleanFtGmres;
use sdc_gmres::prelude::{BuiltPrecond, FtGmresConfig};
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A job-progress callback: invoked once per record *appended by this
/// invocation* (records already on disk from a resumed run are not
/// replayed), on the thread that owns the artifact file, immediately
/// after the record is written. `sdc_server` streams campaign jobs to
/// clients through this hook; it sees exactly the lines the artifact
/// gained.
pub type ProgressHook = std::sync::Arc<dyn Fn(&Record) + Send + Sync>;

/// Executor tuning knobs.
#[derive(Clone)]
pub struct RunOptions {
    /// Units per shard: the parallel batch size and the flush/checkpoint
    /// granularity. A killed run re-does at most this many experiments.
    pub shard_size: usize,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
    /// Stop (cleanly, mid-campaign) after running this many new units —
    /// a deterministic stand-in for `kill` in tests and smoke runs.
    pub max_units: Option<usize>,
    /// Called for every newly appended record (see [`ProgressHook`]).
    pub on_record: Option<ProgressHook>,
    /// Write each unit's deterministic solve trace (the `sdc_obs` Det
    /// channel) to this path as JSONL: a `campaign.unit` marker line per
    /// unit followed by that unit's events. Units are captured with
    /// per-unit thread-local sinks and appended in canonical unit order,
    /// so the file is byte-identical at any thread count. The file is
    /// rewritten from scratch on every invocation; units skipped by a
    /// resume are not re-traced.
    pub trace_out: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self { shard_size: 64, quiet: false, max_units: None, on_record: None, trace_out: None }
    }
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOptions")
            .field("shard_size", &self.shard_size)
            .field("quiet", &self.quiet)
            .field("max_units", &self.max_units)
            .field("on_record", &self.on_record.as_ref().map(|_| "<hook>"))
            .field("trace_out", &self.trace_out)
            .finish()
    }
}

/// What a run did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Total experiment units the spec expands to.
    pub total_units: usize,
    /// Units already present in the artifact and skipped.
    pub skipped_units: usize,
    /// Units executed by this invocation.
    pub ran_units: usize,
    /// Units still missing (nonzero only when `max_units` stopped the
    /// run early).
    pub remaining_units: usize,
    /// Bytes of clean-solve state held for forking (all baselines
    /// together; 0 when nothing was forked).
    pub snapshot_bytes: usize,
    /// Outer iterations the units of this invocation took, in total.
    pub outer_iterations: usize,
    /// Of those, the ones forking skipped: the clean prefixes whose
    /// inner solves the units took from the baseline instead of running
    /// (only the reliable outer step of each is replayed).
    pub outer_skipped: usize,
}

impl RunSummary {
    /// True when the artifact now holds every unit.
    pub fn is_complete(&self) -> bool {
        self.remaining_units == 0
    }
}

/// Errors from [`run`].
#[derive(Debug)]
pub enum RunError {
    /// Artifact I/O or corruption.
    Artifact(ArtifactError),
    /// The output file already exists and `resume` was not requested.
    AlreadyExists(PathBuf),
    /// Resume pointed at a non-empty file that is not an artifact of
    /// this campaign (refused rather than truncated).
    NotAnArtifact(PathBuf),
    /// The spec failed structural validation.
    InvalidSpec(String),
    /// The artifact's header spec differs from the requested spec.
    SpecMismatch(String),
    /// A fault-free baseline failed to converge — the sweep domain is
    /// undefined, so the spec (tolerance/cap/problem) is broken.
    BaselineDiverged {
        /// Problem index whose baseline failed.
        problem: usize,
        /// Iterations performed before giving up.
        iterations: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Artifact(e) => write!(f, "{e}"),
            RunError::AlreadyExists(p) => {
                write!(f, "artifact {} already exists; use resume to continue it", p.display())
            }
            RunError::NotAnArtifact(p) => write!(
                f,
                "{} is not an artifact of this campaign; refusing to overwrite it \
                 (delete the file to start fresh)",
                p.display()
            ),
            RunError::InvalidSpec(msg) => write!(f, "invalid spec: {msg}"),
            RunError::SpecMismatch(msg) => write!(f, "spec mismatch: {msg}"),
            RunError::BaselineDiverged { problem, iterations } => write!(
                f,
                "fault-free baseline for problem {problem} did not converge \
                 within {iterations} outer iterations"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ArtifactError> for RunError {
    fn from(e: ArtifactError) -> Self {
        RunError::Artifact(e)
    }
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Artifact(ArtifactError::Io(e))
    }
}

/// SplitMix64 finalizer: the stable per-unit seed derivation.
pub fn unit_seed(base_seed: u64, unit: u64) -> u64 {
    let mut z = base_seed.wrapping_add(unit.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One experiment unit of the canonical sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Unit {
    /// Position in the canonical sequence (0-based).
    index: usize,
    /// Index into the canonical scenario list.
    scenario_idx: usize,
    /// 1-based aggregate inner iteration to fault.
    aggregate: usize,
}

/// The fully-expanded execution plan for a spec.
struct Plan {
    scenarios: Vec<Scenario>,
    /// Index into `baseline_keys` per scenario.
    scenario_keys: Vec<usize>,
    baseline_keys: Vec<(usize, LsqSpec)>,
    /// Baseline outer iterations per baseline key (same order).
    baseline_outers: Vec<usize>,
    /// The clean solve per baseline key, for the keys solved here.
    cleans: Vec<Option<CleanFtGmres>>,
    units: Vec<Unit>,
}

/// Lazily-built problems: a record-complete resume (re-render, no-op
/// `campaign resume`) never loads or generates a single matrix.
struct ProblemCache<'a> {
    spec: &'a CampaignSpec,
    cells: Vec<std::sync::OnceLock<Result<Problem, String>>>,
}

impl<'a> ProblemCache<'a> {
    fn new(spec: &'a CampaignSpec) -> Self {
        Self { spec, cells: (0..spec.problems.len()).map(|_| Default::default()).collect() }
    }

    /// Problem `i`, built on first use. A problem that cannot be built
    /// (an unreadable matrix file, a one-node circuit) makes the spec
    /// invalid.
    fn get(&self, i: usize) -> Result<&Problem, RunError> {
        self.cells[i]
            .get_or_init(|| self.spec.problems[i].try_build())
            .as_ref()
            .map_err(|e| RunError::InvalidSpec(format!("problem {i} cannot be built: {e}")))
    }

    /// Problem `i`'s preconditioner of the spec's kind, built on first
    /// use. A matrix it cannot be built on (ILU(0) without a diagonal
    /// entry) makes the spec invalid; callers resolve it before the
    /// first solve on the problem, so that is an error, not a panic.
    fn precond(&self, i: usize) -> Result<&BuiltPrecond, RunError> {
        let p = self.get(i)?;
        p.precond(self.spec.precond).map_err(|e| {
            RunError::InvalidSpec(format!(
                "precond {} cannot be built on problem {i} ({}): {e}",
                self.spec.precond, p.name
            ))
        })
    }
}

/// Expands the spec, solving (or reusing) the baselines it needs.
///
/// `known_baselines` maps (problem, lsq) to an outer-iteration count
/// recovered from an existing artifact; anything missing is solved here.
fn expand(
    spec: &CampaignSpec,
    problems: &ProblemCache,
    known_baselines: &HashMap<(usize, LsqSpec), usize>,
    quiet: bool,
) -> Result<Plan, RunError> {
    let baseline_keys = spec.baseline_keys();
    let mut baseline_outers = Vec::with_capacity(baseline_keys.len());
    let mut cleans = Vec::with_capacity(baseline_keys.len());
    for &(pidx, lsq) in &baseline_keys {
        if let Some(&outer) = known_baselines.get(&(pidx, lsq)) {
            baseline_outers.push(outer);
            cleans.push(None);
            continue;
        }
        problems.precond(pidx)?;
        let problem = problems.get(pidx)?;
        if !quiet {
            eprintln!(
                "[campaign] baseline: problem {pidx} ({}), lsq={}",
                problem.name,
                lsq.label()
            );
        }
        let (rep, clean) = clean_run(problem, &spec.baseline_config(lsq));
        if !rep.outcome.is_converged() {
            return Err(RunError::BaselineDiverged { problem: pidx, iterations: rep.iterations });
        }
        baseline_outers.push(rep.iterations);
        cleans.push(Some(clean));
    }

    let scenarios = spec.scenarios();
    let mut scenario_keys = Vec::with_capacity(scenarios.len());
    let mut units = Vec::new();
    for (scenario_idx, s) in scenarios.iter().enumerate() {
        let key_pos = baseline_keys
            .iter()
            .position(|&(p, l)| p == s.problem && l == s.lsq)
            .expect("every scenario has a baseline key");
        scenario_keys.push(key_pos);
        for aggregate in spec.unit_domain(baseline_outers[key_pos]) {
            units.push(Unit { index: units.len(), scenario_idx, aggregate });
        }
    }
    Ok(Plan { scenarios, scenario_keys, baseline_keys, baseline_outers, cleans, units })
}

/// Validates an existing artifact's records against the canonical
/// sequence for `spec`.
///
/// Returns the number of leading records that match (the rest of the
/// file is truncated) and the baselines found among them. The header, if
/// present, must carry an identical spec — a different spec is an error,
/// not a truncation, because silently rewriting someone else's artifact
/// would destroy data.
type BaselineMap = HashMap<(usize, LsqSpec), usize>;

fn validate_prefix(
    spec: &CampaignSpec,
    records: &[Record],
) -> Result<(usize, BaselineMap), RunError> {
    let mut baselines = BaselineMap::new();
    let Some(first) = records.first() else {
        return Ok((0, baselines));
    };
    match first {
        Record::Header { spec: stored } => {
            if stored != spec {
                return Err(RunError::SpecMismatch(
                    "artifact was produced by a different spec".into(),
                ));
            }
        }
        _ => return Ok((0, baselines)),
    }

    // Preamble: problem records (by index), then baseline records (by
    // key), then experiments (by unit order). We validate *keys*; the
    // measured payloads are trusted as-is.
    let n_problems = spec.problems.len();
    let baseline_keys = spec.baseline_keys();
    let mut matched = 1usize;
    for rec in &records[1..] {
        let expected_problem = matched - 1; // problems occupy records 1..=n
        let ok = match rec {
            Record::Header { .. } => false,
            Record::Problem { index, .. } => {
                expected_problem < n_problems && *index == expected_problem
            }
            Record::Baseline { problem, lsq, outer_iterations, .. } => {
                let b = matched.checked_sub(1 + n_problems);
                match b {
                    Some(b) if b < baseline_keys.len() => {
                        let (kp, kl) = baseline_keys[b];
                        if kp == *problem && kl == *lsq {
                            baselines.insert((kp, kl), *outer_iterations);
                            true
                        } else {
                            false
                        }
                    }
                    _ => false,
                }
            }
            Record::Experiment { unit, .. } => {
                let u = matched.checked_sub(1 + n_problems + baseline_keys.len());
                u == Some(*unit)
            }
        };
        if !ok {
            break;
        }
        matched += 1;
    }

    // Experiments may only start after the full preamble; a file cut
    // inside the preamble keeps its matched prefix and recomputes the
    // rest (deterministically, so bytes still line up).
    Ok((matched, baselines))
}

/// Characterizes one problem for its artifact record.
fn problem_record(spec: &CampaignSpec, index: usize, p: &Problem) -> Record {
    let norm2_est = if spec.norm2_iters > 0 {
        Some(sdc_sparse::norm_est::norm2_est(&p.a, spec.norm2_iters, 1e-12).value)
    } else {
        None
    };
    Record::Problem {
        index,
        name: p.name.clone(),
        rows: p.a.nrows(),
        cols: p.a.ncols(),
        nnz: p.a.nnz(),
        norm_fro: p.a.norm_fro(),
        norm2_est,
    }
}

/// Runs (or resumes) a campaign, streaming records to `artifact_path`.
///
/// With `resume = false` the artifact must not already exist. With
/// `resume = true` an existing artifact is continued: completed units
/// are skipped, a partial or broken tail is truncated, and the appended
/// records are exactly those an uninterrupted run would have written —
/// the final file is byte-identical either way. Resuming a missing file
/// simply starts it.
pub fn run(
    spec: &CampaignSpec,
    artifact_path: &Path,
    resume: bool,
    opts: &RunOptions,
) -> Result<RunSummary, RunError> {
    // Invalid specs (e.g. a programmatically-built stride of 0) must
    // fail loudly here, not panic mid-run or emit a broken artifact.
    spec.validate().map_err(RunError::InvalidSpec)?;

    let exists = artifact_path.exists();
    if exists && !resume {
        return Err(RunError::AlreadyExists(artifact_path.to_path_buf()));
    }

    // Scan + validate whatever is already on disk.
    let (scan, matched, known_baselines) = if exists {
        let scan = artifact::scan(artifact_path)?;
        let (matched, baselines) = validate_prefix(spec, &scan.records)?;
        // A non-empty file whose first record is not this campaign's
        // header is someone else's data; truncating it would destroy it.
        // (A torn-header artifact also lands here — it holds nothing
        // recoverable, so refusing with a clear message is the safe
        // default; delete the file to start over.)
        if matched == 0 && std::fs::metadata(artifact_path)?.len() > 0 {
            return Err(RunError::NotAnArtifact(artifact_path.to_path_buf()));
        }
        (Some(scan), matched, baselines)
    } else {
        (None, 0, HashMap::new())
    };

    // Problems are built on first use — expand() only touches the ones
    // whose baselines are not already stored in the artifact.
    let problems = ProblemCache::new(spec);
    let mut plan = expand(spec, &problems, &known_baselines, opts.quiet)?;

    let n_preamble = 1 + spec.problems.len() + plan.baseline_keys.len();
    let completed_units = matched.saturating_sub(n_preamble);
    // Build every problem whose record is still missing before the file
    // is touched, so one that cannot be built leaves the file as it was.
    for i in matched.max(1)..=spec.problems.len() {
        problems.get(i - 1)?;
    }

    // Truncate the file to the matched prefix and open for append.
    let file = if let Some(scan) = &scan {
        let keep = if matched == 0 { 0 } else { scan.ends[matched - 1] };
        let file = std::fs::OpenOptions::new().write(true).open(artifact_path)?;
        file.set_len(keep)?;
        let mut f = file;
        use std::io::Seek;
        f.seek(std::io::SeekFrom::End(0))?;
        f
    } else {
        std::fs::File::create(artifact_path)?
    };
    let mut out = std::io::BufWriter::new(file);

    // Complete the preamble, constructing only the missing records —
    // problem characterization (norm_fro, optional norm2 power
    // iteration) is skipped entirely for records already on disk.
    let n_problems = spec.problems.len();
    for i in matched..n_preamble {
        let rec = if i == 0 {
            Record::Header { spec: spec.clone() }
        } else if i <= n_problems {
            problem_record(spec, i - 1, problems.get(i - 1)?)
        } else {
            let b = i - 1 - n_problems;
            let (pidx, lsq) = plan.baseline_keys[b];
            Record::Baseline {
                problem: pidx,
                lsq,
                outer_iterations: plan.baseline_outers[b],
                converged: true,
            }
        };
        artifact::append(&mut out, &rec)?;
        if let Some(hook) = &opts.on_record {
            hook(&rec);
        }
    }
    out.flush()?;

    // Shard and run the remaining units.
    let todo = &plan.units[completed_units.min(plan.units.len())..];

    // One problem, solver configuration and preconditioner per scenario,
    // built once — but not at all when the artifact is already complete.
    let ft_configs: Vec<(&Problem, FtGmresConfig, &BuiltPrecond)> = if todo.is_empty() {
        Vec::new()
    } else {
        plan.scenarios
            .iter()
            .map(|s| {
                let (p, pc) = (problems.get(s.problem)?, problems.precond(s.problem)?);
                Ok((p, spec.campaign_config(s).ft_config_with(&p.a, pc), pc))
            })
            .collect::<Result<_, RunError>>()?
    };
    let budget = opts.max_units.unwrap_or(usize::MAX);
    let mut ran = 0usize;
    let traced = opts.trace_out.is_some();
    // The clean solves units fork from. Traced units run from scratch and
    // need none; a resume re-solves the baselines it read from the
    // artifact only if untraced units still need them.
    if traced {
        plan.cleans.iter_mut().for_each(|c| *c = None);
    } else {
        for u in todo {
            let key = plan.scenario_keys[u.scenario_idx];
            if plan.cleans[key].is_none() {
                let (pidx, lsq) = plan.baseline_keys[key];
                plan.cleans[key] =
                    Some(clean_run(problems.get(pidx)?, &spec.baseline_config(lsq)).1);
            }
        }
    }
    let snapshot_bytes = plan.cleans.iter().flatten().map(CleanFtGmres::bytes).sum();
    let (mut outer_iterations, mut outer_skipped) = (0usize, 0usize);
    let mut trace_file = match &opts.trace_out {
        Some(p) => Some(std::io::BufWriter::new(std::fs::File::create(p)?)),
        None => None,
    };
    for shard in todo.chunks(opts.shard_size.max(1)) {
        if ran >= budget {
            break;
        }
        let shard = &shard[..shard.len().min(budget - ran)];
        if !opts.quiet {
            eprintln!(
                "[campaign] shard: units {}..{} of {}",
                shard[0].index,
                shard[shard.len() - 1].index + 1,
                plan.units.len()
            );
        }
        let records: Vec<(Record, Option<String>, usize)> =
            sdc_parallel::par_map(shard.len(), |i| {
                let u = &shard[i];
                let s = plan.scenarios[u.scenario_idx];
                let point = CampaignPoint {
                    aggregate_iteration: u.aggregate,
                    inner_per_outer: spec.inner_iters,
                    class: s.class,
                    position: s.position,
                };
                let (p, ft, pc) = &ft_configs[u.scenario_idx];
                let clean = plan.cleans[plan.scenario_keys[u.scenario_idx]].as_ref();
                let solve = || run_experiment(p, ft, point, spec.format, pc, clean);
                // Per-unit capture on the claiming thread: the solve
                // orchestration (and thus every Det event) runs here, so
                // the captured lines are independent of the thread count.
                let (measured, trace) = if traced {
                    let sink = std::sync::Arc::new(sdc_obs::trace::TraceSink::new());
                    let m = sdc_obs::with_local(sink.clone(), solve);
                    (m, Some(sink.det_bytes()))
                } else {
                    (solve(), None)
                };
                let rec = Record::Experiment {
                    unit: u.index,
                    scenario: s,
                    seed: unit_seed(spec.seed, u.index as u64),
                    point: measured,
                };
                (rec, trace, clean.map_or(0, |c| fork_boundary(c, ft, point) - 1))
            });
        for (rec, trace, skipped) in &records {
            if let Record::Experiment { point, .. } = rec {
                outer_iterations += point.outer_iterations;
            }
            outer_skipped += skipped;
            artifact::append(&mut out, rec)?;
            if let Some(hook) = &opts.on_record {
                hook(rec);
            }
            if let (Some(tf), Some(trace), Record::Experiment { unit, seed, point, .. }) =
                (trace_file.as_mut(), trace, rec)
            {
                writeln!(
                    tf,
                    "{{\"aggregate\":{},\"ev\":\"campaign.unit\",\"seed\":{},\"unit\":{}}}",
                    point.aggregate, seed, unit
                )?;
                tf.write_all(trace.as_bytes())?;
            }
        }
        out.flush()?;
        if let Some(tf) = trace_file.as_mut() {
            tf.flush()?;
        }
        ran += shard.len();
    }

    Ok(RunSummary {
        total_units: plan.units.len(),
        skipped_units: completed_units.min(plan.units.len()),
        ran_units: ran,
        remaining_units: plan.units.len() - completed_units.min(plan.units.len()) - ran,
        snapshot_bytes,
        outer_iterations,
        outer_skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, ProblemSpec};
    use crate::sweep::SweepPoint;
    use sdc_gmres::prelude::PrecondKind;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            inner_iters: 8,
            outer_tol: 1e-8,
            outer_max: 60,
            stride: 5,
            ..CampaignSpec::paper_shape("tiny", vec![ProblemSpec::Poisson { m: 8 }])
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sdc_exec_{}_{name}.jsonl", std::process::id()))
    }

    #[test]
    fn unit_seed_is_stable_and_spread() {
        assert_eq!(unit_seed(42, 0), unit_seed(42, 0));
        assert_ne!(unit_seed(42, 0), unit_seed(42, 1));
        assert_ne!(unit_seed(42, 0), unit_seed(43, 0));
        // Golden value: the derivation is part of the artifact contract.
        assert_eq!(unit_seed(0, 0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn fresh_run_completes_and_is_ordered() {
        let path = tmp("fresh");
        std::fs::remove_file(&path).ok();
        let spec = tiny_spec();
        let sum =
            run(&spec, &path, false, &RunOptions { quiet: true, ..Default::default() }).unwrap();
        assert!(sum.is_complete());
        assert_eq!(sum.skipped_units, 0);
        assert_eq!(sum.ran_units, sum.total_units);

        let scan = artifact::scan(&path).unwrap();
        assert!(!scan.dirty_tail);
        // Header + 1 problem + 1 baseline + all units.
        assert_eq!(scan.records.len(), 2 + 1 + sum.total_units);
        let mut expect_unit = 0usize;
        for rec in &scan.records {
            if let Record::Experiment { unit, .. } = rec {
                assert_eq!(*unit, expect_unit, "units must be in canonical order");
                expect_unit += 1;
            }
        }
        // Second run without resume refuses to clobber.
        assert!(matches!(
            run(&spec, &path, false, &RunOptions { quiet: true, ..Default::default() }),
            Err(RunError::AlreadyExists(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interrupted_then_resumed_is_byte_identical() {
        let spec = tiny_spec();
        let quiet = RunOptions { quiet: true, ..Default::default() };

        let full_path = tmp("full");
        std::fs::remove_file(&full_path).ok();
        run(&spec, &full_path, false, &quiet).unwrap();
        let full = std::fs::read(&full_path).unwrap();

        // Stop after 7 units (mid-shard), then resume.
        let part_path = tmp("part");
        std::fs::remove_file(&part_path).ok();
        let sum = run(
            &spec,
            &part_path,
            false,
            &RunOptions { quiet: true, max_units: Some(7), shard_size: 5, ..Default::default() },
        )
        .unwrap();
        assert_eq!(sum.ran_units, 7);
        assert!(!sum.is_complete());

        // Simulate the kill landing mid-write: chop 11 bytes off the tail.
        let bytes = std::fs::read(&part_path).unwrap();
        std::fs::write(&part_path, &bytes[..bytes.len() - 11]).unwrap();

        let sum = run(&spec, &part_path, true, &quiet).unwrap();
        assert!(sum.is_complete());
        assert!(sum.skipped_units >= 6, "most finished units survive the kill");
        let resumed = std::fs::read(&part_path).unwrap();
        assert_eq!(resumed, full, "resumed artifact must be byte-identical");

        // Resume of a complete artifact is a no-op.
        let sum = run(&spec, &part_path, true, &quiet).unwrap();
        assert_eq!(sum.ran_units, 0);
        assert_eq!(sum.skipped_units, sum.total_units);
        assert_eq!(std::fs::read(&part_path).unwrap(), full);

        std::fs::remove_file(&full_path).ok();
        std::fs::remove_file(&part_path).ok();
    }

    #[test]
    fn complete_resume_is_lazy_and_never_rebuilds_problems() {
        // Run a campaign on a Matrix Market problem, then delete the
        // .mtx. A record-complete resume must still succeed: nothing in
        // the no-op path may load or characterize the matrix again.
        let mtx = std::env::temp_dir().join(format!("sdc_exec_lazy_{}.mtx", std::process::id()));
        sdc_sparse::io::write_matrix_market(&mtx, &sdc_sparse::gallery::poisson2d(6)).unwrap();
        let spec = CampaignSpec {
            inner_iters: 6,
            outer_tol: 1e-8,
            outer_max: 60,
            stride: 9,
            ..CampaignSpec::paper_shape(
                "lazy",
                vec![ProblemSpec::MatrixMarket { path: mtx.clone(), equilibrate: false }],
            )
        };
        let path = tmp("lazy");
        std::fs::remove_file(&path).ok();
        let quiet = RunOptions { quiet: true, ..Default::default() };
        run(&spec, &path, false, &quiet).unwrap();
        let before = std::fs::read(&path).unwrap();

        std::fs::remove_file(&mtx).unwrap();
        let sum = run(&spec, &path, true, &quiet).unwrap();
        assert_eq!(sum.ran_units, 0);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unbuildable_precond_is_an_invalid_spec_not_a_panic() {
        // Row 2 has no diagonal entry, so ILU(0) cannot be built on it.
        let mtx = std::env::temp_dir().join(format!("sdc_exec_nodiag_{}.mtx", std::process::id()));
        let nodiag = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4\n2 1 -1\n";
        std::fs::write(&mtx, nodiag).unwrap();
        let spec = CampaignSpec {
            precond: PrecondKind::Ilu0,
            ..CampaignSpec::paper_shape(
                "nodiag",
                vec![ProblemSpec::MatrixMarket { path: mtx.clone(), equilibrate: false }],
            )
        };
        let quiet = RunOptions { quiet: true, ..Default::default() };
        let expect_invalid = |r: Result<RunSummary, RunError>| match r {
            Err(RunError::InvalidSpec(msg)) => {
                assert!(msg.contains("ilu0") && msg.contains("problem 0"), "{msg}")
            }
            other => panic!("{other:?}"),
        };

        // A fresh run fails at its first baseline, before creating the file.
        let path = tmp("nodiag");
        std::fs::remove_file(&path).ok();
        expect_invalid(run(&spec, &path, false, &quiet));
        assert!(!path.exists());

        // A resume whose artifact already holds every baseline fails
        // before its first fork clean, and leaves the file as it was.
        let problems = ProblemCache::new(&spec);
        let mut preamble = vec![
            Record::Header { spec: spec.clone() },
            problem_record(&spec, 0, problems.get(0).unwrap()),
        ];
        for (problem, lsq) in spec.baseline_keys() {
            preamble.push(Record::Baseline { problem, lsq, outer_iterations: 3, converged: true });
        }
        let text: String = preamble.iter().map(|r| r.to_line() + "\n").collect();
        std::fs::write(&path, &text).unwrap();
        expect_invalid(run(&spec, &path, true, &quiet));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn unbuildable_problem_is_an_invalid_spec_not_a_panic() {
        let bad = std::env::temp_dir().join(format!("sdc_exec_bad_{}.mtx", std::process::id()));
        std::fs::write(&bad, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 4\n")
            .unwrap();
        let missing = std::env::temp_dir().join("sdc_exec_no_such_dir/missing.mtx");
        let cases = [
            (ProblemSpec::MatrixMarket { path: missing, equilibrate: false }, "cannot read"),
            (ProblemSpec::MatrixMarket { path: bad.clone(), equilibrate: true }, "parse error"),
            (ProblemSpec::Dcop { nodes: 1, seed: 7 }, "dcop needs at least 2 nodes, got 1"),
            (ProblemSpec::Poisson { m: 1_000_000_000 }, "poisson m=1000000000 is above"),
        ];
        let quiet = RunOptions { quiet: true, ..Default::default() };
        for (problem, reason) in cases {
            let spec = CampaignSpec::paper_shape("bad", vec![problem]);
            let path = tmp("bad_problem");
            std::fs::remove_file(&path).ok();
            match run(&spec, &path, false, &quiet) {
                Err(RunError::InvalidSpec(msg)) => assert!(
                    msg.starts_with("problem 0 cannot be built: ") && msg.contains(reason),
                    "{msg}"
                ),
                other => panic!("{other:?}"),
            }
            assert!(!path.exists(), "a spec that cannot be built must not create the artifact");
        }
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn on_record_hook_sees_exactly_the_appended_lines() {
        use std::sync::{Arc, Mutex};
        let spec = tiny_spec();
        let path = tmp("hook");
        std::fs::remove_file(&path).ok();

        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let opts = RunOptions {
            quiet: true,
            on_record: Some(Arc::new(move |r: &Record| {
                sink.lock().unwrap().push(r.to_line());
            })),
            ..Default::default()
        };
        run(&spec, &path, false, &opts).unwrap();

        // The hook saw every line of the artifact, in order.
        let file_lines: Vec<String> =
            std::fs::read_to_string(&path).unwrap().lines().map(String::from).collect();
        assert_eq!(*seen.lock().unwrap(), file_lines);

        // A complete resume appends nothing, so the hook stays silent.
        seen.lock().unwrap().clear();
        run(&spec, &path, true, &opts).unwrap();
        assert!(seen.lock().unwrap().is_empty(), "no-op resume must not replay records");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_to_overwrite_non_artifact_files() {
        let path = tmp("notours");
        std::fs::write(&path, "important notes, not an artifact\n").unwrap();
        let quiet = RunOptions { quiet: true, ..Default::default() };
        let err = run(&tiny_spec(), &path, true, &quiet).unwrap_err();
        assert!(matches!(err, RunError::NotAnArtifact(_)), "{err}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "important notes, not an artifact\n",
            "the file must be untouched"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_spec_errors_instead_of_panicking() {
        let path = tmp("stride0");
        std::fs::remove_file(&path).ok();
        let spec = CampaignSpec { stride: 0, ..tiny_spec() };
        let quiet = RunOptions { quiet: true, ..Default::default() };
        let err = run(&spec, &path, false, &quiet).unwrap_err();
        assert!(matches!(err, RunError::InvalidSpec(_)), "{err}");
        assert!(!path.exists(), "no artifact may be created for a broken spec");
    }

    #[test]
    fn resume_rejects_foreign_spec() {
        let path = tmp("foreign");
        std::fs::remove_file(&path).ok();
        let quiet = RunOptions { quiet: true, ..Default::default() };
        run(&tiny_spec(), &path, false, &quiet).unwrap();

        let mut other = tiny_spec();
        other.stride = 3;
        assert!(matches!(run(&other, &path, true, &quiet), Err(RunError::SpecMismatch(_))));
        std::fs::remove_file(&path).ok();
    }

    /// Runs `spec` and checks every experiment record against the
    /// from-scratch `run_sweep` point, field for field.
    fn assert_matches_raw_sweep(spec: &CampaignSpec, tag: &str) -> RunSummary {
        use crate::sweep::{failure_free, run_sweep};
        let path = tmp(tag);
        std::fs::remove_file(&path).ok();
        let quiet = RunOptions { quiet: true, ..Default::default() };
        let summary = run(spec, &path, false, &quiet).unwrap();
        let scan = artifact::scan(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let p = spec.problems[0].build();
        for s in spec.scenarios() {
            let ff = failure_free(&p, &spec.baseline_config(s.lsq));
            let cfg = spec.campaign_config(&s);
            let reference = run_sweep(&p, &cfg, s.class, s.position, ff.iterations);
            let artifact_points: Vec<SweepPoint> = scan
                .records
                .iter()
                .filter_map(|rec| match rec {
                    Record::Experiment { scenario, point, .. } if *scenario == s => Some(*point),
                    _ => None,
                })
                .collect();
            assert_eq!(artifact_points.len(), reference.points.len(), "{s:?}");
            for (a, b) in artifact_points.iter().zip(&reference.points) {
                assert_eq!(a, b, "{s:?}");
                assert_eq!(a.true_rel_residual.to_bits(), b.true_rel_residual.to_bits(), "{s:?}");
            }
        }
        summary
    }

    #[test]
    fn executor_matches_raw_sweep() {
        // The forked artifact path and the from-scratch run_sweep path
        // must agree experiment for experiment, in every scenario
        // (undetected and restart_inner).
        let summary = assert_matches_raw_sweep(&tiny_spec(), "parity");
        assert!(summary.outer_skipped > 0, "nothing was forked: {summary:?}");
        assert!(summary.snapshot_bytes > 0, "{summary:?}");
    }

    #[test]
    fn preconditioned_executor_matches_raw_sweep() {
        let spec = CampaignSpec { inner_iters: 3, precond: PrecondKind::Chebyshev, ..tiny_spec() };
        let summary = assert_matches_raw_sweep(&spec, "parity_cheb");
        assert!(summary.outer_skipped > 0, "nothing was forked: {summary:?}");
    }

    #[test]
    fn traced_units_run_from_scratch() {
        let path = tmp("traced_scratch");
        let trace = tmp("traced_scratch_det");
        std::fs::remove_file(&path).ok();
        let opts = RunOptions { quiet: true, trace_out: Some(trace.clone()), ..Default::default() };
        let summary = run(&tiny_spec(), &path, false, &opts).unwrap();
        assert_eq!((summary.outer_skipped, summary.snapshot_bytes), (0, 0));
        assert!(summary.outer_iterations > 0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn detector_that_fires_on_the_clean_run_bounds_the_fork() {
        // A detector bound below the clean run's |h| in inner solve k+1
        // (and above it in 1..=k) makes that inner solve differ from the
        // clean one: units fork no later than outer k+1, and a bound
        // below inner solve 1 sends every unit back to from scratch.
        // Either way the points equal the from-scratch ones.
        use crate::sweep::{clean_run, fork_boundary};
        use sdc_gmres::prelude::{DetectorResponse, SdcDetector};
        let spec = tiny_spec();
        let p = spec.problems[0].build();
        let cfg = spec.baseline_config(LsqSpec::Standard);
        let (ff, clean) = clean_run(&p, &cfg);
        let maxima = clean.inner_max_abs_h();
        assert_eq!(maxima.len(), ff.iterations);
        // k: the first inner solve (0-based, k ≥ 1) whose max exceeds
        // every earlier one.
        let k = (1..maxima.len())
            .find(|&k| maxima[..k].iter().all(|&m| m < maxima[k]))
            .expect("Poisson's |h| grows past its first inner solve");
        let below_first = maxima[0] / 2.0;
        let below_k = maxima[..k].iter().copied().fold(0.0, f64::max);
        let pc = cfg.precond(&p);
        for (bound, last_fork) in [(below_first, 1), (below_k, k + 1)] {
            for response in [DetectorResponse::Record, DetectorResponse::RestartInner] {
                let ft = FtGmresConfig {
                    inner_detector: Some(SdcDetector { bound, response }),
                    ..cfg.ft_config(&p.a)
                };
                for aggregate in spec.unit_domain(ff.iterations) {
                    let point = CampaignPoint {
                        aggregate_iteration: aggregate,
                        inner_per_outer: spec.inner_iters,
                        class: sdc_faults::FaultClass::Slight,
                        position: sdc_faults::MgsPosition::First,
                    };
                    let o = fork_boundary(&clean, &ft, point);
                    assert_eq!(o, point.inner_solve().min(last_fork), "aggregate {aggregate}");
                    let forked = run_experiment(&p, &ft, point, spec.format, pc, Some(&clean));
                    let scratch = run_experiment(&p, &ft, point, spec.format, pc, None);
                    assert_eq!(forked, scratch, "bound {bound} {response:?} @{aggregate}");
                    assert_eq!(
                        forked.true_rel_residual.to_bits(),
                        scratch.true_rel_residual.to_bits()
                    );
                }
            }
        }
    }
}
