//! `fig3_campaign`: the paper's Figure 3 campaign (§VII) through
//! `sdc_campaigns::run` — FT-GMRES on Poisson 100², 25 inner iterations,
//! one fault-free baseline plus 8 single-SDC scenarios (3 classes ×
//! first/last MGS undetected, class 1 × first/last with the detector),
//! each swept over the aggregate inner iterations at stride
//! [`STRIDE`]. Parallelism is per experiment; each solve is serial.

use crate::probe::{count_events, EventCounts, TimedInjector, TimedOp};
use crate::report::{fnv1a64, median, tail, timed_setup, Report, Rng};
use crate::sys::{peak_rss_mb, Span};
use crate::Ctx;
use sdc_campaigns::artifact::Record;
use sdc_campaigns::{
    CampaignConfig, CampaignSpec, DetectorPolicy, LsqSpec, Problem, ProblemSpec, RunOptions,
    Scenario, SweepPoint,
};
use sdc_faults::campaign::{CampaignPoint, FaultClass};
use sdc_faults::{FaultInjector, NoFaults};
use sdc_gmres::ftgmres::{ftgmres_solve_precond, FtGmresConfig};
use sdc_gmres::operator::{residual, LinearOperator};
use sdc_gmres::precond::PrecondKind;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Sweep stride over the 225 aggregate inner iterations: 25 sites per
/// scenario, 200 experiments per campaign (the full figure is stride 1).
pub const STRIDE: usize = 9;

/// Failure-free outer iterations of the paper's Poisson 100² solve.
const FAILURE_FREE_OUTER: usize = 9;

/// Artifact digest (FNV-1a 64 of the JSONL bytes) of the campaign for
/// [`crate::DEFAULT_SEED`]. The artifact is a pure function of the spec
/// at any thread count, so this pins every sweep point.
const DEFAULT_SEED_DIGEST: u64 = 0x6153_8522_8b5d_5d5d;

/// Fault-free FT-GMRES solves per preconditioner and round (`tts_s.*`).
const TTS_PER_ROUND: usize = 4;

/// Single experiments in the closed-loop latency probe.
const PROBE_EXPERIMENTS: usize = 128;

/// The preconditioners timed on the fig3 problem.
const KINDS: [PrecondKind; 3] = [PrecondKind::None, PrecondKind::Ilu0, PrecondKind::Chebyshev];

/// The benchmark's campaign spec for `seed`.
pub fn spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        stride: STRIDE,
        seed,
        ..CampaignSpec::paper_shape("fig3", vec![ProblemSpec::Poisson { m: 100 }])
    }
}

/// Inputs built before the timed phase.
struct Setup {
    spec: CampaignSpec,
    problem: Problem,
    /// FT-GMRES configuration per scenario (detector bounds included).
    scenario_ft: Vec<FtGmresConfig>,
    /// Fault-free FT-GMRES configuration per entry of [`KINDS`].
    kind_ft: Vec<FtGmresConfig>,
}

fn setup(seed: u64) -> Setup {
    let spec = spec(seed);
    let problem = spec.problems[0].build();
    // Lazy work the timed solves would otherwise pay on first use: the
    // SELL conversion, the preconditioner builds and the detector bounds.
    problem.operator(spec.format);
    let none = problem.precond(PrecondKind::None).expect("identity");
    let scenario_ft = spec
        .scenarios()
        .iter()
        .map(|s| spec.campaign_config(s).ft_config_with(&problem.a, none))
        .collect();
    let kind_ft = KINDS
        .iter()
        .map(|&kind| {
            let pc = problem.precond(kind).expect("Poisson factors cleanly");
            let cfg = CampaignConfig { precond: kind, ..spec.baseline_config(LsqSpec::Standard) };
            cfg.ft_config_with(&problem.a, pc)
        })
        .collect();
    Setup { spec, problem, scenario_ft, kind_ft }
}

/// One experiment rebuilt from public pieces: exactly what the campaign
/// executor computes for `point`, with `op` and `injector` supplied by
/// the caller (plain or wrapped).
fn experiment(
    p: &Problem,
    op: &dyn LinearOperator,
    ft: &FtGmresConfig,
    kind: PrecondKind,
    aggregate: usize,
    injector: &dyn FaultInjector,
) -> SweepPoint {
    let pc = p.precond(kind).expect("built in set-up");
    let (x, rep) = ftgmres_solve_precond(op, &p.b, None, ft, pc, injector);
    let mut r = vec![0.0; p.b.len()];
    residual(&p.a, &p.b, &x, &mut r);
    let true_rel = sdc_dense::vector::nrm2(&r) / sdc_dense::vector::nrm2(&p.b).max(1e-300);
    SweepPoint {
        aggregate,
        outer_iterations: rep.iterations,
        converged: rep.outcome.is_converged(),
        injected: !rep.injections.is_empty(),
        detected: rep.detected_anything(),
        restarts: rep.detector_restarts,
        true_rel_residual: true_rel,
    }
}

fn point(spec: &CampaignSpec, s: &Scenario, aggregate: usize) -> CampaignPoint {
    CampaignPoint {
        aggregate_iteration: aggregate,
        inner_per_outer: spec.inner_iters,
        class: s.class,
        position: s.position,
    }
}

/// Largest acceptable true relative residual of a converged solve: the
/// outer solver's own acceptance slack times the tolerance.
fn residual_limit(spec: &CampaignSpec) -> f64 {
    sdc_gmres::fgmres::FgmresConfig::default().final_check_slack * spec.outer_tol
}

/// What the artifact says, after checking it.
struct Artifact {
    bytes: Vec<u8>,
    /// (scenario, aggregate) → sweep point.
    points: HashMap<(Scenario, usize), SweepPoint>,
    experiments: usize,
    injected: usize,
    /// Class-1 detector experiments: (injected, detected).
    class1_detector: (usize, usize),
}

/// Runs the campaign once into a fresh artifact under the work dir.
fn run_campaign(ctx: &Ctx, spec: &CampaignSpec, tag: &str) -> Result<(f64, f64, Vec<u8>), String> {
    let path = ctx.work.join(format!("fig3-{}-{tag}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    let span = Span::start(std::process::id());
    let run =
        sdc_campaigns::run(spec, &path, false, &RunOptions { quiet: true, ..Default::default() });
    let (wall, cpu) = span.stop();
    let bytes = std::fs::read(&path);
    std::fs::remove_file(&path).ok();
    let summary = run.map_err(|e| format!("campaign run failed: {e}"))?;
    if !summary.is_complete() {
        return Err(format!("campaign incomplete: {summary:?}"));
    }
    Ok((wall, cpu, bytes.map_err(|e| format!("artifact unreadable: {e}"))?))
}

/// Parses and checks an artifact: the failure-free baseline takes 9
/// outer iterations, every experiment converges to within the residual
/// limit, and the detector catches every committed class-1 fault.
fn check_artifact(rep: &mut Report, spec: &CampaignSpec, bytes: Vec<u8>) -> Artifact {
    let text = String::from_utf8_lossy(&bytes).into_owned();
    let limit = residual_limit(spec);
    let mut art = Artifact {
        bytes,
        points: HashMap::new(),
        experiments: 0,
        injected: 0,
        class1_detector: (0, 0),
    };
    let mut baseline_seen = false;
    for line in text.lines() {
        let rec = Record::parse(line);
        rep.check(rec.is_ok(), || format!("unparseable artifact line: {line}"));
        match rec {
            Ok(Record::Baseline { outer_iterations, converged, .. }) => {
                baseline_seen = true;
                rep.check(converged && outer_iterations == FAILURE_FREE_OUTER, || {
                    format!("failure-free baseline took {outer_iterations} outer (want 9)")
                });
            }
            Ok(Record::Experiment { scenario, point, .. }) => {
                art.experiments += 1;
                art.injected += usize::from(point.injected);
                rep.check(point.converged && point.true_rel_residual <= limit, || {
                    format!("experiment {scenario:?} @{}: {point:?}", point.aggregate)
                });
                if scenario.class == FaultClass::Huge
                    && scenario.detector != DetectorPolicy::Off
                    && point.injected
                {
                    art.class1_detector.0 += 1;
                    art.class1_detector.1 += usize::from(point.detected);
                    rep.check(point.detected, || {
                        format!(
                            "class-1 fault escaped the detector: {scenario:?} @{}",
                            point.aggregate
                        )
                    });
                }
                art.points.insert((scenario, point.aggregate), point);
            }
            _ => {}
        }
    }
    let sites = spec.unit_domain(FAILURE_FREE_OUTER).count();
    let want = spec.scenarios().len() * sites;
    rep.check(baseline_seen && art.experiments == want, || {
        format!("artifact holds {} experiments (want {want})", art.experiments)
    });
    rep.check(art.class1_detector.0 > 0, || "no class-1 detector experiment was injected".into());
    art
}

fn same_point(a: &SweepPoint, b: &SweepPoint) -> bool {
    a.aggregate == b.aggregate
        && a.outer_iterations == b.outer_iterations
        && a.converged == b.converged
        && a.injected == b.injected
        && a.detected == b.detected
        && a.restarts == b.restarts
        && a.true_rel_residual.to_bits() == b.true_rel_residual.to_bits()
}

/// Runs `body(i)` for `i in 0..n` on the work pool (each call runs its
/// own kernels inline, like a campaign experiment) and collects results
/// in index order.
fn par_collect<T: Send>(n: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    sdc_parallel::run_pieces(n, &|i| {
        let v = body(i);
        *slots[i].lock().expect("result slot poisoned") = Some(v);
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned").expect("every piece ran"))
        .collect()
}

/// The untraced run.
pub fn run(ctx: &Ctx, rep: &mut Report) {
    let (setup_s, s) = timed_setup(crate::SETUP_REPEATS, || setup(ctx.seed));
    rep.set("setup_s", setup_s);
    let spec = &s.spec;
    let p = &s.problem;
    let op = p.operator(spec.format);
    let scenarios = spec.scenarios();
    let limit = residual_limit(spec);
    let mut rng = Rng::new(ctx.seed, 3);

    // The closed-loop latency probe: single experiments anywhere in the
    // full 225-site domain, `threads` at a time. Systematic sampling with
    // a seeded phase: every scenario gets the same number of sites spread
    // evenly over the solve, so the seed moves the sites but not the mix.
    let sites = spec.inner_iters * FAILURE_FREE_OUTER;
    let per_scenario = PROBE_EXPERIMENTS / scenarios.len();
    let step = sites / per_scenario;
    let mut draws: Vec<(usize, usize)> = (0..scenarios.len())
        .flat_map(|si| {
            let phase = 1 + rng.below(step);
            (0..per_scenario).map(move |j| (si, phase + j * step))
        })
        .collect();
    rng.shuffle(&mut draws);

    // Rounds of (campaign, fault-free solves per preconditioner, a slice
    // of the probe), so every metric samples the whole run.
    let rounds = ((0.16 * ctx.seconds).round() as usize).max(2);
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut tts = vec![Vec::new(); KINDS.len()];
    let mut probe = Vec::new();
    let mut probe_wall = 0.0;
    let mut art: Option<Artifact> = None;
    for r in 0..rounds {
        let (wall, cpu, bytes) = match run_campaign(ctx, spec, &r.to_string()) {
            Ok(v) => v,
            Err(e) => return rep.check(false, || e),
        };
        walls.push(wall);
        cpus.push(cpu);
        match &art {
            None => art = Some(check_artifact(rep, spec, bytes)),
            Some(a) => {
                rep.check(a.bytes == bytes, || "artifact bytes differ between repeats".into())
            }
        }

        let mut order: Vec<usize> = (0..KINDS.len()).flat_map(|k| [k; TTS_PER_ROUND]).collect();
        rng.shuffle(&mut order);
        for k in order {
            let t = Instant::now();
            let pt = experiment(p, op, &s.kind_ft[k], KINDS[k], 0, &NoFaults);
            tts[k].push(t.elapsed().as_secs_f64());
            rep.check(pt.converged && pt.true_rel_residual <= limit, || {
                format!("fault-free {} solve: {pt:?}", KINDS[k])
            });
        }

        let slice = &draws[r * draws.len() / rounds..(r + 1) * draws.len() / rounds];
        let t_probe = Instant::now();
        let results = par_collect(slice.len(), |i| {
            let (si, agg) = slice[i];
            let inj = point(spec, &scenarios[si], agg).injector();
            let t = Instant::now();
            let pt = experiment(p, op, &s.scenario_ft[si], PrecondKind::None, agg, &inj);
            (t.elapsed().as_secs_f64() * 1e3, pt)
        });
        probe_wall += t_probe.elapsed().as_secs_f64();
        probe.extend(slice.iter().copied().zip(results));
    }

    let art = art.expect("at least one campaign ran");
    let digest = fnv1a64(&art.bytes);
    rep.note(format!(
        "# fig3_campaign: stride {STRIDE}, {} experiments/campaign, {rounds} rounds, artifact fnv1a64 {digest:#018x}",
        art.experiments
    ));
    if ctx.seed == crate::DEFAULT_SEED {
        rep.check(digest == DEFAULT_SEED_DIGEST, || {
            format!("default-seed artifact digest {digest:#018x} != recorded {DEFAULT_SEED_DIGEST:#018x}")
        });
    }
    let (c1_inj, c1_det) = art.class1_detector;
    rep.note(format!("# class-1 detector coverage: {c1_det}/{c1_inj} committed faults detected"));
    for (k, name) in ["tts_s.none", "tts_s.ilu0", "tts_s.chebyshev"].into_iter().enumerate() {
        rep.set(name, median(&tts[k]));
    }
    for ((si, agg), (_, pt)) in &probe {
        rep.check(pt.converged && pt.true_rel_residual <= limit, || {
            format!("probe experiment {:?} @{agg}: {pt:?}", scenarios[*si])
        });
        if let Some(a) = art.points.get(&(scenarios[*si], *agg)) {
            rep.check(same_point(a, pt), || format!("probe @{agg} differs from the artifact"));
        }
    }
    let lat: Vec<f64> = probe.iter().map(|(_, r)| r.0).collect();
    let (t_ms, t_pct, t_n) = tail(&lat);
    rep.note(format!("# experiment latency tail: p{t_pct:.1} of {t_n} = {t_ms:.3} ms"));

    let wall = median(&walls);
    rep.set("wall_s", wall);
    rep.set("cpu_s", median(&cpus));
    rep.set("experiments_per_s", art.experiments as f64 / wall);
    rep.set("latency_p50_ms", median(&lat));
    rep.set("latency_tail_ms", t_ms);
    rep.set("capacity_rps", probe.len() as f64 / probe_wall);
    rep.set("peak_rss_mb", peak_rss_mb(std::process::id()));
}

/// Per-experiment measurements of the traced rebuild.
struct Traced {
    ms: f64,
    spmv_calls: u64,
    spmv_ms: f64,
    inject_calls: u64,
    inject_ms: f64,
    events: EventCounts,
    point: SweepPoint,
}

/// The traced run: one untraced campaign for reference, then every
/// experiment (and the baseline) rebuilt from public pieces with
/// wrapped operator and injector, compared bit for bit with the
/// artifact.
pub fn run_traced(ctx: &Ctx, rep: &mut Report) {
    let s = setup(ctx.seed);
    let spec = &s.spec;
    let p = &s.problem;
    let op = p.operator(spec.format);
    let (wall, cpu, bytes) = match run_campaign(ctx, spec, "ref") {
        Ok(v) => v,
        Err(e) => {
            rep.check(false, || e);
            return;
        }
    };
    let art = check_artifact(rep, spec, bytes);
    let threads = sdc_parallel::threads() as f64;

    let none = PrecondKind::None;
    let base_cfg = spec.baseline_config(LsqSpec::Standard);
    let base_ft = base_cfg.ft_config_with(&p.a, p.precond(none).expect("identity"));
    let t = Instant::now();
    let base = experiment(p, op, &base_ft, none, 0, &NoFaults);
    let baseline_s = t.elapsed().as_secs_f64();
    rep.check(base.converged && base.outer_iterations == FAILURE_FREE_OUTER, || {
        format!("rebuilt baseline: {base:?}")
    });

    // Every experiment rebuilt twice from public pieces: plainly (the
    // per-experiment times) and wrapped (the layer split). Both must
    // reproduce the artifact's sweep points bit for bit.
    let scenarios = spec.scenarios();
    let units: Vec<(usize, usize)> = (0..scenarios.len())
        .flat_map(|si| spec.unit_domain(FAILURE_FREE_OUTER).map(move |agg| (si, agg)))
        .collect();
    let t_plain = Instant::now();
    let plain = par_collect(units.len(), |i| {
        let (si, agg) = units[i];
        let inj = point(spec, &scenarios[si], agg).injector();
        let t = Instant::now();
        let pt = experiment(p, op, &s.scenario_ft[si], none, agg, &inj);
        (t.elapsed().as_secs_f64() * 1e3, pt)
    });
    let plain_wall = t_plain.elapsed().as_secs_f64();
    let t_rebuild = Instant::now();
    let traced = par_collect(units.len(), |i| {
        let (si, agg) = units[i];
        let inner = point(spec, &scenarios[si], agg).injector();
        let inj = TimedInjector::new(&inner);
        let wrapped = TimedOp::new(op);
        let t = Instant::now();
        let (pt, events) =
            count_events(|| experiment(p, &wrapped, &s.scenario_ft[si], none, agg, &inj));
        Traced {
            ms: t.elapsed().as_secs_f64() * 1e3,
            spmv_calls: wrapped.spmv.calls(),
            spmv_ms: wrapped.spmv.ms(),
            inject_calls: inj.corrupt.calls(),
            inject_ms: inj.corrupt.ms(),
            events,
            point: pt,
        }
    });
    let rebuild_wall = t_rebuild.elapsed().as_secs_f64();

    let mut ev = EventCounts::default();
    let (mut spmv_calls, mut spmv_ms, mut inj_calls, mut inj_ms, mut self_ms) =
        (0, 0.0, 0, 0.0, 0.0);
    for ((&(si, agg), t), (_, plain_pt)) in units.iter().zip(&traced).zip(&plain) {
        let recorded = art.points.get(&(scenarios[si], agg));
        let same = recorded.is_some_and(|a| same_point(a, &t.point) && same_point(a, plain_pt));
        rep.check(same, || format!("rebuilt {:?} @{agg} differs from the artifact", scenarios[si]));
        ev.add(&t.events);
        spmv_calls += t.spmv_calls;
        spmv_ms += t.spmv_ms;
        inj_calls += t.inject_calls;
        inj_ms += t.inject_ms;
        self_ms += t.ms - t.spmv_ms - t.inject_ms;
    }
    let n_exp = traced.len() as f64;
    let traced_ms: f64 = traced.iter().map(|t| t.ms).sum();
    let exp_ms: Vec<f64> = plain.iter().map(|t| t.0).collect();
    let sum_exp_s = exp_ms.iter().sum::<f64>() * 1e-3;
    let overhead_s = wall - baseline_s - sum_exp_s / threads;
    let (tail_ms, tail_pct, tail_n) = tail(&exp_ms);
    let n = p.a.nrows() as f64;
    let nnz = p.a.nnz() as f64;
    let ortho_bytes =
        40.0 * n * (ev.inner_coeffs - ev.inner_steps) as f64 + 8.0 * n * ev.inner_steps as f64;
    let spmv_bytes = spmv_calls as f64 * (16.0 * nnz + 24.0 * n);
    let committed = traced.iter().filter(|t| t.point.injected).count();
    rep.check(committed as u64 == ev.injections, || {
        format!("{committed} injected experiments but {} fault.inject events", ev.injections)
    });
    let (c1_inj, c1_det) = art.class1_detector;

    rep.set("campaigns.baseline_s", baseline_s);
    rep.set("campaigns.executor_overhead_s", overhead_s);
    rep.set("campaigns.experiment_ms.p50", median(&exp_ms));
    rep.set("campaigns.experiment_ms.tail", tail_ms);
    rep.set("campaigns.injected_frac", art.injected as f64 / art.experiments.max(1) as f64);
    rep.set("parallel.busy_frac", cpu / (wall * threads));
    rep.set("parallel.pool_runs", ev.pool_runs as f64);
    rep.set("core.arnoldi_steps", ev.arnoldi_steps() as f64);
    rep.set("core.ortho.coeffs", inj_calls as f64);
    rep.set("core.solver_self_ms", self_ms / n_exp);
    rep.set("core.ortho.gbps_computed", ortho_bytes / (self_ms * 1e-3) / 1e9);
    rep.set("core.restart_waste_frac", ev.restart_waste_frac());
    rep.set("sparse.spmv.calls", spmv_calls as f64);
    rep.set("sparse.spmv.ms", spmv_ms / n_exp);
    rep.set("sparse.spmv.gbps_computed", spmv_bytes / (spmv_ms * 1e-3) / 1e9);
    rep.set("faults.inject.ms", inj_ms / n_exp);
    rep.set("faults.committed", ev.injections as f64);
    rep.set("faults.detected_frac", c1_det as f64 / c1_inj.max(1) as f64);
    rep.set("bench.trace_overhead_frac", rebuild_wall / plain_wall - 1.0);
    rep.set("bench.unattributed_frac", overhead_s / wall);

    let pct = |ms: f64| 100.0 * ms / traced_ms;
    rep.note(format!(
        "# fig3_campaign trace: campaign wall {wall:.3} s, cpu {cpu:.3} s, {} experiments; \
         rebuild wall {plain_wall:.3} s plain, {rebuild_wall:.3} s traced",
        traced.len()
    ));
    rep.note(format!(
        "#   experiment self time: spmv {:.1}%  inject {:.1}%  solver (MGS, lsq, detector, outer) {:.1}%",
        pct(spmv_ms),
        pct(inj_ms),
        pct(self_ms)
    ));
    rep.note(format!(
        "#   campaign wall = baseline {baseline_s:.3} s + experiments/threads {:.3} s + executor remainder {overhead_s:.3} s",
        sum_exp_s / threads
    ));
    rep.note(format!("#   experiment tail: p{tail_pct:.1} of {tail_n} = {tail_ms:.3} ms"));
    rep.note(format!("#   class-1 detector coverage {c1_det}/{c1_inj}"));
}
