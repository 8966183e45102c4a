//! `poisson180_solve`: GMRES(128) to 1e-8 on Poisson 180²
//! (n = 32,400, nnz = 161,280, `auto` format → SELL) through
//! `gmres_solve_right_precond`, with no preconditioner, ILU(0) and
//! Chebyshev, in rounds of one solve each whose order the seed shuffles.
//!
//! The restart length keeps every Krylov basis at most 129 × 259 KB ≈
//! 33 MB. ILU(0) and Chebyshev converge before the first restart, so they
//! run exactly as unrestarted GMRES does; only the unpreconditioned solve
//! restarts. Unrestarted, its basis grows to 82 MB, which spilled out of
//! the last-level cache of the measured host: the solve then streamed from
//! DRAM and its time followed the neighbours' memory traffic (1.6–3.1 s
//! between runs minutes apart) instead of the program.

use crate::probe::{count_events, EventCounts, Tally, TimedOp};
use crate::report::{fnv1a64, median, tail, timed_setup, Report, Rng};
use crate::sys::{peak_rss_mb, Span};
use crate::Ctx;
use sdc_campaigns::{Problem, ProblemSpec};
use sdc_gmres::gmres::{gmres_solve, gmres_solve_right_precond, GmresConfig};
use sdc_gmres::operator::{residual, FnOperator, LinearOperator};
use sdc_gmres::precond::{BuiltPrecond, PrecondKind};
use sdc_sparse::SparseFormat;
use std::time::Instant;

const KINDS: [PrecondKind; 3] = [PrecondKind::None, PrecondKind::Ilu0, PrecondKind::Chebyshev];
const TTS_NAMES: [&str; 3] = ["tts_s.none", "tts_s.ilu0", "tts_s.chebyshev"];
/// Iterations to 1e-8 per entry of [`KINDS`]. ILU(0) and Chebyshev match
/// the sequel paper's unrestarted reproduction (123 and 45, against 317
/// for unrestarted GMRES without a preconditioner).
const ITERATIONS: [usize; 3] = [687, 123, 45];
const TOL: f64 = 1e-8;
/// GMRES restart length; see the module documentation.
const RESTART: usize = 128;
/// Back-to-back solves per kind and round: the Chebyshev solve is the
/// shortest and the most variable, so it gets more samples.
const REPEATS: [usize; 3] = [1, 1, 3];

fn config() -> GmresConfig {
    GmresConfig { tol: TOL, max_iters: 2000, restart: Some(RESTART), ..GmresConfig::default() }
}

/// Builds the problem and everything a solve would otherwise build on
/// first use: the SELL engine and both preconditioners, each applied
/// once.
fn setup() -> Problem {
    let p = ProblemSpec::Poisson { m: 180 }.build();
    let n = p.a.nrows();
    let (mut y, mut z) = (vec![0.0; n], vec![0.0; n]);
    p.operator(SparseFormat::Auto).apply(&p.b, &mut y);
    for kind in KINDS {
        p.precond(kind).expect("Poisson factors cleanly").solve(&p.b, &mut z);
    }
    p
}

/// One untraced solve: (seconds, x).
fn solve(p: &Problem, kind: PrecondKind) -> (f64, Vec<f64>, usize) {
    let op = p.operator(SparseFormat::Auto);
    let pc = p.precond(kind).expect("built in set-up");
    let t = Instant::now();
    let (x, rep) = gmres_solve_right_precond(op, &p.b, None, &config(), pc);
    (t.elapsed().as_secs_f64(), x, rep.iterations)
}

/// Checks one solve: the expected iteration count and a true residual
/// within the tolerance.
fn check(rep: &mut Report, p: &Problem, k: usize, x: &[f64], iterations: usize) {
    let mut r = vec![0.0; p.b.len()];
    residual(&p.a, &p.b, x, &mut r);
    let rel = sdc_dense::vector::nrm2(&r) / sdc_dense::vector::nrm2(&p.b);
    rep.check(iterations == ITERATIONS[k] && rel <= TOL, || {
        format!(
            "{}: {iterations} iterations (want {}), true residual {rel:e}",
            KINDS[k], ITERATIONS[k]
        )
    });
}

/// Rounds per untraced run: 12 at the benchmark's 25 s. The latency
/// samples are the first solve of each kind per round, so the median sits
/// inside the ILU(0) group and the tail (ten samples beyond it) inside the
/// `none` group rather than on a group boundary.
fn rounds(seconds: f64) -> usize {
    ((0.48 * seconds).round() as usize).max(2)
}

fn x_digest(x: &[f64]) -> u64 {
    let bytes: Vec<u8> = x.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// The untraced run.
pub fn run(ctx: &Ctx, rep: &mut Report) {
    let (setup_s, p) = timed_setup(crate::SETUP_REPEATS, setup);
    rep.set("setup_s", setup_s);
    let mut rng = Rng::new(ctx.seed, 1);
    let pid = std::process::id();
    let mut tts = vec![Vec::new(); KINDS.len()];
    let mut digests: Vec<Option<u64>> = vec![None; KINDS.len()];
    let (mut walls, mut cpus, mut all) = (Vec::new(), Vec::new(), Vec::new());
    let mut solves = 0usize;
    // A fixed round count keeps the mix of the latency samples the same
    // in every run (a round takes about 2.3 s at two threads).
    for _ in 0..rounds(ctx.seconds) {
        let mut order = [0usize, 1, 2];
        rng.shuffle(&mut order);
        let span = Span::start(pid);
        let mut solved = Vec::new();
        for k in order {
            for r in 0..REPEATS[k] {
                let (secs, x, its) = solve(&p, KINDS[k]);
                tts[k].push(secs);
                if r == 0 {
                    all.push(secs * 1e3);
                }
                solved.push((k, x, its));
            }
        }
        solves += solved.len();
        let (wall, cpu) = span.stop();
        walls.push(wall);
        cpus.push(cpu);
        // Checks run outside the timed round.
        for (k, x, its) in solved {
            check(rep, &p, k, &x, its);
            let d = x_digest(&x);
            let first = *digests[k].get_or_insert(d);
            rep.check(first == d, || format!("{}: x differs between repeats", KINDS[k]));
        }
    }
    let total: f64 = walls.iter().sum();
    let (t_ms, t_pct, t_n) = tail(&all);
    rep.note(format!(
        "# poisson180_solve: {} rounds; solve latency tail p{t_pct:.1} of {t_n} = {t_ms:.1} ms",
        walls.len()
    ));
    for (k, name) in TTS_NAMES.iter().enumerate() {
        rep.set(name, median(&tts[k]));
        let ms: Vec<String> = tts[k].iter().map(|s| format!("{:.0}", s * 1e3)).collect();
        rep.note(format!("#   {:<9} solve ms: {}", KINDS[k].as_str(), ms.join(" ")));
    }
    rep.set("wall_s", median(&walls));
    rep.set("cpu_s", median(&cpus));
    rep.set("experiments_per_s", solves as f64 / total);
    rep.set("latency_p50_ms", median(&all));
    rep.set("latency_tail_ms", t_ms);
    rep.set("capacity_rps", solves as f64 / total);
    rep.set("peak_rss_mb", peak_rss_mb(pid));
}

/// What a traced solve measured.
struct Traced {
    secs: f64,
    x: Vec<f64>,
    iterations: usize,
    spmv: (u64, f64),
    precond: (u64, f64),
    events: EventCounts,
}

/// One solve rebuilt from public pieces with the operator and the
/// preconditioner application timed: `gmres_solve_right_precond`'s own
/// composition (GMRES on `B = A·M⁻¹`, then `x = M⁻¹u`), so `x` must be
/// bitwise the untraced one.
fn solve_traced(p: &Problem, kind: PrecondKind) -> Traced {
    let op = TimedOp::new(p.operator(SparseFormat::Auto));
    let pc = p.precond(kind).expect("built in set-up");
    let pt = Tally::default();
    let cfg = config();
    let t = Instant::now();
    let ((x, iterations), events) = count_events(|| {
        if let BuiltPrecond::None = pc {
            let (x, r) = gmres_solve(&op, &p.b, None, &cfg);
            return (x, r.iterations);
        }
        let n = op.nrows();
        let bnorm = sdc_dense::vector::nrm2(&p.b);
        let mut cfg_u = cfg;
        cfg_u.tol = cfg.tol * bnorm / bnorm;
        let b_op = FnOperator::square(n, |u: &[f64], y: &mut [f64]| {
            let mut z = vec![0.0; n];
            pt.time(|| pc.solve(u, &mut z));
            op.apply(&z, y);
        });
        let (u, r) = gmres_solve(&b_op, &p.b, None, &cfg_u);
        let mut x = vec![0.0; n];
        pt.time(|| pc.solve(&u, &mut x));
        (x, r.iterations)
    });
    Traced {
        secs: t.elapsed().as_secs_f64(),
        x,
        iterations,
        spmv: (op.spmv.calls(), op.spmv.ms()),
        precond: (pt.calls(), pt.ms()),
        events,
    }
}

/// The traced run: one untraced round for reference, then one traced
/// round whose `x` must match it bit for bit.
pub fn run_traced(ctx: &Ctx, rep: &mut Report) {
    let p = setup();
    let mut order = [0usize, 1, 2];
    Rng::new(ctx.seed, 1).shuffle(&mut order);
    let pid = std::process::id();

    let span = Span::start(pid);
    let plain: Vec<(f64, Vec<f64>, usize)> = order.iter().map(|&k| solve(&p, KINDS[k])).collect();
    let (wall, cpu) = span.stop();

    let t = Instant::now();
    let traced: Vec<Traced> = order.iter().map(|&k| solve_traced(&p, KINDS[k])).collect();
    let traced_wall = t.elapsed().as_secs_f64();

    let mut ev = EventCounts::default();
    let (mut spmv_calls, mut spmv_ms, mut pc_calls, mut self_ms) = (0, 0.0, 0, 0.0);
    let mut pc_ms = [0.0; 3];
    let mut none_self_ms = 0.0;
    for ((&k, (_, x, its)), tr) in order.iter().zip(&plain).zip(&traced) {
        check(rep, &p, k, x, *its);
        rep.check(x_digest(x) == x_digest(&tr.x) && tr.iterations == *its, || {
            format!("{}: traced x differs from the untraced x", KINDS[k])
        });
        ev.add(&tr.events);
        spmv_calls += tr.spmv.0;
        spmv_ms += tr.spmv.1;
        pc_calls += tr.precond.0;
        pc_ms[k] = tr.precond.1;
        let own = tr.secs * 1e3 - tr.spmv.1 - tr.precond.1;
        self_ms += own;
        if KINDS[k] == PrecondKind::None {
            none_self_ms = own;
        }
    }
    let n = p.a.nrows() as f64;
    let nnz = p.a.nnz() as f64;
    let solves = traced.len() as f64;
    let ortho_bytes =
        40.0 * n * (ev.inner_coeffs - ev.inner_steps) as f64 + 8.0 * n * ev.inner_steps as f64;
    let traced_ms = traced_wall * 1e3;

    rep.set("parallel.busy_frac", cpu / (wall * sdc_parallel::threads() as f64));
    rep.set("parallel.pool_runs", ev.pool_runs as f64);
    rep.set("core.arnoldi_steps", ev.arnoldi_steps() as f64);
    rep.set("core.ortho.coeffs", ev.inner_coeffs as f64);
    rep.set("core.solver_self_ms", self_ms / solves);
    rep.set("core.ortho.gbps_computed", ortho_bytes / (self_ms * 1e-3) / 1e9);
    rep.set("core.precond.calls", pc_calls as f64);
    rep.set("core.precond.ms.ilu0", pc_ms[1]);
    rep.set("core.precond.ms.chebyshev", pc_ms[2]);
    rep.set("core.restart_waste_frac", ev.restart_waste_frac());
    rep.set("sparse.spmv.calls", spmv_calls as f64);
    rep.set("sparse.spmv.ms", spmv_ms / solves);
    rep.set(
        "sparse.spmv.gbps_computed",
        spmv_calls as f64 * (16.0 * nnz + 24.0 * n) / (spmv_ms * 1e-3) / 1e9,
    );
    rep.set("bench.trace_overhead_frac", traced_wall / wall - 1.0);
    rep.set(
        "bench.unattributed_frac",
        0.0f64.max(1.0 - (spmv_ms + pc_ms.iter().sum::<f64>() + self_ms) / traced_ms),
    );

    rep.note(format!(
        "# poisson180_solve trace: untraced round {wall:.3} s (cpu {cpu:.3} s), traced round {traced_wall:.3} s"
    ));
    for (&k, tr) in order.iter().zip(&traced) {
        let ms = tr.secs * 1e3;
        rep.note(format!(
            "#   {:<9} {:>8.1} ms: spmv {:>5.1}% ({} calls)  precond {:>5.1}% ({} calls)  solver self {:>5.1}%",
            KINDS[k].as_str(),
            ms,
            100.0 * tr.spmv.1 / ms,
            tr.spmv.0,
            100.0 * tr.precond.1 / ms,
            tr.precond.0,
            100.0 * (ms - tr.spmv.1 - tr.precond.1) / ms
        ));
    }
    rep.note(format!("#   none solver self time {none_self_ms:.1} ms (MGS over the 33 MB basis, Givens, bookkeeping)"));
}
