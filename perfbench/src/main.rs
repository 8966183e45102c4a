//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--work DIR]
//! ```
//!
//! Workloads: `fig3_campaign`, `poisson180_solve`, `served_mix` (see
//! `README.md` in this directory for what each runs and why). With
//! `--trace 0` the run measures the end-to-end metrics untraced; with
//! `--trace 1` it rebuilds the workload's solves from public pieces with
//! timed wrappers and prints the per-layer metrics. Either way it checks
//! every output, prints a human-readable report, and ends with one JSON
//! line `{"correct","attempted","failed","metrics"}`; a wrong output
//! makes the exit code 1.

mod fig3;
mod poisson;
mod probe;
mod report;
mod served;
mod sys;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// The seed whose fig3 artifact digest the benchmark pins.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;

/// Settings shared by every workload.
pub struct Ctx {
    /// Workload seed: the only source of input variation.
    pub seed: u64,
    /// Target length of the measured phase, seconds.
    pub seconds: f64,
    /// Worker-pool threads (= connections for `served_mix`).
    pub threads: usize,
    /// Scratch directory for campaign artifacts.
    pub work: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload fig3_campaign|poisson180_solve|served_mix --seed N \
         --seconds S --trace 0|1 [--work DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    if args.first().map(String::as_str) == Some("serve-child") {
        let threads = value("--threads").and_then(|t| t.parse().ok()).unwrap_or(1);
        if let Err(e) = served::serve_child(threads) {
            eprintln!("perfbench serve-child: {e}");
            std::process::exit(1);
        }
        return;
    }

    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    let seed = value("--seed")
        .map_or(Ok(DEFAULT_SEED), |s| s.parse())
        .unwrap_or_else(|_| usage("bad --seed"));
    let seconds: f64 = value("--seconds")
        .map_or(Ok(10.0), |s| s.parse())
        .unwrap_or_else(|_| usage("bad --seconds"));
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage("--trace takes 0 or 1"),
    };
    let work =
        PathBuf::from(value("--work").unwrap_or_else(|| ".bench_build/perfbench-work".into()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        usage(&format!("cannot create {}: {e}", work.display()));
    }
    let threads = sys::nproc();
    sdc_parallel::set_threads(threads);
    let ctx = Ctx { seed, seconds: seconds.max(1.0), threads, work };

    println!(
        "# perfbench {workload} seed={seed} seconds={} trace={} nproc={} pool_threads={} simd={} L2={} L3={}",
        ctx.seconds,
        u8::from(trace),
        sys::nproc(),
        sdc_parallel::threads(),
        sdc_sparse::simd::active(),
        sys::cache_size(2),
        sys::cache_size(3),
    );
    println!(
        "# working sets: fig3 inner basis <= 26 x 80 KB ~ 2 MB (in L2); poisson180 GMRES(128) basis \
         <= 129 x 259 KB ~ 33 MB (past L2, in the last-level cache: no DRAM-bandwidth claim); \
         served Poisson 32^2 basis ~ 0.2 MB"
    );

    let mut rep = Report::default();
    match (workload.as_str(), trace) {
        ("fig3_campaign", false) => fig3::run(&ctx, &mut rep),
        ("fig3_campaign", true) => fig3::run_traced(&ctx, &mut rep),
        ("poisson180_solve", false) => poisson::run(&ctx, &mut rep),
        ("poisson180_solve", true) => poisson::run_traced(&ctx, &mut rep),
        ("served_mix", false) => served::run(&ctx, &mut rep),
        ("served_mix", true) => served::run_traced(&ctx, &mut rep),
        (other, _) => usage(&format!("unknown workload '{other}'")),
    }
    if !trace {
        let ok = 1.0 - rep.failed as f64 / rep.attempted.max(1) as f64;
        rep.set("ok_frac", ok);
    }
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    if !rep.print(names) {
        std::process::exit(1);
    }
}
