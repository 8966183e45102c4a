//! Regenerates **Figure 4** of the paper: outer iterations to convergence
//! for the circuit-simulation problem under a single SDC event, swept
//! over every aggregate inner iteration, for the three fault classes, at
//! the first (4a) and last (4b) Modified Gram-Schmidt positions — plus
//! the §VII-E detector comparison.
//!
//! Paper setup: `mult_dcop_03` (25,187 rows), 25 inner iterations per
//! outer iteration, failure-free = 28 outer. Our synthetic circuit
//! stand-in (`crates/sparse/src/gallery/circuit.rs`) reaches 27
//! failure-free outer iterations at outer tolerance 5e-9 with b = A·1.
//! Pass `--matrix mult_dcop_03.mtx` to run on the real matrix when
//! available.
//!
//! The default stride is 5 (the sweep is ~4,000 solves at stride 1);
//! pass `--stride 1` for the paper-resolution figure. With `--out PATH`
//! the JSONL artifact persists and an interrupted run resumes — worth it
//! here: the full-resolution fig4 is the longest campaign in the repo.
//!
//! Usage: `fig4_dcop [--quick] [--stride N] [--csv DIR] [--matrix PATH] [--out PATH]`

use sdc_bench::figure::run_figure;
use sdc_bench::render::CliArgs;
use sdc_campaigns::{CampaignSpec, ProblemSpec};

fn main() {
    let args = CliArgs::parse();
    let (nodes, inner, tol, stride) = if args.quick {
        (2000, 10, 1e-7, args.stride.unwrap_or(5))
    } else {
        (25_187, 25, 5e-9, args.stride.unwrap_or(5))
    };
    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).expect("cannot create csv dir");
    }
    let problem = match &args.matrix {
        Some(path) => ProblemSpec::MatrixMarket { path: path.clone(), equilibrate: true },
        None => ProblemSpec::Dcop { nodes, seed: 1311 },
    };
    let spec = CampaignSpec {
        inner_iters: inner,
        outer_tol: tol,
        outer_max: 200,
        stride,
        format: args.format,
        precond: args.precond,
        ..CampaignSpec::paper_shape("fig4", vec![problem])
    };
    run_figure(
        "fig4",
        &spec,
        args.csv_dir.as_deref(),
        args.out.as_deref(),
        args.trace_out.as_deref(),
        75,
    );
}
