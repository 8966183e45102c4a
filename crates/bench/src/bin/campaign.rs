//! The unified campaign driver: run, resume, report and diff SDC
//! campaigns described by declarative JSON specs.
//!
//! ```text
//! campaign run    --spec spec.json --out artifact.jsonl [--max-units N] [--shard N] [--threads N] [--quiet]
//! campaign resume --spec spec.json --out artifact.jsonl [--max-units N] [--shard N] [--threads N] [--quiet]
//! campaign report --out artifact.jsonl [--plots] [--csv DIR]
//! campaign diff   --out artifact.jsonl --baseline other.jsonl
//! campaign example-spec
//! ```
//!
//! `run` refuses to overwrite an existing artifact; `resume` continues
//! one (skipping completed units, truncating a partial tail) and
//! produces a file byte-identical to an uninterrupted run. `report` and
//! `diff` never solve anything — they work from stored artifacts alone.
//! `example-spec` prints a commented starting spec to stdout.

use sdc_bench::render::{ascii_plot, scenario_csv_path, write_sweep_csv};
use sdc_campaigns::cli::Cli;
use sdc_campaigns::{CampaignData, CampaignSpec, ProblemSpec, RunOptions};
use std::path::Path;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("campaign: {msg}");
    std::process::exit(1);
}

fn load_spec(path: &Path) -> CampaignSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format_args!("cannot read spec {}: {e}", path.display())));
    CampaignSpec::parse(&text)
        .unwrap_or_else(|e| fail(format_args!("bad spec {}: {e}", path.display())))
}

fn run_or_resume(resume: bool) {
    let cli = Cli::new(
        if resume { "campaign resume" } else { "campaign run" },
        "execute a campaign spec, streaming a resumable JSONL artifact",
    )
    .opt("spec", "FILE", "campaign spec (JSON)")
    .opt("out", "PATH", "artifact output path (JSONL)")
    .opt("max-units", "N", "stop after N new experiments (checkpoint early)")
    .opt("shard", "N", "units per parallel shard/flush (default 64)")
    .opt("trace-out", "PATH", "write per-unit deterministic solve traces (JSONL)")
    .switch("quiet", "suppress progress output")
    .with_threads()
    .with_simd();
    let p = cli.parse_env(2);
    p.apply_threads().unwrap_or_else(|e| fail(e));
    p.apply_simd().unwrap_or_else(|e| fail(e));
    let spec_path = p.path("spec").unwrap_or_else(|| fail("--spec is required"));
    let out = p.path("out").unwrap_or_else(|| fail("--out is required"));
    let spec = load_spec(&spec_path);
    let mut opts = RunOptions {
        quiet: p.has("quiet"),
        max_units: p.get::<usize>("max-units").unwrap_or_else(|e| fail(e)),
        trace_out: p.path("trace-out"),
        ..Default::default()
    };
    if let Some(shard) = p.get::<usize>("shard").unwrap_or_else(|e| fail(e)) {
        opts.shard_size = shard;
    }
    match sdc_campaigns::run(&spec, &out, resume, &opts) {
        Ok(s) => {
            println!(
                "campaign '{}': {} units total, {} already done, {} ran, {} remaining -> {}",
                spec.name,
                s.total_units,
                s.skipped_units,
                s.ran_units,
                s.remaining_units,
                out.display()
            );
            println!(
                "forked from the clean solves: {} of {} outer iterations skipped \
                 (inner solves reused), snapshot {} bytes",
                s.outer_skipped, s.outer_iterations, s.snapshot_bytes
            );
            if !s.is_complete() {
                println!(
                    "(incomplete; continue with: campaign resume --spec {} --out {})",
                    spec_path.display(),
                    out.display()
                );
            }
        }
        Err(e) => fail(e),
    }
}

fn report() {
    let cli = Cli::new("campaign report", "render a stored artifact; no re-solving")
        .opt("out", "PATH", "artifact to report on")
        .opt("csv", "DIR", "also write per-series CSV files into DIR")
        .switch("plots", "include ASCII sweep plots");
    let p = cli.parse_env(2);
    let out = p.path("out").unwrap_or_else(|| fail("--out is required"));
    let data = CampaignData::load(&out).unwrap_or_else(|e| fail(e));
    print!("{}", sdc_campaigns::render_report(&data));
    if p.has("plots") {
        for (scenario, series) in &data.series {
            if !series.points.is_empty() {
                println!("\n{}", ascii_plot(series, data.spec.inner_iters, 75));
            }
            let _ = scenario;
        }
    }
    if let Some(dir) = p.path("csv") {
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| fail(format_args!("cannot create {}: {e}", dir.display())));
        for (scenario, series) in &data.series {
            if series.points.is_empty() {
                continue;
            }
            let file = scenario_csv_path(&dir, &data.spec.name, scenario);
            write_sweep_csv(&file, series)
                .unwrap_or_else(|e| fail(format_args!("csv write failed: {e}")));
        }
    }
}

fn diff() {
    let cli = Cli::new("campaign diff", "compare two artifacts series by series")
        .opt("out", "PATH", "artifact to compare")
        .opt("baseline", "PATH", "reference artifact");
    let p = cli.parse_env(2);
    let out = p.path("out").unwrap_or_else(|| fail("--out is required"));
    let baseline = p.path("baseline").unwrap_or_else(|| fail("--baseline is required"));
    let a = CampaignData::load(&baseline).unwrap_or_else(|e| fail(e));
    let b = CampaignData::load(&out).unwrap_or_else(|e| fail(e));
    print!("{}", sdc_campaigns::render_diff(&a, &b));
}

fn example_spec() {
    let spec = CampaignSpec {
        stride: 5,
        ..CampaignSpec::paper_shape("example", vec![ProblemSpec::Poisson { m: 24 }])
    };
    println!("{}", spec.to_json().to_line());
}

fn main() {
    let sub = std::env::args().nth(1).unwrap_or_default();
    match sub.as_str() {
        "run" => run_or_resume(false),
        "resume" => run_or_resume(true),
        "report" => report(),
        "diff" => diff(),
        "example-spec" => example_spec(),
        other => {
            eprintln!(
                "usage: campaign <run|resume|report|diff|example-spec> [flags]\n\
                 (got '{other}'; each subcommand supports --help)"
            );
            std::process::exit(2);
        }
    }
}
