//! ASCII figures, aligned tables and CSV output.
//!
//! Terminal-friendly reproductions of the paper's figures: the y-axis is
//! the outer iteration count, the x-axis the aggregate faulted inner
//! iteration, with vertical guides at inner-solve boundaries ("vertical
//! bars indicate the start of a new inner solve").

use sdc_campaigns::SweepResult;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Renders a sweep series as a compact ASCII plot.
pub fn ascii_plot(res: &SweepResult, inner_per_outer: usize, width: usize) -> String {
    let mut out = String::new();
    let ymin = res
        .points
        .iter()
        .map(|p| p.outer_iterations)
        .min()
        .unwrap_or(res.failure_free_outer)
        .min(res.failure_free_outer);
    let ymax = res.max_outer().max(res.failure_free_outer);
    let n = res.points.len().max(1);
    let width = width.min(n).max(1);

    // Bucket the x-domain; plot the max outer count in each bucket.
    let mut buckets = vec![ymin; width];
    for (i, p) in res.points.iter().enumerate() {
        let b = i * width / n;
        buckets[b] = buckets[b].max(p.outer_iterations);
    }
    // Which buckets contain an inner-solve boundary?
    let domain_len = res.points.last().map(|p| p.aggregate).unwrap_or(1);
    let mut boundary = vec![false; width];
    let mut agg_of_bucket = vec![0usize; width];
    for (i, p) in res.points.iter().enumerate() {
        let b = i * width / n;
        agg_of_bucket[b] = p.aggregate;
        if (p.aggregate - 1) % inner_per_outer == 0 {
            boundary[b] = true;
        }
    }

    writeln!(
        out,
        "  {} | {} | failure-free = {} outer",
        res.class.label(),
        res.position.label(),
        res.failure_free_outer
    )
    .unwrap();
    for y in (ymin..=ymax).rev() {
        let marker = if y == res.failure_free_outer { '-' } else { ' ' };
        write!(out, "  {y:>4} {marker}").unwrap();
        for b in 0..width {
            let c = if buckets[b] >= y {
                '#'
            } else if boundary[b] {
                '.'
            } else if y == res.failure_free_outer {
                '-'
            } else {
                ' '
            };
            out.push(c);
        }
        out.push('\n');
    }
    writeln!(
        out,
        "       {}^1 .. aggregate faulted inner iteration .. {}^",
        " ".repeat(0),
        domain_len
    )
    .unwrap();
    writeln!(
        out,
        "       max increase: +{} outer ({:.0}%) | no-penalty points: {}/{} | detected: {} | non-converged: {}",
        res.max_increase(),
        res.pct_increase(),
        res.count_no_penalty(),
        res.points.len(),
        res.count_detected(),
        res.count_failures()
    )
    .unwrap();
    out
}

/// Writes a sweep series as CSV: `aggregate,outer,converged,injected,detected,restarts,true_rel_residual`.
///
/// Floats are written with `sdc_obs::json::fmt_f64`: the
/// shortest representation that parses back to the identical bits, so
/// re-running a deterministic sweep reproduces the CSV byte for byte.
pub fn write_sweep_csv(path: &Path, res: &SweepResult) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "aggregate,outer_iterations,converged,injected,detected,restarts,true_rel_residual"
    )?;
    for p in &res.points {
        writeln!(
            f,
            "{},{},{},{},{},{},{}",
            p.aggregate,
            p.outer_iterations,
            p.converged,
            p.injected,
            p.detected,
            p.restarts,
            sdc_campaigns::json::fmt_f64(p.true_rel_residual)
        )?;
    }
    f.flush()
}

/// The canonical CSV filename for one scenario's series: every grid
/// axis appears, so no two scenarios of any spec can collide.
pub fn scenario_csv_path(
    dir: &Path,
    campaign: &str,
    scenario: &sdc_campaigns::Scenario,
) -> std::path::PathBuf {
    use sdc_campaigns::spec::{class_str, position_str};
    dir.join(format!(
        "{campaign}_p{}_{}_{}_{}_{}.csv",
        scenario.problem,
        class_str(scenario.class),
        position_str(scenario.position),
        scenario.detector.as_str(),
        scenario.lsq.file_tag()
    ))
}

/// Renders an aligned two-column table (Table-I style).
pub fn two_column_table(title: &str, rows: &[(String, String, String)]) -> String {
    let mut out = String::new();
    let w0 = rows.iter().map(|r| r.0.len()).max().unwrap_or(0).max("Properties".len());
    let w1 = rows.iter().map(|r| r.1.len()).max().unwrap_or(0);
    let w2 = rows.iter().map(|r| r.2.len()).max().unwrap_or(0);
    writeln!(out, "{title}").unwrap();
    writeln!(out, "{}", "-".repeat(w0 + w1 + w2 + 6)).unwrap();
    for (a, b, c) in rows {
        writeln!(out, "{a:<w0$} | {b:>w1$} | {c:>w2$}").unwrap();
    }
    out
}

/// The CLI vocabulary shared by the experiment binaries, built on the
/// engine's [`sdc_campaigns::cli`] parser so every binary reports flags
/// and errors the same way.
#[derive(Clone, Debug, Default)]
pub struct CliArgs {
    /// `--quick`: subsampled sweep on a smaller matrix.
    pub quick: bool,
    /// `--csv DIR`: write raw CSV series into DIR.
    pub csv_dir: Option<std::path::PathBuf>,
    /// `--matrix PATH`: use a Matrix Market file instead of the
    /// synthetic generator (fig4 only).
    pub matrix: Option<std::path::PathBuf>,
    /// `--stride N`: explicit sweep stride.
    pub stride: Option<usize>,
    /// `--out PATH`: keep the JSONL campaign artifact at PATH.
    pub out: Option<std::path::PathBuf>,
    /// `--trace-out PATH`: write per-unit deterministic solve traces.
    pub trace_out: Option<std::path::PathBuf>,
    /// `--format {csr,sell,auto}`: sparse storage engine for the
    /// operator (default `auto`; bitwise-invisible to results).
    pub format: sdc_sparse::SparseFormat,
    /// `--precond {none,jacobi,ilu0,chebyshev}`: right preconditioner
    /// inside the inner solves (default `none`; the legacy figures).
    pub precond: sdc_gmres::precond::PrecondKind,
}

impl CliArgs {
    /// The shared flag set.
    pub fn cli(program: impl Into<String>, about: impl Into<String>) -> sdc_campaigns::cli::Cli {
        sdc_campaigns::cli::Cli::new(program, about)
            .switch("quick", "subsampled sweep on a smaller matrix")
            .opt("stride", "N", "explicit sweep stride")
            .opt("csv", "DIR", "write raw CSV series into DIR")
            .opt("matrix", "PATH", "Matrix Market file instead of the synthetic generator")
            .opt("out", "PATH", "keep the JSONL campaign artifact at PATH")
            .opt("trace-out", "PATH", "write per-unit deterministic solve traces (JSONL)")
            .with_threads()
            .with_format()
            .with_precond()
            .with_simd()
    }

    /// Builds from a parsed flag set, applying `--threads` to the
    /// global `sdc_parallel` pool and `--simd` to the global kernel
    /// dispatch as side effects.
    pub fn from_parsed(p: &sdc_campaigns::cli::Parsed) -> Result<Self, String> {
        p.apply_threads()?;
        p.apply_simd()?;
        Ok(CliArgs {
            quick: p.has("quick"),
            csv_dir: p.path("csv"),
            matrix: p.path("matrix"),
            stride: p.get::<usize>("stride")?,
            out: p.path("out"),
            trace_out: p.path("trace-out"),
            format: p.format()?,
            precond: p.precond()?,
        })
    }

    /// Parses `std::env::args`; prints usage and exits on `--help` or a
    /// bad flag. Usage/error text carries the invoking binary's name.
    pub fn parse() -> Self {
        let cli =
            Self::cli(sdc_campaigns::cli::program_name(), "paper figure/table reproduction binary");
        let parsed = cli.parse_env(1);
        match Self::from_parsed(&parsed) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_campaigns::SweepPoint;
    use sdc_faults::campaign::{FaultClass, MgsPosition};

    fn sample_result() -> SweepResult {
        SweepResult {
            class: FaultClass::Huge,
            position: MgsPosition::First,
            failure_free_outer: 9,
            points: (1..=50)
                .map(|aggregate| SweepPoint {
                    aggregate,
                    outer_iterations: if aggregate % 10 == 3 { 14 } else { 9 },
                    converged: true,
                    injected: true,
                    detected: false,
                    restarts: 0,
                    true_rel_residual: 1e-9,
                })
                .collect(),
        }
    }

    #[test]
    fn plot_contains_summary() {
        let s = ascii_plot(&sample_result(), 25, 60);
        assert!(s.contains("failure-free = 9"));
        assert!(s.contains("max increase: +5"));
        assert!(s.contains('#'));
    }

    #[test]
    fn csv_round_trips_line_count() {
        let res = sample_result();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sdc_bench_csv_test_{}.csv", std::process::id()));
        write_sweep_csv(&path, &res).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), 51); // header + 50 points
        assert!(text.lines().nth(1).unwrap().starts_with("1,"));
    }

    #[test]
    fn table_is_aligned() {
        let rows = vec![
            ("number of rows".to_string(), "10,000".to_string(), "25,187".to_string()),
            ("nonzeros".to_string(), "49,600".to_string(), "193,216".to_string()),
        ];
        let t = two_column_table("Sample Matrices", &rows);
        assert!(t.contains("10,000"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len(), "rows must align");
    }
}
