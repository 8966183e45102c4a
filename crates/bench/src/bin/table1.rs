//! Regenerates **Table I** of the paper: sample-matrix characteristics
//! and the "potential fault detectors" (`‖A‖₂`, `‖A‖_F`).
//!
//! Prints our measured values side by side with the values the paper
//! reports for `gallery('poisson',100)` and `mult_dcop_03`. The Poisson
//! values must match closely (same matrix); the synthetic circuit column
//! documents how faithful the stand-in is (see
//! `crates/sparse/src/gallery/circuit.rs`).
//!
//! Usage: `table1 [--quick] [--matrix path.mtx]`

use sdc_bench::render::{two_column_table, CliArgs};
use sdc_gmres::prelude::*;
use sdc_sparse::{norm_est, structure, CsrMatrix, FormatMatrix, SparseFormat};

struct Characteristics {
    rows: usize,
    cols: usize,
    nnz: usize,
    struct_full_rank: bool,
    pattern_symmetric: bool,
    numerically_symmetric: bool,
    positive_definite: Option<bool>,
    cond_estimate: f64,
    norm2: f64,
    norm_fro: f64,
}

fn characterize(
    a: &CsrMatrix,
    spd_known: Option<bool>,
    estimate_cond: bool,
    format: SparseFormat,
) -> Characteristics {
    let norm2 = norm_est::norm2_est(a, 3000, 1e-12).value;
    let cond_estimate = if estimate_cond {
        let smin = sigma_min_estimate(a, format);
        if smin > 0.0 {
            norm2 / smin
        } else {
            f64::INFINITY
        }
    } else {
        f64::NAN
    };
    Characteristics {
        rows: a.nrows(),
        cols: a.ncols(),
        nnz: a.nnz(),
        struct_full_rank: structure::is_structurally_full_rank(a),
        pattern_symmetric: a.is_pattern_symmetric(),
        numerically_symmetric: a.is_numerically_symmetric(1e-12),
        positive_definite: spd_known,
        cond_estimate,
        norm2,
        norm_fro: a.norm_fro(),
    }
}

/// Estimate of σ_min(A) by inverse power iteration on `AᵀA`, with the
/// inverse applied through FT-GMRES solves. If the solves stall (severely
/// ill-conditioned operators), the returned value is an *upper* bound on
/// σ_min, i.e. the condition estimate is a lower bound.
fn sigma_min_estimate(a: &CsrMatrix, format: SparseFormat) -> f64 {
    let n = a.nrows();
    let ft = FtGmresConfig {
        outer: sdc_gmres::fgmres::FgmresConfig { tol: 1e-10, max_outer: 80, ..Default::default() },
        inner_iters: 25,
        ..Default::default()
    };
    // The inner FT-GMRES solves run on the chosen engine (results are
    // bitwise format-independent; this only affects speed).
    let a = FormatMatrix::convert(a, format);
    let at = FormatMatrix::from_csr(a.to_csr().transpose(), format);
    let a = &a;
    let at = &at;
    let mut x: Vec<f64> = (0..n).map(|i| ((i as f64 + 1.0) * 0.61).sin() + 0.3).collect();
    sdc_dense::vector::normalize(&mut x);
    let mut est = 0.0;
    for _ in 0..3 {
        // y = A⁻¹ x, then w = A⁻ᵀ y  ⇒  w = (AᵀA)⁻¹ x.
        let (y, _) = sdc_gmres::ftgmres::ftgmres_solve(a, &x, None, &ft);
        let (w, _) = sdc_gmres::ftgmres::ftgmres_solve(&at, &y, None, &ft);
        let wnorm = sdc_dense::vector::nrm2(&w);
        if wnorm == 0.0 || !wnorm.is_finite() {
            return 0.0;
        }
        est = (1.0 / wnorm).sqrt();
        x = w;
        sdc_dense::vector::normalize(&mut x);
    }
    est
}

fn yesno(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

fn main() {
    let args = CliArgs::parse();
    let (pm, dn) = if args.quick { (30, 2000) } else { (100, 25_187) };
    let estimate_cond = !args.quick;

    eprintln!("building problems...");
    let poisson = sdc_sparse::gallery::poisson2d(pm);
    let dcop_raw = match &args.matrix {
        Some(p) => sdc_sparse::io::read_matrix_market(p).expect("failed to read --matrix"),
        None => sdc_sparse::gallery::circuit_mna(&sdc_sparse::gallery::CircuitMnaConfig {
            nodes: dn,
            seed: 1311,
            ..Default::default()
        }),
    };

    eprintln!("characterizing Poisson...");
    let cp = characterize(&poisson, Some(true), estimate_cond, args.format);
    eprintln!("characterizing circuit matrix (condition estimate may take minutes)...");
    let cd = characterize(&dcop_raw, Some(false), estimate_cond, args.format);

    // Not a paper row, but the same structural data drives the SpMV
    // engine choice; report what --format resolves to for each matrix.
    let engine = |a: &CsrMatrix| match args.format {
        SparseFormat::Auto => format!("{} (auto)", sdc_sparse::auto_format(a)),
        f => f.to_string(),
    };
    let (ep, ed) = (engine(&poisson), engine(&dcop_raw));

    let fmt = |v: f64| format!("{v:.4}");
    let rows = vec![
        (
            "Properties".to_string(),
            format!("Poisson {pm}x{pm} (paper: 100x100)"),
            "circuit (paper: mult_dcop_03)".to_string(),
        ),
        (
            "number of rows".to_string(),
            format!("{} (paper 10,000)", cp.rows),
            format!("{} (paper 25,187)", cd.rows),
        ),
        (
            "number of columns".to_string(),
            format!("{} (paper 10,000)", cp.cols),
            format!("{} (paper 25,187)", cd.cols),
        ),
        (
            "nonzeros".to_string(),
            format!("{} (paper 49,600)", cp.nnz),
            format!("{} (paper 193,216)", cd.nnz),
        ),
        (
            "structural full rank?".to_string(),
            format!("{} (paper yes)", yesno(cp.struct_full_rank)),
            format!("{} (paper yes)", yesno(cd.struct_full_rank)),
        ),
        (
            "nonzero pattern symmetry".to_string(),
            format!(
                "{} (paper symmetric)",
                if cp.pattern_symmetric && cp.numerically_symmetric {
                    "symmetric"
                } else {
                    "nonsymmetric"
                }
            ),
            format!(
                "{} (paper nonsymmetric)",
                if cd.numerically_symmetric { "symmetric" } else { "nonsymmetric" }
            ),
        ),
        ("type".to_string(), "real".to_string(), "real".to_string()),
        (
            "positive definite?".to_string(),
            format!("{} (paper yes)", yesno(cp.positive_definite.unwrap_or(false))),
            format!("{} (paper no)", yesno(cd.positive_definite.unwrap_or(false))),
        ),
        (
            // The σ_min estimator (inverse power iteration through
            // iterative solves) upper-bounds σ_min when the solves stall
            // on severely ill-conditioned operators, so the printed
            // condition number is a *lower bound* there.
            "condition number (est., ≥)".to_string(),
            format!("{:.4e} (paper 6.0107e3)", cp.cond_estimate),
            format!("{:.4e} (paper 7.27261e13)", cd.cond_estimate),
        ),
        (
            "‖A‖₂  (fault detector)".to_string(),
            format!("{} (paper 8)", fmt(cp.norm2)),
            format!("{} (paper 17.1762)", fmt(cd.norm2)),
        ),
        (
            "‖A‖_F (fault detector)".to_string(),
            format!("{} (paper 446)", fmt(cp.norm_fro)),
            format!("{} (paper 42.4179)", fmt(cd.norm_fro)),
        ),
        ("SpMV engine (--format)".to_string(), ep, ed),
    ];
    println!("{}", two_column_table("TABLE I: Sample Matrices", &rows));

    if pm == 100 {
        let (lmin, lmax, cond) = sdc_sparse::gallery::poisson2d_spectrum(100);
        println!("Poisson exact spectrum: λ_min = {lmin:.6e}, λ_max = {lmax:.6e}, κ₂ = {cond:.4e}");
        println!(
            "(The paper's 6.0107e3 is Matlab condest's 1-norm estimate; the exact 2-norm κ is {cond:.1e}.)"
        );
    }
}
