//! Regenerates **Figure 2** of the paper: the structure of the projected
//! matrix `H` — tridiagonal for an SPD input, full upper Hessenberg for a
//! nonsymmetric input.
//!
//! The paper uses this structural difference to explain why the Poisson
//! experiments are so sensitive to faults on the *first* MGS iteration:
//! for SPD systems the entries `h_{1,j}, j ≥ 3` should be exactly zero,
//! so corrupting one injects energy where theory says none can exist.
//!
//! Usage: `fig2_hessenberg [--quick]`

use sdc_bench::render::CliArgs;
use sdc_gmres::arnoldi::{arnoldi, tridiagonality_defect};
use sdc_gmres::operator::LinearOperator;
use sdc_sparse::{CsrMatrix, FormatMatrix, SparseFormat};

fn structure_diagram(h: &sdc_dense::DenseMatrix, k: usize, tol: f64) -> String {
    let mut out = String::new();
    let k = k.min(h.cols());
    for r in 0..=k.min(h.rows() - 1) {
        out.push_str("    ");
        for c in 0..k {
            let v = h[(r, c)].abs();
            out.push(if v > tol { 'x' } else { '0' });
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

fn analyze(name: &str, a: &CsrMatrix, steps: usize, format: SparseFormat) {
    // The Arnoldi process only needs `y = A x`; run it through the
    // chosen storage engine (bitwise-invisible to H's structure).
    let op = FormatMatrix::convert(a, format);
    let a: &dyn LinearOperator = &op;
    let n = a.nrows();
    let v0: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.317).sin() + 0.73).collect();
    let dec = arnoldi(a, &v0, steps);
    let scale = dec.h.norm_max();
    let tol = 1e-10 * scale;
    let defect = tridiagonality_defect(&dec.h);
    // Count entries strictly above the first superdiagonal that are
    // numerically nonzero.
    let mut above = 0usize;
    let mut total = 0usize;
    for c in 0..dec.h.cols() {
        for r in 0..c.saturating_sub(1) {
            total += 1;
            if dec.h[(r, c)].abs() > tol {
                above += 1;
            }
        }
    }
    println!("  {name}: {} Arnoldi steps", dec.h.cols());
    println!("{}", structure_diagram(&dec.h, 8, tol));
    println!("    tridiagonality defect (max |h_ij|, i<j-1, / ‖H‖_max) = {defect:.3e}");
    println!("    nonzero entries above the superdiagonal: {above}/{total}");
    println!();
}

fn main() {
    let args = CliArgs::parse();
    let (pm, dn, steps) = if args.quick { (20, 800, 15) } else { (100, 25_187, 25) };

    println!("FIGURE 2: upper Hessenberg vs tridiagonal structure\n");
    println!("SPD input (Poisson {pm}x{pm}) -- H should be tridiagonal:");
    analyze("poisson", &sdc_sparse::gallery::poisson2d(pm), steps, args.format);

    println!("Nonsymmetric input (synthetic circuit, n={dn}) -- H is full upper Hessenberg:");
    let circuit = sdc_sparse::gallery::circuit_mna(&sdc_sparse::gallery::CircuitMnaConfig {
        nodes: dn,
        seed: 1311,
        ..Default::default()
    });
    analyze("circuit", &circuit, steps, args.format);

    println!("Nonsymmetric input (convection-diffusion, wind=3) -- intermediate:");
    analyze(
        "convdiff",
        &sdc_sparse::gallery::convection_diffusion_2d(pm.min(40), 3.0, 1.0),
        steps,
        args.format,
    );
}
