//! Solving a severely ill-conditioned nonsymmetric circuit matrix — the
//! paper's second problem class — and what the §VI-D least-squares
//! policies do when the projected problem degenerates.
//!
//! ```sh
//! cargo run --release --example circuit_ill_conditioned
//! ```

use sdc_gmres::prelude::*;
use sdc_sparse::gallery::{circuit_mna, CircuitMnaConfig};
use sdc_sparse::structure;

fn main() {
    // A mid-sized instance of the mult_dcop_03 stand-in.
    let cfg = CircuitMnaConfig { nodes: 5000, seed: 1311, ..Default::default() };
    let mut a = circuit_mna(&cfg);
    println!(
        "synthetic circuit: {} nodes, {} nonzeros, ‖A‖_F = {:.3}",
        a.nrows(),
        a.nnz(),
        a.norm_fro()
    );
    println!(
        "  pattern symmetry score: {:.3} (1.0 = symmetric pattern)",
        structure::pattern_symmetry_score(&a)
    );
    println!("  structurally full rank: {}", structure::is_structurally_full_rank(&a));
    let d = a.diagonal();
    let dmax = d.iter().cloned().fold(0.0f64, f64::max);
    let dmin = d.iter().cloned().fold(f64::INFINITY, f64::min);
    println!("  diagonal dynamic range: {:.1e} .. {:.1e} ({:.1e}x)", dmin, dmax, dmax / dmin);

    let n = a.nrows();
    let ones = vec![1.0; n];

    // Raw, unequilibrated: unpreconditioned Krylov stalls.
    let mut b = vec![0.0; n];
    a.par_spmv(&ones, &mut b);
    let ft = FtGmresConfig {
        outer: sdc_gmres::fgmres::FgmresConfig { tol: 1e-8, max_outer: 30, ..Default::default() },
        inner_iters: 25,
        ..Default::default()
    };
    let (_, rep) = sdc_gmres::ftgmres::ftgmres_solve(&a, &b, None, &ft);
    println!(
        "\nraw matrix, FT-GMRES(25): {:?} after {} outer, true residual {:.2e}",
        rep.outcome,
        rep.iterations,
        rep.true_residual_norm.unwrap()
    );

    // Equilibrated (the §V "scale the linear system" move): tractable.
    let dscale: Vec<f64> = d.iter().map(|&v| 1.0 / v.abs().max(1e-300).sqrt()).collect();
    a.scale_rows(&dscale);
    a.scale_cols(&dscale);
    let mut b = vec![0.0; n];
    a.par_spmv(&ones, &mut b);
    let (x, rep) = sdc_gmres::ftgmres::ftgmres_solve(&a, &b, None, &ft);
    let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
    let bnorm = sdc_dense::vector::nrm2(&b);
    println!(
        "equilibrated, FT-GMRES(25): {:?} after {} outer, relative residual {:.2e}, max error {err:.2e}",
        rep.outcome,
        rep.iterations,
        rep.true_residual_norm.unwrap() / bnorm,
    );
    println!("  (error ≫ residual is the conditioning at work: κ ≳ 1e9 means a 1e-7 residual");
    println!("   only pins the solution to ~κ·1e-7 — the honest limit of any solver here)");

    // The robust projected-LSQ policy on the same solve.
    let mut robust = ft;
    robust.inner_lsq_policy = LstsqPolicy::RankRevealing { tol: 1e-12 };
    robust.outer.lsq_policy = LstsqPolicy::RankRevealing { tol: 1e-12 };
    let (x, rep) = sdc_gmres::ftgmres::ftgmres_solve(&a, &b, None, &robust);
    let err = x.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
    println!(
        "  + rank-revealing LSQ (§VI-D approach 3): {:?} after {} outer, max error {err:.2e}",
        rep.outcome, rep.iterations
    );
}
