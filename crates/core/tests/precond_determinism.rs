//! Bitwise thread-count determinism of the preconditioner vocabulary.
//!
//! The campaign engine's reproducibility contract extends through the
//! preconditioners: a Jacobi/ILU(0)/Chebyshev apply, and every solver
//! wrapped around one, must produce identical bits at any worker count.
//! ILU(0) triangular solves are sequential and Jacobi is element-wise.
//! Chebyshev runs one thread team over the [`sdc_parallel::BLOCK`]
//! chunks of its vectors, with each row's `A`-apply fused into the
//! recurrence update. Below [`sdc_parallel::TEAM_MIN`] rows, as in the
//! Poisson 24² solves, the team is a plain loop; the split path is pinned
//! against the unfused recurrence on Poisson 130² and 181².

use sdc_gmres::ftgmres::{ftgmres_solve_precond, FtGmresConfig};
use sdc_gmres::gmres::{gmres_solve_right_precond, GmresConfig};
use sdc_gmres::precond::{BuiltPrecond, ChebyshevPrecond, PrecondKind};
use sdc_sparse::{gallery, CsrMatrix};

fn problem() -> (CsrMatrix, Vec<f64>) {
    let a = gallery::poisson2d(24);
    let ones = vec![1.0; a.ncols()];
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&ones, &mut b);
    (a, b)
}

#[test]
fn precond_apply_is_bitwise_thread_independent() {
    let _guard = sdc_parallel::test_serial_guard();
    let (a, _) = problem();
    let n = a.nrows();
    let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).sin() + 0.1).collect();
    for kind in [PrecondKind::Jacobi, PrecondKind::Ilu0, PrecondKind::Chebyshev] {
        let pc = BuiltPrecond::build(kind, &a).unwrap();
        sdc_parallel::set_threads(1);
        let mut reference = vec![0.0; n];
        pc.solve(&q, &mut reference);
        for t in [2usize, 4] {
            sdc_parallel::set_threads(t);
            let mut z = vec![f64::NAN; n];
            pc.solve(&q, &mut z);
            for i in 0..n {
                assert_eq!(
                    z[i].to_bits(),
                    reference[i].to_bits(),
                    "{kind} apply row {i} differs at {t} threads"
                );
            }
        }
    }
    sdc_parallel::set_threads(0);
}

#[test]
fn preconditioned_solves_are_bitwise_thread_independent() {
    let _guard = sdc_parallel::test_serial_guard();
    let (a, b) = problem();
    let gmres_cfg = GmresConfig { tol: 1e-8, max_iters: 400, ..Default::default() };
    let ft_cfg = FtGmresConfig {
        outer: sdc_gmres::fgmres::FgmresConfig { tol: 1e-7, max_outer: 60, ..Default::default() },
        inner_iters: 10,
        ..Default::default()
    };
    for kind in PrecondKind::all() {
        let pc = BuiltPrecond::build(kind, &a).unwrap();

        sdc_parallel::set_threads(1);
        let (x_ref, rep_ref) = gmres_solve_right_precond(&a, &b, None, &gmres_cfg, &pc);
        let (ft_ref, ft_rep_ref) =
            ftgmres_solve_precond(&a, &b, None, &ft_cfg, &pc, &sdc_faults::NoFaults);
        assert!(rep_ref.outcome.is_converged(), "{kind} gmres baseline must converge");
        assert!(ft_rep_ref.outcome.is_converged(), "{kind} ftgmres baseline must converge");

        sdc_parallel::set_threads(4);
        let (x4, rep4) = gmres_solve_right_precond(&a, &b, None, &gmres_cfg, &pc);
        let (ft4, ft_rep4) =
            ftgmres_solve_precond(&a, &b, None, &ft_cfg, &pc, &sdc_faults::NoFaults);

        assert_eq!(rep_ref.iterations, rep4.iterations, "{kind} gmres iteration count");
        assert_eq!(ft_rep_ref.iterations, ft_rep4.iterations, "{kind} ftgmres outer count");
        assert!(
            x_ref.iter().zip(&x4).all(|(p, q)| p.to_bits() == q.to_bits()),
            "{kind} gmres solution differs between 1 and 4 threads"
        );
        assert!(
            ft_ref.iter().zip(&ft4).all(|(p, q)| p.to_bits() == q.to_bits()),
            "{kind} ftgmres solution differs between 1 and 4 threads"
        );
    }
    sdc_parallel::set_threads(0);
}

/// Reference Chebyshev apply: a whole-vector `par_spmv` per step, then a
/// serial update loop.
fn unfused_chebyshev(
    a: &CsrMatrix,
    (theta, delta): (f64, f64),
    degree: usize,
    q: &[f64],
) -> Vec<f64> {
    let n = a.nrows();
    let sigma = theta / delta;
    let mut rho = 1.0 / sigma;
    let mut d: Vec<f64> = q.iter().map(|&v| v / theta).collect();
    let mut z = d.clone();
    let mut az = vec![0.0; n];
    for _ in 2..=degree {
        a.par_spmv(&z, &mut az);
        let rho_new = 1.0 / (2.0 * sigma - rho);
        let dd = rho_new * rho;
        let dr = 2.0 * rho_new / delta;
        for i in 0..n {
            d[i] = dd * d[i] + dr * (q[i] - az[i]);
            z[i] += d[i];
        }
        rho = rho_new;
    }
    z
}

#[test]
fn chebyshev_team_apply_matches_the_unfused_recurrence_bitwise() {
    let _guard = sdc_parallel::test_serial_guard();
    // 130² = 16,900 is the smallest Poisson grid past TEAM_MIN; 181²
    // ends on a ragged chunk.
    for m in [130, 181] {
        let a = gallery::poisson2d(m);
        let n = a.nrows();
        assert!(n >= sdc_parallel::TEAM_MIN, "poisson2d({m}) must split");
        let clean: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).sin() + 0.1).collect();
        let mut poisoned = clean.clone();
        poisoned[7] = f64::NAN;
        poisoned[n / 2] = f64::INFINITY;
        poisoned[n - 3] = f64::NEG_INFINITY;
        for degree in [1, 2, 3, 10] {
            let pc = ChebyshevPrecond::new(&a, degree);
            for q in [&clean, &poisoned] {
                sdc_parallel::set_threads(1);
                let reference = unfused_chebyshev(&a, pc.interval(), degree, q);
                for t in [1usize, 2, 8] {
                    sdc_parallel::set_threads(t);
                    let mut z = vec![f64::NAN; n];
                    pc.solve(q, &mut z);
                    for i in 0..n {
                        assert_eq!(
                            z[i].to_bits(),
                            reference[i].to_bits(),
                            "poisson2d({m}) degree {degree}, row {i} at {t} threads"
                        );
                    }
                }
            }
        }
    }
    sdc_parallel::set_threads(0);
}
