//! Extension experiment (§III-A-2): bit flips are a subset of the
//! numerical SDC model.
//!
//! The paper argues that injecting bit flips is unnecessary because any
//! flip "could have been achieved by merely setting the memory location
//! equal to some value". This binary makes the containment quantitative:
//!
//! 1. For a representative Hessenberg entry it maps all 64 single-bit
//!    flips to the relative error they induce and to whether the `‖A‖_F`
//!    bound detects them.
//! 2. It then runs an FT-GMRES campaign injecting *actual bit flips*
//!    (one per solve, swept over bit positions) and shows the same
//!    run-through/detect dichotomy as the magnitude-class campaign.
//!
//! Usage: `bitflip_sweep [--quick]`

use sdc_bench::render::CliArgs;
use sdc_campaigns::problems;
use sdc_faults::bitflip::{bitflip_anatomy, summarize_against_bound, BitRegion};
use sdc_faults::trigger::LoopPosition;
use sdc_faults::{FaultModel, SingleFaultInjector, SitePredicate, Trigger};
use sdc_gmres::prelude::*;

fn main() {
    let args = CliArgs::parse();
    let (m, inner) = if args.quick { (16, 8) } else { (100, 25) };

    let problem = problems::poisson(m);
    // The storage engine is a pure performance knob (SELL SpMV is
    // bitwise identical to CSR); every count below is format-invariant.
    let op = problem.operator(args.format);
    let bound = problem.a.norm_fro();

    println!(
        "== bit-flip anatomy of a representative h_ij (value 3.7), bound ‖A‖_F = {bound:.1} =="
    );
    let outcomes = bitflip_anatomy(3.7);
    let summary = summarize_against_bound(&outcomes, bound);
    println!(
        "  detectable: {} / 64   (of which non-finite: {})   silent: {}",
        summary.detectable, summary.non_finite, summary.undetectable
    );
    println!("  bit | region   | corrupted value | magnification | detected by bound");
    for o in outcomes.iter().rev() {
        if o.bit >= 48 || o.bit == 0 {
            println!(
                "  {:>3} | {:<8} | {:>15.6e} | {:>13.3e} | {}",
                o.bit,
                match o.region {
                    BitRegion::Sign => "sign",
                    BitRegion::Exponent => "exponent",
                    BitRegion::Mantissa => "mantissa",
                },
                o.value,
                o.magnification,
                o.detectable_by_bound(bound)
            );
        }
    }

    // End-to-end: inject one real bit flip per solve into h_{1,2} of the
    // second inner solve, sweeping the bit position.
    println!("\n== FT-GMRES under single real bit flips (h_1,2 of inner solve 2) ==");
    let ft = FtGmresConfig {
        outer: sdc_gmres::fgmres::FgmresConfig { tol: 1e-7, max_outer: 150, ..Default::default() },
        inner_iters: inner,
        inner_detector: Some(SdcDetector::with_frobenius_bound(
            &problem.a,
            DetectorResponse::RestartInner,
        )),
        ..Default::default()
    };
    let (_, ff) = sdc_gmres::ftgmres::ftgmres_solve(op, &problem.b, None, &ft);
    println!(
        "  failure-free outer iterations: {} (engine: {})",
        ff.iterations,
        problem.resolved_format(args.format)
    );

    let rows: Vec<(u8, usize, bool, bool, bool)> = sdc_parallel::par_map(64, |bit| {
        let bit = bit as u8;
        let inj = SingleFaultInjector::new(
            FaultModel::BitFlip { bit },
            Trigger::once(SitePredicate::mgs_site(2, 2, LoopPosition::First)),
        );
        let (x, rep) =
            sdc_gmres::ftgmres::ftgmres_solve_instrumented(op, &problem.b, None, &ft, &inj);
        let mut r = vec![0.0; problem.b.len()];
        sdc_gmres::operator::residual(&problem.a, &problem.b, &x, &mut r);
        let ok = sdc_dense::vector::nrm2(&r) <= 1e-6 * sdc_dense::vector::nrm2(&problem.b);
        (
            bit,
            rep.iterations,
            rep.detected_anything(),
            rep.outcome.is_converged() && ok,
            !rep.injections.is_empty(),
        )
    });

    println!("  bit | outer iterations | detected | solved correctly | committed");
    let mut max_outer = ff.iterations;
    for (bit, outer, detected, correct, committed) in &rows {
        max_outer = max_outer.max(*outer);
        if *bit >= 48 || *bit == 0 || *detected {
            println!("  {bit:>3} | {outer:>16} | {detected:>8} | {correct:>16} | {committed}");
        }
    }
    let n_detected = rows.iter().filter(|r| r.2).count();
    let n_correct = rows.iter().filter(|r| r.3).count();
    println!(
        "\n  summary: {}/64 flips detected, {}/64 solves correct, worst outer = {} (+{})",
        n_detected,
        n_correct,
        max_outer,
        max_outer - ff.iterations
    );
    println!("  (exponent-region flips either blow past the ‖A‖_F bound — detected — or");
    println!("   shrink the value — run through; mantissa flips are silent and harmless.)");
}
