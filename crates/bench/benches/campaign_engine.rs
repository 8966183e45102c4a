//! Criterion benchmark for the campaign engine's scheduling overhead:
//! the same small Poisson sweep through (a) the raw `run_sweep` path
//! (in-memory, no persistence) and (b) the full executor (spec
//! expansion, sharding, JSONL streaming, flush-per-shard, and experiments
//! forked from the baseline solve instead of solved from scratch). The
//! delta is what the artifact layer costs less what forking saves.

use criterion::{criterion_group, criterion_main, Criterion};
use sdc_campaigns::{CampaignSpec, GridBlock, ProblemSpec, RunOptions};
use std::hint::black_box;

fn bench_spec() -> CampaignSpec {
    CampaignSpec {
        inner_iters: 8,
        outer_tol: 1e-8,
        outer_max: 60,
        stride: 5,
        blocks: vec![GridBlock::undetected_full()],
        ..CampaignSpec::paper_shape("bench", vec![ProblemSpec::Poisson { m: 8 }])
    }
}

fn bench_engine_vs_raw(c: &mut Criterion) {
    // Tag every BENCH_JSON line with the host ISA so bench_gate can
    // flag baselines recorded on a different machine class.
    criterion::set_dump_context(&[
        ("isa", sdc_sparse::simd::active().as_str()),
        ("tier", "strict"),
    ]);
    let mut g = c.benchmark_group("campaign_engine_overhead");
    g.sample_size(10);
    let spec = bench_spec();

    g.bench_function("raw_run_sweep", |b| {
        let problem = spec.problems[0].build();
        b.iter(|| {
            // Same work as one executor run: one baseline solve (all
            // scenarios share the standard lsq policy), then one sweep
            // per scenario — minus all spec/artifact machinery.
            let ff = sdc_campaigns::failure_free(
                &problem,
                &spec.baseline_config(sdc_campaigns::LsqSpec::Standard),
            );
            let mut results = Vec::new();
            for scenario in spec.scenarios() {
                let cfg = spec.campaign_config(&scenario);
                results.push(sdc_campaigns::run_sweep(
                    &problem,
                    &cfg,
                    scenario.class,
                    scenario.position,
                    ff.iterations,
                ));
            }
            black_box(results)
        })
    });

    g.bench_function("executor_with_artifact", |b| {
        let path =
            std::env::temp_dir().join(format!("sdc_bench_engine_{}.jsonl", std::process::id()));
        b.iter(|| {
            std::fs::remove_file(&path).ok();
            let summary = sdc_campaigns::run(
                &spec,
                &path,
                false,
                &RunOptions { quiet: true, ..Default::default() },
            )
            .expect("campaign runs");
            black_box(summary)
        });
        std::fs::remove_file(&path).ok();
    });

    // Report-side cost: reconstructing every series from the artifact.
    g.bench_function("report_reconstruction", |b| {
        let path =
            std::env::temp_dir().join(format!("sdc_bench_report_{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        sdc_campaigns::run(&spec, &path, false, &RunOptions { quiet: true, ..Default::default() })
            .expect("campaign runs");
        b.iter(|| black_box(sdc_campaigns::CampaignData::load(&path).expect("loads")));
        std::fs::remove_file(&path).ok();
    });

    g.finish();
}

criterion_group!(benches, bench_engine_vs_raw);
criterion_main!(benches);
