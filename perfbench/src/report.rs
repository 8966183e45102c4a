//! The run report: metric values, correctness tallies, the summary
//! statistics every workload uses, and the one-line JSON verdict.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("experiments_per_s", "1/s"),
    ("tts_s.none", "s"),
    ("tts_s.ilu0", "s"),
    ("tts_s.chebyshev", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("capacity_rps", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// layer a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("campaigns.baseline_s", "s"),
    ("campaigns.executor_overhead_s", "s"),
    ("campaigns.experiment_ms.p50", "ms"),
    ("campaigns.experiment_ms.tail", "ms"),
    ("campaigns.injected_frac", "ratio"),
    ("parallel.busy_frac", "ratio"),
    ("parallel.pool_runs", "count"),
    ("core.arnoldi_steps", "count"),
    ("core.ortho.coeffs", "count"),
    ("core.solver_self_ms", "ms"),
    ("core.ortho.gbps_computed", "GB/s"),
    ("core.precond.calls", "count"),
    ("core.precond.ms.ilu0", "ms"),
    ("core.precond.ms.chebyshev", "ms"),
    ("core.restart_waste_frac", "ratio"),
    ("sparse.spmv.calls", "count"),
    ("sparse.spmv.ms", "ms"),
    ("sparse.spmv.gbps_computed", "GB/s"),
    ("faults.inject.ms", "ms"),
    ("faults.committed", "count"),
    ("faults.detected_frac", "ratio"),
    ("server.parse_us.solve", "us"),
    ("server.parse_us.load", "us"),
    ("server.transport_us", "us"),
    ("server.engine_us.solve", "us"),
    ("server.engine_us.load", "us"),
    ("server.queue_wait_us.p50", "us"),
    ("server.queue_wait_us.tail", "us"),
    ("server.queue_peak", "count"),
    ("server.batch_mean", "count"),
    ("server.busy_rejects", "count"),
    ("server.registry_hit_ratio", "ratio"),
    ("server.wakeups_per_request", "count"),
    ("bench.gen_lag_ms.tail", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
];

/// What one run measured and verified.
#[derive(Default)]
pub struct Report {
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations the run checked.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// Human-readable lines printed ahead of the JSON verdict.
    pub lines: Vec<String>,
}

impl Report {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation; a failing one is described on
    /// stderr and tallied.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }

    /// Adds a line to the human-readable part of the report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Prints the notes, then the verdict as the last stdout line:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` with the
    /// metrics of `names`. Returns whether the run was correct.
    pub fn print(&self, names: &[(&str, &str)]) -> bool {
        for l in &self.lines {
            println!("{l}");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let body: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(",")
        );
        correct
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile, samples)`. With fewer than eleven samples it is
/// the maximum (percentile 100).
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    if xs.is_empty() {
        return (0.0, 100.0, 0);
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 11 {
        return (s[n - 1], 100.0, n);
    }
    let idx = n - 11;
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so one seed always yields one input set.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over `bytes`: the digest recorded for the default-seed
/// campaign artifact.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Runs `body` `times` times and returns the median wall seconds of the
/// calls together with the last call's value: the set-up measurement
/// (`setup_s` is a median over repeats so one slow start does not move
/// it).
pub fn timed_setup<T>(times: usize, mut body: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let t = std::time::Instant::now();
        let v = body();
        walls.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&walls), last.expect("at least one set-up"))
}
