//! Committed performance baselines and the CI regression gate.
//!
//! The repo commits `BENCH_*.json` files recording, per benchmark id,
//! the median sample time of a baseline run. The benches regenerate the
//! raw data as a JSONL *dump* (one line per benchmark, written by the
//! vendored criterion when `BENCH_JSON=path` is set); this module parses
//! both, compares medians with a generous tolerance (CI hardware varies
//! — the gate only fails on gross slowdowns), cross-checks suspicious
//! medians against the minimum sample so one loaded-neighbour spike
//! doesn't fail the build, and renders the committed
//! baseline format from a fresh dump. The `bench_gate` binary is the
//! thin CLI over these functions; the CI `bench-regression` job and the
//! baseline regeneration workflow in the README both go through it, so
//! the file format has exactly one reader and one writer.

use sdc_campaigns::json::{Json, JsonError};
use std::collections::BTreeMap;

/// One benchmark's measurements from a `BENCH_JSON` dump line.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchStats {
    /// Timed samples.
    pub samples: usize,
    /// Fastest sample, microseconds — the gate's noise-robust secondary
    /// signal (a loaded CI host inflates the median far more than the
    /// minimum).
    pub min_us: f64,
    /// Median sample, microseconds — the quantity the gate compares.
    pub median_us: f64,
    /// Mean sample, microseconds.
    pub mean_us: f64,
    /// Host ISA the dumping bench recorded via criterion's dump context
    /// (`"avx2"` / `"scalar"`); absent from dumps older than the tag.
    pub isa: Option<String>,
    /// Kernel tier the benched engine ran (`"strict"`, the only tier);
    /// absent from dumps older than the tag.
    pub tier: Option<String>,
}

/// Parses a `BENCH_JSON` JSONL dump into `id → stats`. A rerun appends
/// to the same file, so the *last* line per id wins.
pub fn parse_dump(text: &str) -> Result<BTreeMap<String, BenchStats>, JsonError> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = Json::parse(line)?;
        out.insert(
            v.field("id")?.as_str()?.to_string(),
            BenchStats {
                samples: v.field("samples")?.as_usize()?,
                min_us: v.field("min_us")?.as_f64()?,
                median_us: v.field("median_us")?.as_f64()?,
                mean_us: v.field("mean_us")?.as_f64()?,
                isa: v.get("isa").and_then(|s| s.as_str().ok()).map(str::to_string),
                tier: v.get("tier").and_then(|s| s.as_str().ok()).map(str::to_string),
            },
        );
    }
    Ok(out)
}

/// A committed `BENCH_*.json` baseline: the gated medians plus the
/// per-id minimum samples and host provenance recorded alongside them.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// `id → median_us`, the primary gate signal.
    pub medians_us: BTreeMap<String, f64>,
    /// `id → min_us` from the baseline's `stats` block (the secondary
    /// gate signal); may be missing ids on baselines emitted before the
    /// stats block recorded minimums.
    pub mins_us: BTreeMap<String, f64>,
    /// Kernel ISA of the machine that emitted the baseline; `None` on
    /// baselines from before the field existed.
    pub host_isa: Option<String>,
}

/// Parses a committed `BENCH_*.json` baseline.
pub fn parse_baseline(text: &str) -> Result<Baseline, JsonError> {
    let v = Json::parse(text)?;
    let Json::Obj(medians) = v.field("medians_us")? else {
        return Err(JsonError { offset: 0, msg: "medians_us must be an object".into() });
    };
    let medians_us = medians
        .iter()
        .map(|(k, m)| Ok((k.clone(), m.as_f64()?)))
        .collect::<Result<BTreeMap<_, _>, JsonError>>()?;
    let mut mins_us = BTreeMap::new();
    if let Some(Json::Obj(stats)) = v.get("stats") {
        for (id, s) in stats {
            if let Some(min) = s.get("min_us") {
                mins_us.insert(id.clone(), min.as_f64()?);
            }
        }
    }
    let host_isa = v.get("host_isa").and_then(|s| s.as_str().ok()).map(str::to_string);
    Ok(Baseline { medians_us, mins_us, host_isa })
}

/// One gate comparison row.
#[derive(Clone, Debug)]
pub struct GateRow {
    /// Benchmark id (`group/param`).
    pub id: String,
    /// Committed baseline median, microseconds.
    pub baseline_us: f64,
    /// Fresh median, microseconds.
    pub fresh_us: f64,
    /// `fresh / baseline` over medians — the primary signal.
    pub ratio: f64,
    /// `fresh min / baseline min` — the secondary, noise-robust signal.
    /// `None` when the baseline predates recorded minimums.
    pub min_ratio: Option<f64>,
}

/// The gate verdict over a full baseline/dump pair.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Per-benchmark comparisons (every baseline id found in the dump).
    pub rows: Vec<GateRow>,
    /// Baseline ids absent from the fresh dump — a fail: silently
    /// dropping a bench would otherwise retire its baseline.
    pub missing: Vec<String>,
    /// Ids whose ratio exceeded the tolerance.
    pub regressions: Vec<String>,
}

impl GateReport {
    /// True when nothing regressed and nothing went missing.
    pub fn pass(&self) -> bool {
        self.missing.is_empty() && self.regressions.is_empty()
    }

    /// Renders the human-readable comparison table. A row regresses only
    /// when *both* the median and the min ratio exceed the tolerance, so
    /// both deltas are printed on every row.
    pub fn render(&self, tol: f64) -> String {
        let mut out = String::new();
        let w = self.rows.iter().map(|r| r.id.len()).max().unwrap_or(8).max(8);
        out.push_str(&format!(
            "{:<w$} {:>12} {:>12} {:>8} {:>9}  verdict (fail: median AND min > {tol}x)\n",
            "bench", "base µs", "fresh µs", "ratio", "min_ratio"
        ));
        for r in &self.rows {
            let verdict = if r.ratio > tol {
                match r.min_ratio {
                    Some(m) if m <= tol => "noisy (median regressed, min within gate)",
                    Some(_) => "REGRESSED",
                    None => "REGRESSED (no baseline min to cross-check)",
                }
            } else {
                "ok"
            };
            let min_col =
                r.min_ratio.map_or_else(|| format!("{:>9}", "-"), |m| format!("{m:>9.2}"));
            out.push_str(&format!(
                "{:<w$} {:>12.1} {:>12.1} {:>8.2} {min_col}  {verdict}\n",
                r.id, r.baseline_us, r.fresh_us, r.ratio
            ));
        }
        for id in &self.missing {
            out.push_str(&format!("{id:<w$} missing from fresh dump: FAIL\n"));
        }
        out
    }
}

/// `fresh / base` with the zero-baseline convention: a zero baseline is
/// an exact-count gate (e.g. "detector false positives = 0"), so equal
/// is a pass and anything above is an unconditional fail.
fn gate_ratio(fresh: f64, base: f64) -> f64 {
    if base > 0.0 {
        fresh / base
    } else if fresh == 0.0 {
        1.0
    } else {
        f64::INFINITY
    }
}

/// Compares a committed baseline against a fresh dump: every baseline id
/// must be present, and its fresh timings must not exceed `tol ×` the
/// committed ones. Extra ids in the dump are ignored (new benches land
/// in the baseline when it is next regenerated).
///
/// A slowdown counts as a regression only when **both** the median and
/// the minimum sample exceed the tolerance. A loaded CI neighbour can
/// double a median while the fastest sample — which needs just one
/// quiet scheduling window — stays honest; a genuine kernel regression
/// slows every sample, minimum included. Baselines that predate
/// recorded minimums fall back to the median-only gate.
pub fn compare(baseline: &Baseline, fresh: &BTreeMap<String, BenchStats>, tol: f64) -> GateReport {
    let mut report = GateReport::default();
    for (id, &base_us) in &baseline.medians_us {
        match fresh.get(id) {
            None => report.missing.push(id.clone()),
            Some(stats) => {
                let ratio = gate_ratio(stats.median_us, base_us);
                let min_ratio =
                    baseline.mins_us.get(id).map(|&base_min| gate_ratio(stats.min_us, base_min));
                if ratio > tol && min_ratio.map_or(true, |m| m > tol) {
                    report.regressions.push(id.clone());
                }
                report.rows.push(GateRow {
                    id: id.clone(),
                    baseline_us: base_us,
                    fresh_us: stats.median_us,
                    ratio,
                    min_ratio,
                });
            }
        }
    }
    report
}

/// Renders a fresh dump as the committed `BENCH_*.json` baseline format
/// (canonical: sorted keys, round-trip-exact floats, trailing newline).
pub fn emit_baseline(
    fresh: &BTreeMap<String, BenchStats>,
    comment: &str,
    command: &str,
    host_cores: usize,
    host_isa: &str,
) -> String {
    let medians =
        fresh.iter().map(|(id, s)| (id.as_str(), Json::Num(s.median_us))).collect::<Vec<_>>();
    let stats = fresh
        .iter()
        .map(|(id, s)| {
            let mut fields = vec![
                ("samples", Json::Num(s.samples as f64)),
                ("min_us", Json::Num(s.min_us)),
                ("median_us", Json::Num(s.median_us)),
                ("mean_us", Json::Num(s.mean_us)),
            ];
            // Per-bench provenance from tagged dumps (the host-level
            // host_isa above covers dumps from before the tags).
            if let Some(isa) = &s.isa {
                fields.push(("isa", Json::str(isa)));
            }
            if let Some(tier) = &s.tier {
                fields.push(("tier", Json::str(tier)));
            }
            (id.as_str(), Json::obj(fields))
        })
        .collect::<Vec<_>>();
    let doc = Json::obj(vec![
        ("comment", Json::str(comment)),
        ("command", Json::str(command)),
        ("host_cores", Json::Num(host_cores as f64)),
        ("host_isa", Json::str(host_isa)),
        ("medians_us", Json::obj(medians)),
        ("stats", Json::obj(stats)),
    ]);
    let mut line = doc.to_line();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump_line(id: &str, median: f64) -> String {
        stats_line(id, median, median)
    }

    fn stats_line(id: &str, min: f64, median: f64) -> String {
        format!("{{\"id\":\"{id}\",\"samples\":5,\"min_us\":{min},\"median_us\":{median},\"mean_us\":{median}}}")
    }

    #[test]
    fn dump_parses_and_last_line_wins() {
        let text =
            [dump_line("a/1", 10.0), dump_line("b/2", 20.0), dump_line("a/1", 12.0)].join("\n");
        let dump = parse_dump(&text).unwrap();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump["a/1"].median_us, 12.0);
        assert_eq!(dump["b/2"].samples, 5);
        assert_eq!(dump["a/1"].isa, None, "untagged dumps parse with no ISA");
        assert!(parse_dump("{bogus").is_err());
    }

    #[test]
    fn dump_parses_the_isa_and_tier_tags() {
        let text = "{\"id\":\"a/1\",\"samples\":5,\"min_us\":1.0,\"median_us\":2.0,\"mean_us\":2.0,\"isa\":\"avx2\",\"tier\":\"strict\"}";
        let dump = parse_dump(text).unwrap();
        assert_eq!(dump["a/1"].isa.as_deref(), Some("avx2"));
        assert_eq!(dump["a/1"].tier.as_deref(), Some("strict"));
        // The per-bench provenance survives into the emitted baseline's
        // stats block.
        let baseline = emit_baseline(&dump, "", "", 1, "avx2");
        assert!(baseline.contains("\"isa\":\"avx2\""), "{baseline}");
        assert!(baseline.contains("\"tier\":\"strict\""), "{baseline}");
    }

    #[test]
    fn emit_then_parse_round_trips_medians_mins_and_isa() {
        let dump = parse_dump(&[stats_line("a/1", 9.25, 10.5), dump_line("b/2", 0.125)].join("\n"))
            .unwrap();
        let text = emit_baseline(&dump, "test baseline", "cargo bench", 4, "avx2");
        let base = parse_baseline(&text).unwrap();
        assert_eq!(base.medians_us["a/1"], 10.5);
        assert_eq!(base.medians_us["b/2"], 0.125);
        assert_eq!(base.mins_us["a/1"], 9.25);
        assert_eq!(base.host_isa.as_deref(), Some("avx2"));
        // Canonical: serializing twice is identical.
        assert_eq!(text, emit_baseline(&dump, "test baseline", "cargo bench", 4, "avx2"));
    }

    #[test]
    fn pre_isa_baselines_still_parse() {
        // Hand-rolled old-format document: no host_isa, no stats block.
        let text =
            "{\"comment\":\"\",\"command\":\"\",\"host_cores\":1,\"medians_us\":{\"a/1\":100.0}}";
        let base = parse_baseline(text).unwrap();
        assert_eq!(base.medians_us["a/1"], 100.0);
        assert!(base.mins_us.is_empty());
        assert_eq!(base.host_isa, None);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let baseline = parse_baseline(&emit_baseline(
            &parse_dump(&dump_line("a/1", 100.0)).unwrap(),
            "",
            "",
            1,
            "scalar",
        ))
        .unwrap();
        // 2.4x slower: within the 2.5x gate.
        let fresh = parse_dump(&dump_line("a/1", 240.0)).unwrap();
        let rep = compare(&baseline, &fresh, 2.5);
        assert!(rep.pass(), "{}", rep.render(2.5));
        assert!((rep.rows[0].ratio - 2.4).abs() < 1e-12);
        // 2.6x slower on median AND min: regression.
        let fresh = parse_dump(&dump_line("a/1", 260.0)).unwrap();
        let rep = compare(&baseline, &fresh, 2.5);
        assert!(!rep.pass());
        assert_eq!(rep.regressions, vec!["a/1".to_string()]);
        let rendered = rep.render(2.5);
        assert!(rendered.contains("REGRESSED"));
        // Both deltas appear in the failure report.
        assert!(rendered.contains("2.60"), "{rendered}");
        // Faster is always fine.
        let fresh = parse_dump(&dump_line("a/1", 10.0)).unwrap();
        assert!(compare(&baseline, &fresh, 2.5).pass());
    }

    #[test]
    fn noisy_median_is_saved_by_an_honest_minimum() {
        // Baseline: min 50, median 55 — the spmv_csr_circuit3000 shape
        // that motivated the secondary signal (one slow sample on a
        // loaded CI host inflates the median, not the min).
        let baseline = parse_baseline(&emit_baseline(
            &parse_dump(&stats_line("a/1", 50.0, 55.0)).unwrap(),
            "",
            "",
            1,
            "scalar",
        ))
        .unwrap();
        // Fresh median blows the 2.5x gate (3.1x) but the min is 1.1x:
        // scheduling noise, not a kernel regression.
        let fresh = parse_dump(&stats_line("a/1", 55.0, 170.5)).unwrap();
        let rep = compare(&baseline, &fresh, 2.5);
        assert!(rep.pass(), "{}", rep.render(2.5));
        assert!(rep.rows[0].ratio > 2.5);
        assert!(rep.rows[0].min_ratio.unwrap() < 2.5);
        assert!(rep.render(2.5).contains("noisy"), "{}", rep.render(2.5));
        // When the min regresses too, the gate fails.
        let fresh = parse_dump(&stats_line("a/1", 160.0, 170.5)).unwrap();
        let rep = compare(&baseline, &fresh, 2.5);
        assert!(!rep.pass());
        assert_eq!(rep.regressions, vec!["a/1".to_string()]);
    }

    #[test]
    fn baselines_without_minimums_gate_on_median_alone() {
        let text = "{\"medians_us\":{\"a/1\":100.0}}";
        let baseline = parse_baseline(text).unwrap();
        let fresh = parse_dump(&stats_line("a/1", 10.0, 260.0)).unwrap();
        let rep = compare(&baseline, &fresh, 2.5);
        assert!(!rep.pass(), "no recorded min means no noise escape hatch");
        assert_eq!(rep.rows[0].min_ratio, None);
        assert!(rep.render(2.5).contains("no baseline min"), "{}", rep.render(2.5));
    }

    #[test]
    fn zero_baseline_is_an_exact_count_gate() {
        let baseline = parse_baseline(&emit_baseline(
            &parse_dump(&dump_line("metrics/sdc_detector_events_total", 0.0)).unwrap(),
            "",
            "",
            1,
            "scalar",
        ))
        .unwrap();
        // 0 == 0: pass at any tolerance.
        let fresh = parse_dump(&dump_line("metrics/sdc_detector_events_total", 0.0)).unwrap();
        let rep = compare(&baseline, &fresh, 2.5);
        assert!(rep.pass(), "{}", rep.render(2.5));
        assert_eq!(rep.rows[0].ratio, 1.0);
        // Any nonzero count against a zero baseline fails unconditionally
        // (the min is nonzero too, so the secondary signal agrees).
        let fresh = parse_dump(&dump_line("metrics/sdc_detector_events_total", 1.0)).unwrap();
        let rep = compare(&baseline, &fresh, 1e9);
        assert!(!rep.pass());
        assert_eq!(rep.regressions.len(), 1);
    }

    #[test]
    fn gate_fails_on_missing_bench_and_ignores_extras() {
        let baseline = parse_baseline(&emit_baseline(
            &parse_dump(&dump_line("a/1", 100.0)).unwrap(),
            "",
            "",
            1,
            "scalar",
        ))
        .unwrap();
        let fresh = parse_dump(&dump_line("new/3", 1.0)).unwrap();
        let rep = compare(&baseline, &fresh, 2.5);
        assert!(!rep.pass());
        assert_eq!(rep.missing, vec!["a/1".to_string()]);
        assert!(rep.render(2.5).contains("missing"));
    }
}
