//! JSON rendering of solve summaries.
//!
//! [`SolveSummary`] is the single source of field names and outcome
//! labels for solve summaries; [`SolveSummary::to_json`] is its one JSON
//! rendering. The `sdc_server` wire protocol embeds it in every `solve`
//! response, so every surface reads the same digest through the one
//! workspace codec, [`sdc_obs::json`].

use crate::telemetry::SolveSummary;
use sdc_obs::json::Json;

impl SolveSummary {
    /// The summary as a canonical JSON object (sorted keys, exact
    /// floats). Optional fields (`detail`, `true_residual_norm`) are
    /// omitted when absent, so a serialization of the same solve is
    /// identical run to run.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("outcome", Json::str(self.outcome)),
            ("converged", Json::Bool(self.converged)),
            ("iterations", Json::Num(self.iterations as f64)),
            ("total_inner_iterations", Json::Num(self.total_inner_iterations as f64)),
            ("residual_norm", Json::Num(self.residual_norm)),
            ("detector_events", Json::Num(self.detector_events as f64)),
            ("detector_restarts", Json::Num(self.detector_restarts as f64)),
            ("injections", Json::Num(self.injections as f64)),
            ("inner_rejections", Json::Num(self.inner_rejections as f64)),
        ];
        if let Some(t) = self.true_residual_norm {
            fields.push(("true_residual_norm", Json::Num(t)));
        }
        if let Some(d) = &self.detail {
            fields.push(("detail", Json::str(d.as_str())));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{SolveOutcome, SolveReport};

    fn sample_report() -> SolveReport {
        let mut rep = SolveReport::new();
        rep.outcome = SolveOutcome::Converged;
        rep.iterations = 9;
        rep.total_inner_iterations = 225;
        rep.residual_norm = 1.5e-9;
        rep.true_residual_norm = Some(2.5e-9);
        rep
    }

    #[test]
    fn summary_json_is_canonical_and_round_trips() {
        let line = SolveSummary::from_report(&sample_report()).to_json().to_line();
        // Canonical: parse → serialize is the identity.
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.to_line(), line);
        assert_eq!(back.field("outcome").unwrap().as_str().unwrap(), "converged");
        assert_eq!(back.field("iterations").unwrap().as_usize().unwrap(), 9);
        assert_eq!(back.field("total_inner_iterations").unwrap().as_usize().unwrap(), 225);
        assert_eq!(back.field("true_residual_norm").unwrap().as_f64().unwrap(), 2.5e-9);
        assert!(back.get("detail").is_none(), "absent detail must be omitted");
    }

    #[test]
    fn non_finite_residuals_survive_serialization() {
        let mut rep = sample_report();
        rep.residual_norm = f64::NAN;
        rep.true_residual_norm = Some(f64::INFINITY);
        let line = SolveSummary::from_report(&rep).to_json().to_line();
        let back = Json::parse(&line).unwrap();
        assert!(back.field("residual_norm").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(back.field("true_residual_norm").unwrap().as_f64().unwrap(), f64::INFINITY);
    }
}
