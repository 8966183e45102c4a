//! The declarative campaign specification.
//!
//! A [`CampaignSpec`] describes a full scenario grid — problems, fault
//! classes, MGS positions, detector policies, least-squares policies,
//! sweep stride and the base seed — as data. The executor turns it into a
//! deterministic sequence of work units; nothing about *how* the grid is
//! run (sharding, parallelism, resume) lives here.
//!
//! A spec is one JSON object (see `crates/campaigns/README.md` for the
//! format). The grid is a union of `blocks`, each a cross product of its
//! lists; this is what lets one spec express the paper's figures exactly
//! (six undetected series plus the detector-on class-1 series) without
//! running the full cross product of every axis.

use crate::json::{Json, JsonError};
use crate::problems::{self, Problem};
use crate::sweep::CampaignConfig;
use sdc_faults::campaign::{FaultClass, MgsPosition};
use sdc_gmres::prelude::{DetectorResponse, LstsqPolicy, PrecondKind};
use sdc_sparse::MAX_DIM;
use std::path::PathBuf;

/// Current spec/artifact format version.
pub const FORMAT_VERSION: u64 = 1;

/// Every top-level key [`CampaignSpec::to_json`] can emit.
const SPEC_KEYS: [&str; 12] = [
    "version",
    "name",
    "problems",
    "inner_iters",
    "outer_tol",
    "outer_max",
    "stride",
    "seed",
    "norm2_iters",
    "blocks",
    "format",
    "precond",
];

/// How one evaluation problem is constructed.
#[derive(Clone, Debug, PartialEq)]
pub enum ProblemSpec {
    /// `gallery('poisson', m)` with `b = A·1`.
    Poisson {
        /// Grid side; the matrix is `m² × m²`.
        m: usize,
    },
    /// The synthetic `mult_dcop_03` stand-in, equilibrated.
    Dcop {
        /// Circuit node count.
        nodes: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A Matrix Market file from disk.
    MatrixMarket {
        /// Path to the `.mtx` file.
        path: PathBuf,
        /// Apply symmetric diagonal equilibration after loading.
        equilibrate: bool,
    },
}

impl ProblemSpec {
    /// Builds the problem (loads/generates the matrix, forms `b = A·1`).
    ///
    /// # Panics
    /// Panics where [`ProblemSpec::try_build`] returns an error.
    pub fn build(&self) -> Problem {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the problem, or says why it cannot be built: an unreadable
    /// or malformed Matrix Market file, a circuit of fewer than two
    /// nodes, or a problem of more than [`MAX_DIM`] (2²⁴) unknowns.
    pub fn try_build(&self) -> Result<Problem, String> {
        let too_big = |what: String| format!("{what} is above the {MAX_DIM}-unknown limit");
        match self {
            ProblemSpec::Poisson { m } => match m.checked_mul(*m) {
                Some(n) if n <= MAX_DIM => Ok(problems::poisson(*m)),
                _ => Err(too_big(format!("poisson m={m}"))),
            },
            ProblemSpec::Dcop { nodes, .. } if *nodes < 2 => {
                Err(format!("dcop needs at least 2 nodes, got {nodes}"))
            }
            ProblemSpec::Dcop { nodes, .. } if *nodes > MAX_DIM => {
                Err(too_big(format!("dcop nodes={nodes}")))
            }
            ProblemSpec::Dcop { nodes, seed } => Ok(problems::dcop(*nodes, *seed)),
            ProblemSpec::MatrixMarket { path, equilibrate } => {
                let mut a = sdc_sparse::io::read_matrix_market(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                if *equilibrate {
                    problems::equilibrate(&mut a);
                }
                Ok(Problem::with_ones_solution(format!("mtx ({})", path.display()), a))
            }
        }
    }

    /// Serializes to the spec's JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            ProblemSpec::Poisson { m } => {
                Json::obj(vec![("kind", Json::str("poisson")), ("m", Json::Num(*m as f64))])
            }
            ProblemSpec::Dcop { nodes, seed } => Json::obj(vec![
                ("kind", Json::str("dcop")),
                ("nodes", Json::Num(*nodes as f64)),
                ("seed", Json::u64(*seed)),
            ]),
            ProblemSpec::MatrixMarket { path, equilibrate } => Json::obj(vec![
                ("kind", Json::str("matrix_market")),
                ("path", Json::str(path.to_string_lossy())),
                ("equilibrate", Json::Bool(*equilibrate)),
            ]),
        }
    }

    /// Parses the spec's JSON form.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.field("kind")?.as_str()? {
            "poisson" => Ok(ProblemSpec::Poisson { m: v.field("m")?.as_usize()? }),
            "dcop" => Ok(ProblemSpec::Dcop {
                nodes: v.field("nodes")?.as_usize()?,
                seed: v.field("seed")?.as_u64()?,
            }),
            "matrix_market" => Ok(ProblemSpec::MatrixMarket {
                path: PathBuf::from(v.field("path")?.as_str()?),
                equilibrate: v.field("equilibrate")?.as_bool()?,
            }),
            other => Err(JsonError { offset: 0, msg: format!("unknown problem kind '{other}'") }),
        }
    }
}

/// The detector axis of the grid: off, or on with one of the responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DetectorPolicy {
    /// No detector.
    Off,
    /// Detector in observation mode.
    Record,
    /// Detector restarts the inner solve on violation.
    RestartInner,
    /// Detector aborts the inner solve on violation.
    AbortInner,
    /// Detector halts the whole solver on violation.
    Halt,
}

impl DetectorPolicy {
    /// The solver-side response, `None` when the detector is off.
    pub fn response(&self) -> Option<DetectorResponse> {
        match self {
            DetectorPolicy::Off => None,
            DetectorPolicy::Record => Some(DetectorResponse::Record),
            DetectorPolicy::RestartInner => Some(DetectorResponse::RestartInner),
            DetectorPolicy::AbortInner => Some(DetectorResponse::AbortInner),
            DetectorPolicy::Halt => Some(DetectorResponse::Halt),
        }
    }

    /// The spec string for this policy.
    pub fn as_str(&self) -> &'static str {
        match self {
            DetectorPolicy::Off => "none",
            DetectorPolicy::Record => "record",
            DetectorPolicy::RestartInner => "restart_inner",
            DetectorPolicy::AbortInner => "abort_inner",
            DetectorPolicy::Halt => "halt",
        }
    }

    /// Parses the spec string.
    pub fn parse(s: &str) -> Result<Self, JsonError> {
        match s {
            "none" => Ok(DetectorPolicy::Off),
            "record" => Ok(DetectorPolicy::Record),
            "restart_inner" => Ok(DetectorPolicy::RestartInner),
            "abort_inner" => Ok(DetectorPolicy::AbortInner),
            "halt" => Ok(DetectorPolicy::Halt),
            other => Err(JsonError { offset: 0, msg: format!("unknown detector '{other}'") }),
        }
    }
}

/// The projected-least-squares axis (§VI-D policies).
#[derive(Clone, Copy, Debug)]
pub enum LsqSpec {
    /// Approach 1: plain back-substitution.
    Standard,
    /// Approach 2: rank-revealing only on non-finite values.
    FallbackOnNonFinite {
        /// Relative singular-value truncation tolerance.
        tol: f64,
    },
    /// Approach 3: always rank-revealing.
    RankRevealing {
        /// Relative singular-value truncation tolerance.
        tol: f64,
    },
}

impl LsqSpec {
    /// The solver-side policy.
    pub fn policy(&self) -> LstsqPolicy {
        match self {
            LsqSpec::Standard => LstsqPolicy::Standard,
            LsqSpec::FallbackOnNonFinite { tol } => LstsqPolicy::FallbackOnNonFinite { tol: *tol },
            LsqSpec::RankRevealing { tol } => LstsqPolicy::RankRevealing { tol: *tol },
        }
    }

    /// Serializes: `"standard"` or an object with a `tol`.
    pub fn to_json(&self) -> Json {
        match self {
            LsqSpec::Standard => Json::str("standard"),
            LsqSpec::FallbackOnNonFinite { tol } => Json::obj(vec![
                ("kind", Json::str("fallback_non_finite")),
                ("tol", Json::Num(*tol)),
            ]),
            LsqSpec::RankRevealing { tol } => {
                Json::obj(vec![("kind", Json::str("rank_revealing")), ("tol", Json::Num(*tol))])
            }
        }
    }

    /// Parses either form.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Json::Str(s) = v {
            return match s.as_str() {
                "standard" => Ok(LsqSpec::Standard),
                other => Err(JsonError { offset: 0, msg: format!("unknown lsq policy '{other}'") }),
            };
        }
        match v.field("kind")?.as_str()? {
            "fallback_non_finite" => {
                Ok(LsqSpec::FallbackOnNonFinite { tol: v.field("tol")?.as_f64()? })
            }
            "rank_revealing" => Ok(LsqSpec::RankRevealing { tol: v.field("tol")?.as_f64()? }),
            other => Err(JsonError { offset: 0, msg: format!("unknown lsq policy '{other}'") }),
        }
    }

    /// Short display label.
    pub fn label(&self) -> String {
        match self {
            LsqSpec::Standard => "standard".to_string(),
            LsqSpec::FallbackOnNonFinite { tol } => format!("fallback({tol:e})"),
            LsqSpec::RankRevealing { tol } => format!("rank_revealing({tol:e})"),
        }
    }

    /// Filename-safe tag (no parentheses), unique per policy + tolerance.
    pub fn file_tag(&self) -> String {
        match self {
            LsqSpec::Standard => "standard".to_string(),
            LsqSpec::FallbackOnNonFinite { tol } => format!("fallback{tol:e}"),
            LsqSpec::RankRevealing { tol } => format!("rankrev{tol:e}"),
        }
    }
}

// Equality/hashing go through the exact bit pattern of `tol`, so an
// `LsqSpec` can key scenario maps.
impl PartialEq for LsqSpec {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for LsqSpec {}
impl std::hash::Hash for LsqSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}
impl LsqSpec {
    fn key(&self) -> (u8, u64) {
        match self {
            LsqSpec::Standard => (0, 0),
            LsqSpec::FallbackOnNonFinite { tol } => (1, tol.to_bits()),
            LsqSpec::RankRevealing { tol } => (2, tol.to_bits()),
        }
    }
}

/// One block of the grid: the cross product of its four lists.
#[derive(Clone, Debug, PartialEq)]
pub struct GridBlock {
    /// Fault classes to sweep.
    pub classes: Vec<FaultClass>,
    /// MGS positions to sweep.
    pub positions: Vec<MgsPosition>,
    /// Detector policies to sweep.
    pub detectors: Vec<DetectorPolicy>,
    /// Least-squares policies to sweep.
    pub lsq: Vec<LsqSpec>,
}

impl GridBlock {
    /// The paper's default undetected block: all classes × both positions.
    pub fn undetected_full() -> Self {
        GridBlock {
            classes: FaultClass::all().to_vec(),
            positions: MgsPosition::both().to_vec(),
            detectors: vec![DetectorPolicy::Off],
            lsq: vec![LsqSpec::Standard],
        }
    }

    /// The §VII-E comparison block: class-1 with the detector responding.
    pub fn detector_class1() -> Self {
        GridBlock {
            classes: vec![FaultClass::Huge],
            positions: MgsPosition::both().to_vec(),
            detectors: vec![DetectorPolicy::RestartInner],
            lsq: vec![LsqSpec::Standard],
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("classes", Json::Arr(self.classes.iter().map(|c| Json::str(class_str(*c))).collect())),
            (
                "positions",
                Json::Arr(self.positions.iter().map(|p| Json::str(position_str(*p))).collect()),
            ),
            (
                "detectors",
                Json::Arr(self.detectors.iter().map(|d| Json::str(d.as_str())).collect()),
            ),
            ("lsq", Json::Arr(self.lsq.iter().map(|l| l.to_json()).collect())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let classes = v
            .field("classes")?
            .as_arr()?
            .iter()
            .map(|c| class_parse(c.as_str()?))
            .collect::<Result<Vec<_>, _>>()?;
        let positions = v
            .field("positions")?
            .as_arr()?
            .iter()
            .map(|p| position_parse(p.as_str()?))
            .collect::<Result<Vec<_>, _>>()?;
        let detectors = v
            .field("detectors")?
            .as_arr()?
            .iter()
            .map(|d| DetectorPolicy::parse(d.as_str()?))
            .collect::<Result<Vec<_>, _>>()?;
        let lsq = v
            .field("lsq")?
            .as_arr()?
            .iter()
            .map(LsqSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GridBlock { classes, positions, detectors, lsq })
    }
}

/// Spec string for a fault class.
pub fn class_str(c: FaultClass) -> &'static str {
    match c {
        FaultClass::Huge => "huge",
        FaultClass::Slight => "slight",
        FaultClass::Tiny => "tiny",
    }
}

/// Parses a fault-class spec string.
pub fn class_parse(s: &str) -> Result<FaultClass, JsonError> {
    match s {
        "huge" => Ok(FaultClass::Huge),
        "slight" => Ok(FaultClass::Slight),
        "tiny" => Ok(FaultClass::Tiny),
        other => Err(JsonError { offset: 0, msg: format!("unknown fault class '{other}'") }),
    }
}

/// Spec string for an MGS position.
pub fn position_str(p: MgsPosition) -> &'static str {
    match p {
        MgsPosition::First => "first",
        MgsPosition::Last => "last",
    }
}

/// Parses an MGS-position spec string.
pub fn position_parse(s: &str) -> Result<MgsPosition, JsonError> {
    match s {
        "first" => Ok(MgsPosition::First),
        "last" => Ok(MgsPosition::Last),
        other => Err(JsonError { offset: 0, msg: format!("unknown position '{other}'") }),
    }
}

/// One fully-resolved series of the grid: everything but the aggregate
/// iteration coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// Index into [`CampaignSpec::problems`].
    pub problem: usize,
    /// Fault class of this series.
    pub class: FaultClass,
    /// MGS position of this series.
    pub position: MgsPosition,
    /// Detector policy of this series.
    pub detector: DetectorPolicy,
    /// Least-squares policy of this series.
    pub lsq: LsqSpec,
}

impl Scenario {
    /// Serializes (embedded in every experiment record).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("problem", Json::Num(self.problem as f64)),
            ("class", Json::str(class_str(self.class))),
            ("position", Json::str(position_str(self.position))),
            ("detector", Json::str(self.detector.as_str())),
            ("lsq", self.lsq.to_json()),
        ])
    }

    /// Parses the embedded form.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Scenario {
            problem: v.field("problem")?.as_usize()?,
            class: class_parse(v.field("class")?.as_str()?)?,
            position: position_parse(v.field("position")?.as_str()?)?,
            detector: DetectorPolicy::parse(v.field("detector")?.as_str()?)?,
            lsq: LsqSpec::from_json(v.field("lsq")?)?,
        })
    }

    /// One-line display label (problem name supplied by the caller).
    pub fn label(&self) -> String {
        format!(
            "p{} {} / {} / detector={} / lsq={}",
            self.problem,
            self.class.label(),
            self.position.label(),
            self.detector.as_str(),
            self.lsq.label()
        )
    }
}

/// The full declarative campaign description.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (used in reports and artifact headers).
    pub name: String,
    /// Problems to run every block on.
    pub problems: Vec<ProblemSpec>,
    /// Inner iterations per outer iteration (paper: 25).
    pub inner_iters: usize,
    /// Outer relative-residual tolerance.
    pub outer_tol: f64,
    /// Outer iteration cap.
    pub outer_max: usize,
    /// Sweep stride over aggregate inner iterations (1 = full figures).
    pub stride: usize,
    /// Base seed; every work unit derives a stable per-unit seed from it.
    pub seed: u64,
    /// Power-iteration count for the `‖A‖₂` estimate recorded per
    /// problem; 0 skips the estimate (keeps tiny CI artifacts free of
    /// libm-dependent values).
    pub norm2_iters: usize,
    /// Sparse storage engine for the operators (`csr`, `sell` or
    /// `auto`). SELL SpMV is bitwise identical to CSR, so the choice is
    /// a pure performance knob — artifact bytes cannot depend on it. The
    /// field is omitted from the JSON when it is the default (`auto`),
    /// keeping pre-existing specs and artifact headers byte-stable.
    pub format: sdc_sparse::SparseFormat,
    /// Right preconditioner for every solve of the campaign (`none`,
    /// `jacobi`, `ilu0` or `chebyshev`). Like `format`, the field is
    /// omitted from the JSON when it is the default (`none`), so
    /// pre-existing specs and artifact headers keep their exact bytes —
    /// and unlike `format`, a non-default value *does* change results,
    /// which is why it lives in the spec and therefore in the artifact
    /// header.
    pub precond: PrecondKind,
    /// The scenario grid, as a union of cross-product blocks.
    pub blocks: Vec<GridBlock>,
}

impl CampaignSpec {
    /// A paper-shaped campaign (undetected full grid + detector class-1)
    /// over the given problems.
    pub fn paper_shape(name: impl Into<String>, problems: Vec<ProblemSpec>) -> Self {
        CampaignSpec {
            name: name.into(),
            problems,
            inner_iters: 25,
            outer_tol: 1e-7,
            outer_max: 150,
            stride: 1,
            seed: 0x5dc_2014,
            norm2_iters: 0,
            format: sdc_sparse::SparseFormat::Auto,
            precond: PrecondKind::None,
            blocks: vec![GridBlock::undetected_full(), GridBlock::detector_class1()],
        }
    }

    /// The solver configuration realizing one scenario of this spec.
    pub fn campaign_config(&self, scenario: &Scenario) -> CampaignConfig {
        CampaignConfig {
            inner_iters: self.inner_iters,
            outer_tol: self.outer_tol,
            outer_max: self.outer_max,
            detector_response: scenario.detector.response(),
            stride: self.stride,
            inner_lsq: scenario.lsq.policy(),
            format: self.format,
            precond: self.precond,
        }
    }

    /// The baseline (fault-free, detector-off) configuration for one
    /// least-squares policy.
    pub fn baseline_config(&self, lsq: LsqSpec) -> CampaignConfig {
        CampaignConfig {
            inner_iters: self.inner_iters,
            outer_tol: self.outer_tol,
            outer_max: self.outer_max,
            detector_response: None,
            stride: self.stride,
            inner_lsq: lsq.policy(),
            format: self.format,
            precond: self.precond,
        }
    }

    /// The strided aggregate-iteration domain of one scenario whose
    /// baseline took `ff_outer` outer iterations. The executor's unit
    /// enumeration and the report's completeness accounting both use
    /// this — they must never disagree on what "complete" means.
    pub fn unit_domain(&self, ff_outer: usize) -> impl Iterator<Item = usize> {
        (1..=self.inner_iters * ff_outer).step_by(self.stride.max(1))
    }

    /// Every scenario of the grid, in canonical order: problems in spec
    /// order, then blocks in spec order, each block's cross product in
    /// (lsq, detector, position, class) order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for problem in 0..self.problems.len() {
            for block in &self.blocks {
                for &lsq in &block.lsq {
                    for &detector in &block.detectors {
                        for &position in &block.positions {
                            for &class in &block.classes {
                                out.push(Scenario { problem, class, position, detector, lsq });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Distinct (problem, lsq) baseline keys, in first-appearance order.
    pub fn baseline_keys(&self) -> Vec<(usize, LsqSpec)> {
        let mut out: Vec<(usize, LsqSpec)> = Vec::new();
        for s in self.scenarios() {
            let key = (s.problem, s.lsq);
            if !out.contains(&key) {
                out.push(key);
            }
        }
        out
    }

    /// Serializes the spec. The `format` field is written only when it
    /// differs from the default `auto`, so adding the axis changed no
    /// existing spec or artifact-header bytes.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("version", Json::Num(FORMAT_VERSION as f64)),
            ("name", Json::str(&self.name)),
            ("problems", Json::Arr(self.problems.iter().map(|p| p.to_json()).collect())),
            ("inner_iters", Json::Num(self.inner_iters as f64)),
            ("outer_tol", Json::Num(self.outer_tol)),
            ("outer_max", Json::Num(self.outer_max as f64)),
            ("stride", Json::Num(self.stride as f64)),
            ("seed", Json::u64(self.seed)),
            ("norm2_iters", Json::Num(self.norm2_iters as f64)),
            ("blocks", Json::Arr(self.blocks.iter().map(|b| b.to_json()).collect())),
        ];
        if self.format != sdc_sparse::SparseFormat::Auto {
            fields.push(("format", Json::str(self.format.as_str())));
        }
        if self.precond != PrecondKind::None {
            fields.push(("precond", Json::str(self.precond.as_str())));
        }
        Json::obj(fields)
    }

    /// Parses and validates a spec. A key [`CampaignSpec::to_json`]
    /// never emits is an error, so a misspelled or retired field fails
    /// loudly instead of silently running the default.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Json::Obj(m) = v {
            if let Some(k) = m.keys().find(|k| !SPEC_KEYS.contains(&k.as_str())) {
                return Err(JsonError { offset: 0, msg: format!("unknown spec field '{k}'") });
            }
        }
        let version = v.field("version")?.as_u64()?;
        if version != FORMAT_VERSION {
            return Err(JsonError {
                offset: 0,
                msg: format!("unsupported spec version {version} (expected {FORMAT_VERSION})"),
            });
        }
        let spec = CampaignSpec {
            name: v.field("name")?.as_str()?.to_string(),
            problems: v
                .field("problems")?
                .as_arr()?
                .iter()
                .map(ProblemSpec::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            inner_iters: v.field("inner_iters")?.as_usize()?,
            outer_tol: v.field("outer_tol")?.as_f64()?,
            outer_max: v.field("outer_max")?.as_usize()?,
            stride: v.field("stride")?.as_usize()?,
            seed: v.field("seed")?.as_u64()?,
            norm2_iters: match v.get("norm2_iters") {
                Some(n) => n.as_usize()?,
                None => 0,
            },
            format: match v.get("format") {
                Some(f) => sdc_sparse::SparseFormat::parse(f.as_str()?)
                    .map_err(|msg| JsonError { offset: 0, msg })?,
                None => sdc_sparse::SparseFormat::Auto,
            },
            precond: match v.get("precond") {
                Some(p) => {
                    PrecondKind::parse(p.as_str()?).map_err(|msg| JsonError { offset: 0, msg })?
                }
                None => PrecondKind::None,
            },
            blocks: v
                .field("blocks")?
                .as_arr()?
                .iter()
                .map(GridBlock::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        spec.validate().map_err(|msg| JsonError { offset: 0, msg })?;
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Structural validation beyond JSON well-formedness.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("spec name must be non-empty".into());
        }
        if self.problems.is_empty() {
            return Err("spec needs at least one problem".into());
        }
        if self.blocks.is_empty() {
            return Err("spec needs at least one grid block".into());
        }
        if self.inner_iters == 0 {
            return Err("inner_iters must be >= 1".into());
        }
        if self.stride == 0 {
            return Err("stride must be >= 1".into());
        }
        if self.outer_max == 0 {
            return Err("outer_max must be >= 1".into());
        }
        // Negated so that a NaN tolerance also lands in the error branch.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.outer_tol > 0.0) {
            return Err("outer_tol must be positive".into());
        }
        for (i, b) in self.blocks.iter().enumerate() {
            if b.classes.is_empty()
                || b.positions.is_empty()
                || b.detectors.is_empty()
                || b.lsq.is_empty()
            {
                return Err(format!("block {i} has an empty axis"));
            }
        }
        // A scenario appearing twice would make the artifact ambiguous.
        let scenarios = self.scenarios();
        let mut seen = std::collections::HashSet::new();
        for s in &scenarios {
            if !seen.insert(*s) {
                return Err(format!("duplicate scenario in grid: {}", s.label()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> CampaignSpec {
        CampaignSpec {
            name: "test".into(),
            problems: vec![
                ProblemSpec::Poisson { m: 8 },
                ProblemSpec::Dcop { nodes: 300, seed: 7 },
            ],
            inner_iters: 8,
            outer_tol: 1e-7,
            outer_max: 60,
            stride: 5,
            seed: 42,
            norm2_iters: 0,
            format: sdc_sparse::SparseFormat::Auto,
            precond: PrecondKind::None,
            blocks: vec![GridBlock::undetected_full(), GridBlock::detector_class1()],
        }
    }

    #[test]
    fn spec_json_round_trip() {
        let spec = sample_spec();
        let line = spec.to_json().to_line();
        let back = CampaignSpec::parse(&line).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json().to_line(), line, "serialization is canonical");
    }

    #[test]
    fn format_field_round_trips_and_defaults_to_auto() {
        use sdc_sparse::SparseFormat;
        // Default (auto) is omitted from the serialization: legacy specs
        // and artifact headers keep their exact bytes.
        let spec = sample_spec();
        assert!(!spec.to_json().to_line().contains("format"));
        assert_eq!(
            CampaignSpec::parse(&spec.to_json().to_line()).unwrap().format,
            SparseFormat::Auto
        );
        // Non-default values round-trip.
        for fmt in [SparseFormat::Csr, SparseFormat::Sell] {
            let spec = CampaignSpec { format: fmt, ..sample_spec() };
            let line = spec.to_json().to_line();
            assert!(line.contains(&format!("\"format\":\"{fmt}\"")), "{line}");
            let back = CampaignSpec::parse(&line).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.campaign_config(&back.scenarios()[0]).format, fmt);
        }
        // Unknown strings are a parse error.
        let bad = sample_spec().to_json().to_line().replacen("{", "{\"format\":\"coo\",", 1);
        assert!(CampaignSpec::parse(&bad).is_err());
    }

    #[test]
    fn precond_field_round_trips_and_defaults_to_none() {
        // Default (none) is omitted from the serialization: legacy specs
        // and artifact headers keep their exact bytes.
        let spec = sample_spec();
        assert!(!spec.to_json().to_line().contains("precond"));
        assert_eq!(
            CampaignSpec::parse(&spec.to_json().to_line()).unwrap().precond,
            PrecondKind::None
        );
        // Non-default values round-trip and reach the solver config.
        for kind in [PrecondKind::Jacobi, PrecondKind::Ilu0, PrecondKind::Chebyshev] {
            let spec = CampaignSpec { precond: kind, ..sample_spec() };
            let line = spec.to_json().to_line();
            assert!(line.contains(&format!("\"precond\":\"{kind}\"")), "{line}");
            let back = CampaignSpec::parse(&line).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.campaign_config(&back.scenarios()[0]).precond, kind);
            assert_eq!(back.baseline_config(LsqSpec::Standard).precond, kind);
        }
        // Unknown strings are a structured parse error, not a default.
        let bad = sample_spec().to_json().to_line().replacen("{", "{\"precond\":\"amg\",", 1);
        let err = CampaignSpec::parse(&bad).unwrap_err();
        assert!(err.msg.contains("unknown preconditioner 'amg'"), "{}", err.msg);
    }

    #[test]
    fn unknown_top_level_keys_are_rejected() {
        // Every key to_json can emit parses back.
        let spec = CampaignSpec {
            format: sdc_sparse::SparseFormat::Sell,
            precond: PrecondKind::Ilu0,
            ..sample_spec()
        };
        let line = spec.to_json().to_line();
        assert_eq!(CampaignSpec::parse(&line).unwrap(), spec);
        // A retired field and a typo are structured errors, not defaults.
        for (key, value) in [("kernel_tier", "\"strict\""), ("strid", "5")] {
            let bad = line.replacen('{', &format!("{{\"{key}\":{value},"), 1);
            let err = CampaignSpec::parse(&bad).unwrap_err();
            assert_eq!(err.msg, format!("unknown spec field '{key}'"));
        }
    }

    #[test]
    fn scenario_enumeration_is_grid_times_problems() {
        let spec = sample_spec();
        // Block 1: 3 classes × 2 positions; block 2: 1 × 2. Two problems.
        assert_eq!(spec.scenarios().len(), 2 * (6 + 2));
        // Canonical order is deterministic.
        assert_eq!(spec.scenarios(), spec.scenarios());
        // Problem-major.
        assert!(spec.scenarios()[..8].iter().all(|s| s.problem == 0));
    }

    #[test]
    fn baseline_keys_deduplicate() {
        let spec = sample_spec();
        // Both blocks use the standard lsq policy: one baseline per problem.
        assert_eq!(spec.baseline_keys().len(), 2);
    }

    #[test]
    fn scenario_round_trip() {
        for s in sample_spec().scenarios() {
            let back = Scenario::from_json(&s.to_json()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let mut s = sample_spec();
        s.stride = 0;
        assert!(s.validate().is_err());

        let mut s = sample_spec();
        s.problems.clear();
        assert!(s.validate().is_err());

        let mut s = sample_spec();
        s.blocks[0].classes.clear();
        assert!(s.validate().is_err());

        // Duplicated block => duplicate scenarios.
        let mut s = sample_spec();
        let b = s.blocks[0].clone();
        s.blocks.push(b);
        assert!(s.validate().is_err());
    }

    #[test]
    fn lsq_spec_forms_parse() {
        let std_form = Json::parse("\"standard\"").unwrap();
        assert_eq!(LsqSpec::from_json(&std_form).unwrap(), LsqSpec::Standard);
        let rr = Json::parse("{\"kind\":\"rank_revealing\",\"tol\":1e-12}").unwrap();
        assert_eq!(LsqSpec::from_json(&rr).unwrap(), LsqSpec::RankRevealing { tol: 1e-12 });
        assert!(LsqSpec::from_json(&Json::parse("\"bogus\"").unwrap()).is_err());
    }

    #[test]
    fn paper_shape_matches_figure_series_count() {
        let spec = CampaignSpec::paper_shape("fig3", vec![ProblemSpec::Poisson { m: 100 }]);
        assert_eq!(spec.scenarios().len(), 8, "6 undetected + 2 detector series");
        spec.validate().unwrap();
    }
}
