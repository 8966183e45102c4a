//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! Every frame is one complete JSON object on one line (JSONL). A
//! request carries a `"cmd"` field naming the operation and an optional
//! `"id"` (any JSON scalar) that the server echoes on every response and
//! event line it produces for that request, so clients can multiplex.
//!
//! Responses are canonical JSON ([`sdc_campaigns::json`]: sorted keys,
//! round-trip-exact floats), which is what makes the served-vs-offline
//! byte-diff in CI and the determinism tests possible. Requests are
//! parsed *strictly*: an unknown field is a structured error, not a
//! silent ignore — so a typo cannot quietly change a solve, and a client
//! cannot smuggle in server-level settings (`threads` is the canonical
//! example: the worker pool is sized once at startup).
//!
//! See `crates/server/README.md` for the full protocol reference with a
//! copy-pasteable session.

use sdc_campaigns::json::{Json, JsonError};
use sdc_campaigns::spec::{class_parse, class_str, position_parse, position_str};
use sdc_campaigns::{CampaignSpec, DetectorPolicy, LsqSpec, ProblemSpec};
use sdc_faults::campaign::{FaultClass, FaultTarget, MgsPosition};
use sdc_gmres::precond::PrecondKind;
use sdc_sparse::SparseFormat;
use std::path::PathBuf;

/// Wire protocol version, reported by `stats`.
pub const PROTOCOL_VERSION: u64 = 1;

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError { offset: 0, msg: msg.into() })
}

/// Rejects unknown fields so client typos fail loudly. `threads` gets a
/// dedicated message: the pool is sized once at server startup and is
/// not a per-request knob.
fn check_keys(v: &Json, allowed: &[&str]) -> Result<(), JsonError> {
    if let Json::Obj(m) = v {
        for k in m.keys() {
            if k == "threads" {
                return err("unknown field 'threads': the worker-pool size is fixed at server \
                     startup (serve --threads / SDC_THREADS) and reported by stats");
            }
            if !allowed.contains(&k.as_str()) {
                return err(format!("unknown field '{k}'"));
            }
        }
    }
    Ok(())
}

/// Parses a solve frame's `trace` field: a bool (the legacy capture
/// flag) or an object `{"id": <string>, "capture": <bool>}`. Strict
/// like every other sub-object — an unknown subfield is a structured
/// error, not a silently dropped correlation id.
fn parse_trace_field(v: &Json, d: &SolveRequest) -> Result<(bool, Option<String>), JsonError> {
    match v.get("trace") {
        None => Ok((d.trace, None)),
        Some(Json::Bool(b)) => Ok((*b, None)),
        Some(t @ Json::Obj(m)) => {
            for k in m.keys() {
                if k != "id" && k != "capture" {
                    return err(format!("unknown trace subfield '{k}' (id, capture)"));
                }
            }
            let id = match t.get("id") {
                Some(s) => Some(s.as_str()?.to_string()),
                None => None,
            };
            let capture = match t.get("capture") {
                Some(b) => b.as_bool()?,
                None => false,
            };
            Ok((capture, id))
        }
        Some(_) => err("trace must be a bool or an object {\"id\":…,\"capture\":…}"),
    }
}

/// Best-effort extraction of a solve frame's trace id without erroring:
/// the event loop uses this to stamp `conn.state` records for a request
/// it has not validated yet. Gated on a cheap substring check so the
/// overwhelmingly common untraced frame costs one `contains`.
pub fn peek_trace_id(line: &str) -> Option<String> {
    if !line.contains("\"trace\"") {
        return None;
    }
    let v = Json::parse(line).ok()?;
    Some(v.get("trace")?.get("id")?.as_str().ok()?.to_string())
}

/// Which solver a [`SolveRequest`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Plain (optionally restarted) GMRES.
    Gmres,
    /// Flexible GMRES with the identity preconditioner.
    Fgmres,
    /// FT-GMRES: reliable outer FGMRES around unreliable inner GMRES —
    /// the only solver that accepts a fault-injection spec.
    FtGmres,
}

impl SolverKind {
    /// The wire string.
    pub fn as_str(&self) -> &'static str {
        match self {
            SolverKind::Gmres => "gmres",
            SolverKind::Fgmres => "fgmres",
            SolverKind::FtGmres => "ftgmres",
        }
    }

    /// Parses the wire string.
    pub fn parse(s: &str) -> Result<Self, JsonError> {
        match s {
            "gmres" => Ok(SolverKind::Gmres),
            "fgmres" => Ok(SolverKind::Fgmres),
            "ftgmres" => Ok(SolverKind::FtGmres),
            other => err(format!("unknown solver '{other}' (gmres, fgmres or ftgmres)")),
        }
    }
}

/// A single-SDC fault coordinate for a served FT-GMRES solve — the same
/// (class, position, aggregate iteration) vocabulary as the campaign
/// engine's sweep grids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Fault magnitude class.
    pub class: FaultClass,
    /// MGS loop position (for `target=precond` it selects the first/last
    /// element of the preconditioner apply instead).
    pub position: MgsPosition,
    /// 1-based aggregate inner iteration to fault.
    pub aggregate: usize,
    /// Which kernel the fault strikes: the orthogonalization loop
    /// (`mgs`, the paper's surface, default) or the opaque
    /// preconditioner application (`precond`, the sequel's surface).
    /// Elided from the wire when it is the default.
    pub target: FaultTarget,
}

impl FaultSpec {
    /// Serializes to the wire form.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("class", Json::str(class_str(self.class))),
            ("position", Json::str(position_str(self.position))),
            ("aggregate", Json::Num(self.aggregate as f64)),
        ];
        if self.target != FaultTarget::Mgs {
            fields.push(("target", Json::str(self.target.as_str())));
        }
        Json::obj(fields)
    }

    /// Parses the wire form.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        check_keys(v, &["class", "position", "aggregate", "target"])?;
        let spec = FaultSpec {
            class: class_parse(v.field("class")?.as_str()?)?,
            position: position_parse(v.field("position")?.as_str()?)?,
            aggregate: v.field("aggregate")?.as_usize()?,
            target: match v.get("target") {
                Some(t) => {
                    FaultTarget::parse(t.as_str()?).map_err(|msg| JsonError { offset: 0, msg })?
                }
                None => FaultTarget::Mgs,
            },
        };
        if spec.aggregate == 0 {
            return err("fault.aggregate is 1-based and must be >= 1");
        }
        Ok(spec)
    }
}

/// Where a `load_matrix` request gets its matrix from.
#[derive(Clone, Debug, PartialEq)]
pub enum MatrixSource {
    /// A gallery/file problem, in the campaign engine's `ProblemSpec`
    /// vocabulary (`poisson`, `dcop`, `matrix_market` by server path).
    Problem(ProblemSpec),
    /// Inline COO triplets.
    Coo {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// `(row, col, value)` triplets; duplicates sum.
        entries: Vec<(usize, usize, f64)>,
    },
    /// Inline Matrix Market text.
    MatrixMarket(String),
}

/// `load_matrix`: parse/generate a matrix once, cache it under a
/// content-hashed key (and an optional friendly name) for later solves.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadMatrixRequest {
    /// Optional alias registered alongside the content key.
    pub name: Option<String>,
    /// The matrix source.
    pub source: MatrixSource,
    /// Marks a shard-to-shard replica push (see `replicate`): a sharded
    /// server accepts the load even when the name routes to another
    /// shard, because the owner is deliberately copying it here. Elided
    /// from the wire when false.
    pub replica: bool,
}

/// `replicate`: copy a matrix this server holds to every listed peer
/// shard, so they can serve solves on it directly. The values travel as
/// round-trip-exact COO triplets, and each peer's returned content key
/// is checked against the owner's — a replica that would diverge by one
/// bit is a hard error.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicateRequest {
    /// Registry key or alias of the matrix to copy.
    pub matrix: String,
    /// Peer addresses (`host:port`). The cluster client fills this with
    /// every other shard; empty means "nothing to push" and succeeds
    /// (the offline baseline), keeping cluster and offline responses
    /// byte-identical.
    pub peers: Vec<String>,
}

/// `solve`: one linear solve against a registered matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveRequest {
    /// Registry key or alias of the operator.
    pub matrix: String,
    /// Which solver to run.
    pub solver: SolverKind,
    /// Right-hand side; defaults to the registered problem's `b = A·1`.
    pub b: Option<Vec<f64>>,
    /// Relative residual tolerance.
    pub tol: f64,
    /// Iteration cap (outer iterations for nested solvers).
    pub maxit: usize,
    /// GMRES restart length (`gmres` only; `None` = no restarting).
    pub restart: Option<usize>,
    /// Inner iterations per outer iteration (`ftgmres` only).
    pub inner_iters: usize,
    /// Sparse storage engine (bitwise-invisible to results).
    pub format: SparseFormat,
    /// Right preconditioner (`none`, `jacobi`, `ilu0`, `chebyshev`).
    /// Applied as right preconditioning in `gmres`, flexibly in
    /// `fgmres`, and inside the sandboxed inner solves in `ftgmres`.
    pub precond: PrecondKind,
    /// Detector policy (the campaign vocabulary; `none` = off).
    pub detector: DetectorPolicy,
    /// Projected least-squares policy.
    pub lsq: LsqSpec,
    /// Optional single-SDC injection (`ftgmres` only).
    pub fault: Option<FaultSpec>,
    /// Request seed, echoed in the response. The paper's single-fault
    /// solves are fully deterministic and do not consume it; it exists
    /// so stochastic workloads stay reproducible.
    pub seed: u64,
    /// Return the solution vector (round-trip-exact floats).
    pub return_x: bool,
    /// Capture the solve's deterministic trace (the `sdc_obs` Det
    /// channel) and return it as a `trace` array of canonical JSONL
    /// lines in the result.
    pub trace: bool,
    /// Client-assigned trace id for cross-shard correlation. On the
    /// wire the `trace` field is either a bool (legacy capture flag) or
    /// an object `{"id":…,"capture":…}`; the id is threaded through the
    /// engine as ambient context ([`sdc_obs::with_trace`]) and stamped
    /// onto span-log and flight-recorder records — never onto the det
    /// channel or the response, so traced and untraced solves stay
    /// byte-identical. Elided when absent.
    pub trace_id: Option<String>,
    /// Return the solve's exact wall-clock `duration_us` on the
    /// response. Off (and elided) by default because it makes the
    /// response bytes run-specific: byte-diff legs must not set it.
    pub timing: bool,
}

impl Default for SolveRequest {
    fn default() -> Self {
        Self {
            matrix: String::new(),
            solver: SolverKind::FtGmres,
            b: None,
            tol: 1e-8,
            maxit: 100,
            restart: None,
            inner_iters: 25,
            format: SparseFormat::Auto,
            precond: PrecondKind::None,
            detector: DetectorPolicy::Off,
            lsq: LsqSpec::Standard,
            fault: None,
            seed: 0,
            return_x: false,
            trace: false,
            trace_id: None,
            timing: false,
        }
    }
}

/// `campaign`: run a full campaign spec as a streaming job.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignRequest {
    /// The campaign grid to run.
    pub spec: CampaignSpec,
    /// Server-side artifact path. When given, the artifact persists and
    /// a re-request resumes it; when omitted the job runs on a scratch
    /// file that is deleted afterwards.
    pub artifact: Option<PathBuf>,
}

/// One parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Register a matrix.
    LoadMatrix(LoadMatrixRequest),
    /// Run one solve.
    Solve(SolveRequest),
    /// Run a campaign job, streaming records.
    Campaign(CampaignRequest),
    /// Copy a held matrix to peer shards.
    Replicate(ReplicateRequest),
    /// Metrics snapshot.
    Stats,
    /// Prometheus text exposition of the unified metrics registry.
    Metrics,
    /// Matrix registry listing.
    List,
    /// Begin graceful drain and stop the server.
    Shutdown,
}

impl Request {
    /// The `cmd` string of this request.
    pub fn cmd(&self) -> &'static str {
        match self {
            Request::LoadMatrix(_) => "load_matrix",
            Request::Solve(_) => "solve",
            Request::Campaign(_) => "campaign",
            Request::Replicate(_) => "replicate",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::List => "list",
            Request::Shutdown => "shutdown",
        }
    }

    /// Serializes to the wire form (no `id`; the transport attaches it).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![("cmd", Json::str(self.cmd()))];
        match self {
            Request::LoadMatrix(r) => {
                if let Some(name) = &r.name {
                    fields.push(("name", Json::str(name)));
                }
                match &r.source {
                    MatrixSource::Problem(p) => fields.push(("problem", p.to_json())),
                    MatrixSource::Coo { rows, cols, entries } => {
                        let entries = entries
                            .iter()
                            .map(|&(i, j, v)| {
                                Json::Arr(vec![
                                    Json::Num(i as f64),
                                    Json::Num(j as f64),
                                    Json::Num(v),
                                ])
                            })
                            .collect();
                        fields.push((
                            "coo",
                            Json::obj(vec![
                                ("rows", Json::Num(*rows as f64)),
                                ("cols", Json::Num(*cols as f64)),
                                ("entries", Json::Arr(entries)),
                            ]),
                        ));
                    }
                    MatrixSource::MatrixMarket(text) => fields.push(("mtx", Json::str(text))),
                }
                if r.replica {
                    fields.push(("replica", Json::Bool(true)));
                }
            }
            Request::Solve(r) => {
                fields.push(("matrix", Json::str(&r.matrix)));
                fields.push(("solver", Json::str(r.solver.as_str())));
                if let Some(b) = &r.b {
                    fields.push(("b", Json::Arr(b.iter().map(|&x| Json::Num(x)).collect())));
                }
                fields.push(("tol", Json::Num(r.tol)));
                fields.push(("maxit", Json::Num(r.maxit as f64)));
                if let Some(m) = r.restart {
                    fields.push(("restart", Json::Num(m as f64)));
                }
                fields.push(("inner_iters", Json::Num(r.inner_iters as f64)));
                if r.format != SparseFormat::Auto {
                    fields.push(("format", Json::str(r.format.as_str())));
                }
                if r.precond != PrecondKind::None {
                    fields.push(("precond", Json::str(r.precond.as_str())));
                }
                if r.detector != DetectorPolicy::Off {
                    fields.push(("detector", Json::str(r.detector.as_str())));
                }
                if r.lsq != LsqSpec::Standard {
                    fields.push(("lsq", r.lsq.to_json()));
                }
                if let Some(f) = &r.fault {
                    fields.push(("fault", f.to_json()));
                }
                if r.seed != 0 {
                    fields.push(("seed", Json::u64(r.seed)));
                }
                if r.return_x {
                    fields.push(("return_x", Json::Bool(true)));
                }
                match (&r.trace_id, r.trace) {
                    (Some(id), capture) => {
                        let mut t = vec![("id", Json::str(id))];
                        if capture {
                            t.insert(0, ("capture", Json::Bool(true)));
                        }
                        fields.push(("trace", Json::obj(t)));
                    }
                    (None, true) => fields.push(("trace", Json::Bool(true))),
                    (None, false) => {}
                }
                if r.timing {
                    fields.push(("timing", Json::Bool(true)));
                }
            }
            Request::Campaign(r) => {
                fields.push(("spec", r.spec.to_json()));
                if let Some(p) = &r.artifact {
                    fields.push(("artifact", Json::str(p.to_string_lossy())));
                }
            }
            Request::Replicate(r) => {
                fields.push(("matrix", Json::str(&r.matrix)));
                if !r.peers.is_empty() {
                    fields.push(("peers", Json::Arr(r.peers.iter().map(Json::str).collect())));
                }
            }
            Request::Stats | Request::Metrics | Request::List | Request::Shutdown => {}
        }
        Json::obj(fields)
    }

    /// Parses a request frame (strict: unknown fields are errors). The
    /// `id` field is transport-level and accepted on every command.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let cmd = v.field("cmd")?.as_str()?;
        match cmd {
            "load_matrix" => {
                check_keys(v, &["cmd", "id", "name", "problem", "coo", "mtx", "replica"])?;
                let name = match v.get("name") {
                    Some(n) => Some(n.as_str()?.to_string()),
                    None => None,
                };
                let sources = [v.get("problem"), v.get("coo"), v.get("mtx")];
                if sources.iter().flatten().count() != 1 {
                    return err("load_matrix needs exactly one of: problem, coo, mtx");
                }
                let source = if let Some(p) = v.get("problem") {
                    MatrixSource::Problem(ProblemSpec::from_json(p)?)
                } else if let Some(c) = v.get("coo") {
                    check_keys(c, &["rows", "cols", "entries"])?;
                    let entries = c
                        .field("entries")?
                        .as_arr()?
                        .iter()
                        .map(|e| {
                            let t = e.as_arr()?;
                            if t.len() != 3 {
                                return err("coo entry must be [row, col, value]");
                            }
                            Ok((t[0].as_usize()?, t[1].as_usize()?, t[2].as_f64()?))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    MatrixSource::Coo {
                        rows: c.field("rows")?.as_usize()?,
                        cols: c.field("cols")?.as_usize()?,
                        entries,
                    }
                } else {
                    MatrixSource::MatrixMarket(v.field("mtx")?.as_str()?.to_string())
                };
                let replica = match v.get("replica") {
                    Some(b) => b.as_bool()?,
                    None => false,
                };
                Ok(Request::LoadMatrix(LoadMatrixRequest { name, source, replica }))
            }
            "replicate" => {
                check_keys(v, &["cmd", "id", "matrix", "peers"])?;
                let peers = match v.get("peers") {
                    Some(p) => p
                        .as_arr()?
                        .iter()
                        .map(|a| Ok(a.as_str()?.to_string()))
                        .collect::<Result<Vec<_>, JsonError>>()?,
                    None => Vec::new(),
                };
                Ok(Request::Replicate(ReplicateRequest {
                    matrix: v.field("matrix")?.as_str()?.to_string(),
                    peers,
                }))
            }
            "solve" => {
                check_keys(
                    v,
                    &[
                        "cmd",
                        "id",
                        "matrix",
                        "solver",
                        "b",
                        "tol",
                        "maxit",
                        "restart",
                        "inner_iters",
                        "format",
                        "precond",
                        "detector",
                        "lsq",
                        "fault",
                        "seed",
                        "return_x",
                        "trace",
                        "timing",
                    ],
                )?;
                let d = SolveRequest::default();
                let (trace, trace_id) = parse_trace_field(v, &d)?;
                let req = SolveRequest {
                    matrix: v.field("matrix")?.as_str()?.to_string(),
                    solver: match v.get("solver") {
                        Some(s) => SolverKind::parse(s.as_str()?)?,
                        None => d.solver,
                    },
                    b: match v.get("b") {
                        Some(b) => Some(
                            b.as_arr()?
                                .iter()
                                .map(|x| x.as_f64())
                                .collect::<Result<Vec<_>, _>>()?,
                        ),
                        None => None,
                    },
                    tol: match v.get("tol") {
                        Some(t) => t.as_f64()?,
                        None => d.tol,
                    },
                    maxit: match v.get("maxit") {
                        Some(m) => m.as_usize()?,
                        None => d.maxit,
                    },
                    restart: match v.get("restart") {
                        Some(m) => Some(m.as_usize()?),
                        None => None,
                    },
                    inner_iters: match v.get("inner_iters") {
                        Some(m) => m.as_usize()?,
                        None => d.inner_iters,
                    },
                    format: match v.get("format") {
                        Some(f) => SparseFormat::parse(f.as_str()?)
                            .map_err(|msg| JsonError { offset: 0, msg })?,
                        None => d.format,
                    },
                    precond: match v.get("precond") {
                        Some(p) => PrecondKind::parse(p.as_str()?)
                            .map_err(|msg| JsonError { offset: 0, msg })?,
                        None => d.precond,
                    },
                    detector: match v.get("detector") {
                        Some(s) => DetectorPolicy::parse(s.as_str()?)?,
                        None => d.detector,
                    },
                    lsq: match v.get("lsq") {
                        Some(l) => LsqSpec::from_json(l)?,
                        None => d.lsq,
                    },
                    fault: match v.get("fault") {
                        Some(f) => Some(FaultSpec::from_json(f)?),
                        None => None,
                    },
                    seed: match v.get("seed") {
                        Some(s) => s.as_u64()?,
                        None => d.seed,
                    },
                    return_x: match v.get("return_x") {
                        Some(b) => b.as_bool()?,
                        None => d.return_x,
                    },
                    trace,
                    trace_id,
                    timing: match v.get("timing") {
                        Some(b) => b.as_bool()?,
                        None => d.timing,
                    },
                };
                req.validate().map_err(|msg| JsonError { offset: 0, msg })?;
                Ok(Request::Solve(req))
            }
            "campaign" => {
                check_keys(v, &["cmd", "id", "spec", "artifact"])?;
                Ok(Request::Campaign(CampaignRequest {
                    spec: CampaignSpec::from_json(v.field("spec")?)?,
                    artifact: match v.get("artifact") {
                        Some(p) => Some(PathBuf::from(p.as_str()?)),
                        None => None,
                    },
                }))
            }
            "stats" => {
                check_keys(v, &["cmd", "id"])?;
                Ok(Request::Stats)
            }
            "metrics" => {
                check_keys(v, &["cmd", "id"])?;
                Ok(Request::Metrics)
            }
            "list" => {
                check_keys(v, &["cmd", "id"])?;
                Ok(Request::List)
            }
            "shutdown" => {
                check_keys(v, &["cmd", "id"])?;
                Ok(Request::Shutdown)
            }
            other => err(format!("unknown cmd '{other}'")),
        }
    }
}

impl SolveRequest {
    /// Structural validation beyond JSON well-formedness.
    pub fn validate(&self) -> Result<(), String> {
        if self.matrix.is_empty() {
            return Err("matrix must name a registered matrix (key or alias)".into());
        }
        // Negated so a NaN tolerance lands in the error branch too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.tol >= 0.0) {
            return Err("tol must be a non-negative number".into());
        }
        if self.maxit == 0 {
            return Err("maxit must be >= 1".into());
        }
        if self.inner_iters == 0 {
            return Err("inner_iters must be >= 1".into());
        }
        if self.restart == Some(0) {
            return Err("restart must be >= 1 when given".into());
        }
        if self.restart.is_some() && self.solver != SolverKind::Gmres {
            return Err("restart only applies to solver=gmres".into());
        }
        if self.fault.is_some() && self.solver != SolverKind::FtGmres {
            return Err(
                "fault injection requires solver=ftgmres (the sandboxed inner solve)".into()
            );
        }
        if let Some(f) = &self.fault {
            if f.target == FaultTarget::Precond && self.precond == PrecondKind::None {
                return Err("fault.target=precond requires a preconditioner \
                     (precond=jacobi, ilu0 or chebyshev)"
                    .into());
            }
        }
        if self.detector != DetectorPolicy::Off && self.solver == SolverKind::Fgmres {
            return Err("fgmres has no detector hook (its outer loop is the reliable layer); \
                 use solver=gmres or solver=ftgmres"
                .into());
        }
        if let Some(b) = &self.b {
            if b.iter().any(|x| !x.is_finite()) {
                return Err("b must be finite".into());
            }
        }
        Ok(())
    }
}

/// Structured error codes (the HTTP-status analogues of the protocol).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed frame or invalid request (400).
    BadRequest,
    /// Unknown matrix key/alias (404).
    NotFound,
    /// Solve queue full — backpressure, retry later (429).
    Busy,
    /// The reference routes to a different shard of the cluster; the
    /// message names the owner's index so clients can self-correct
    /// (the protocol's 307).
    WrongShard,
    /// Server is draining after `shutdown` (503).
    ShuttingDown,
    /// Unexpected server-side failure (500).
    Internal,
}

impl ErrorCode {
    /// The wire string.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NotFound => "not_found",
            ErrorCode::Busy => "busy",
            ErrorCode::WrongShard => "wrong_shard",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A success frame: `{"id":…,"ok":true,"result":…}` (the `id` appears
/// only when the request carried one).
pub fn ok_response(id: Option<&Json>, result: Json) -> Json {
    let mut fields = vec![("ok", Json::Bool(true)), ("result", result)];
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    Json::obj(fields)
}

/// An error frame: `{"id":…,"ok":false,"error":{"code":…,"message":…}}`.
pub fn error_response(id: Option<&Json>, code: ErrorCode, message: impl Into<String>) -> Json {
    let mut fields = vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj(vec![
                ("code", Json::str(code.as_str())),
                ("message", Json::str(message.into())),
            ]),
        ),
    ];
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    Json::obj(fields)
}

/// A streamed event frame (not final): `{"id":…,"event":…,…payload}`.
/// Clients keep reading until a frame with an `"ok"` field arrives.
pub fn event_response(id: Option<&Json>, event: &str, payload: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![("event", Json::str(event))];
    fields.extend(payload);
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    Json::obj(fields)
}

/// True for frames that terminate a request (response or error, as
/// opposed to a streamed event).
pub fn is_final_frame(v: &Json) -> bool {
    v.get("ok").is_some()
}

/// Gives a request frame an `id` if it lacks one, incrementing `next`.
/// `solve-client send` and `solve-client offline` share this, so their
/// outputs diff byte-for-byte.
pub fn assign_id(v: Json, next: &mut u64) -> Json {
    match v {
        Json::Obj(mut m) if !m.contains_key("id") => {
            m.insert("id".to_string(), Json::Num(*next as f64));
            *next += 1;
            Json::Obj(m)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_round_trips_with_defaults_elided() {
        let req = Request::Solve(SolveRequest { matrix: "p".into(), ..SolveRequest::default() });
        let line = req.to_json().to_line();
        assert_eq!(Request::from_json(&Json::parse(&line).unwrap()).unwrap(), req);
        // Defaults are elided from the wire form.
        assert!(!line.contains("format"), "{line}");
        assert!(!line.contains("precond"), "{line}");
        assert!(!line.contains("detector"), "{line}");
        assert!(!line.contains("return_x"), "{line}");
        assert!(!line.contains("trace"), "{line}");
        assert!(!line.contains("timing"), "{line}");
    }

    #[test]
    fn trace_field_accepts_bool_and_object_forms() {
        // Object form with id only: capture stays off.
        let v = Json::parse("{\"cmd\":\"solve\",\"matrix\":\"p\",\"trace\":{\"id\":\"req-1\"}}")
            .unwrap();
        let Request::Solve(r) = Request::from_json(&v).unwrap() else { panic!() };
        assert!(!r.trace);
        assert_eq!(r.trace_id.as_deref(), Some("req-1"));
        // id + capture round-trips through the canonical wire form.
        let req = Request::Solve(SolveRequest {
            matrix: "p".into(),
            trace: true,
            trace_id: Some("req-2".into()),
            ..SolveRequest::default()
        });
        let line = req.to_json().to_line();
        assert!(line.contains("\"trace\":{\"capture\":true,\"id\":\"req-2\"}"), "{line}");
        assert_eq!(Request::from_json(&Json::parse(&line).unwrap()).unwrap(), req);
        // id without capture serializes without the capture subfield.
        let req = Request::Solve(SolveRequest {
            matrix: "p".into(),
            trace_id: Some("req-3".into()),
            ..SolveRequest::default()
        });
        let line = req.to_json().to_line();
        assert!(line.contains("\"trace\":{\"id\":\"req-3\"}"), "{line}");
        assert_eq!(Request::from_json(&Json::parse(&line).unwrap()).unwrap(), req);
        // Unknown subfields are structured errors, like everywhere else.
        let e = Request::from_json(
            &Json::parse(
                "{\"cmd\":\"solve\",\"matrix\":\"p\",\"trace\":{\"id\":\"x\",\"sample\":1}}",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.msg.contains("unknown trace subfield 'sample'"), "{e}");
        // Non-bool, non-object forms are rejected.
        let e = Request::from_json(
            &Json::parse("{\"cmd\":\"solve\",\"matrix\":\"p\",\"trace\":7}").unwrap(),
        )
        .unwrap_err();
        assert!(e.msg.contains("trace must be a bool or an object"), "{e}");
    }

    #[test]
    fn peek_trace_id_is_cheap_and_total() {
        assert_eq!(peek_trace_id("{\"cmd\":\"solve\",\"matrix\":\"p\"}"), None);
        assert_eq!(peek_trace_id("{\"cmd\":\"solve\",\"trace\":true}"), None);
        assert_eq!(
            peek_trace_id("{\"cmd\":\"solve\",\"trace\":{\"id\":\"req-9\"}}").as_deref(),
            Some("req-9")
        );
        // Malformed frames never panic the peek.
        assert_eq!(peek_trace_id("{\"trace\":{\"id\":"), None);
    }

    #[test]
    fn precond_and_fault_target_parse_strictly() {
        // precond round-trips and unknown values are structured errors.
        let req = Request::Solve(SolveRequest {
            matrix: "p".into(),
            precond: PrecondKind::Ilu0,
            ..SolveRequest::default()
        });
        let line = req.to_json().to_line();
        assert!(line.contains("\"precond\":\"ilu0\""), "{line}");
        assert_eq!(Request::from_json(&Json::parse(&line).unwrap()).unwrap(), req);
        let e = Request::from_json(
            &Json::parse("{\"cmd\":\"solve\",\"matrix\":\"p\",\"precond\":\"amg\"}").unwrap(),
        )
        .unwrap_err();
        assert!(e.msg.contains("unknown preconditioner 'amg'"), "{e}");

        // fault.target defaults to mgs, round-trips, and rejects unknowns.
        let f = FaultSpec {
            class: FaultClass::Huge,
            position: MgsPosition::Last,
            aggregate: 3,
            target: FaultTarget::Mgs,
        };
        let line = f.to_json().to_line();
        assert!(!line.contains("target"), "{line}");
        assert_eq!(FaultSpec::from_json(&Json::parse(&line).unwrap()).unwrap(), f);
        let f = FaultSpec { target: FaultTarget::Precond, ..f };
        let line = f.to_json().to_line();
        assert!(line.contains("\"target\":\"precond\""), "{line}");
        assert_eq!(FaultSpec::from_json(&Json::parse(&line).unwrap()).unwrap(), f);
        let e = FaultSpec::from_json(
            &Json::parse(
                "{\"class\":\"huge\",\"position\":\"first\",\"aggregate\":1,\"target\":\"spmv\"}",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(e.msg.contains("unknown fault target 'spmv'"), "{e}");
    }

    #[test]
    fn solve_round_trips_fully_specified() {
        let req = Request::Solve(SolveRequest {
            matrix: "m0123456789abcdef".into(),
            solver: SolverKind::FtGmres,
            b: Some(vec![1.0, -2.5, 1e-300]),
            tol: 1e-7,
            maxit: 150,
            restart: None,
            inner_iters: 25,
            format: SparseFormat::Csr,
            precond: PrecondKind::Chebyshev,
            detector: DetectorPolicy::RestartInner,
            lsq: LsqSpec::RankRevealing { tol: 1e-12 },
            fault: Some(FaultSpec {
                class: FaultClass::Huge,
                position: MgsPosition::First,
                aggregate: 26,
                target: FaultTarget::Precond,
            }),
            seed: u64::MAX,
            return_x: true,
            trace: true,
            trace_id: Some("req-00042".into()),
            timing: true,
        });
        let line = req.to_json().to_line();
        assert_eq!(Request::from_json(&Json::parse(&line).unwrap()).unwrap(), req);
    }

    #[test]
    fn load_matrix_variants_round_trip() {
        for req in [
            Request::LoadMatrix(LoadMatrixRequest {
                name: Some("p24".into()),
                source: MatrixSource::Problem(ProblemSpec::Poisson { m: 24 }),
                replica: false,
            }),
            Request::LoadMatrix(LoadMatrixRequest {
                name: None,
                source: MatrixSource::Coo {
                    rows: 2,
                    cols: 2,
                    entries: vec![(0, 0, 4.0), (1, 1, 0.5), (0, 1, -1.0)],
                },
                replica: false,
            }),
            Request::LoadMatrix(LoadMatrixRequest {
                name: Some("file".into()),
                source: MatrixSource::MatrixMarket(
                    "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n".into(),
                ),
                replica: false,
            }),
            Request::LoadMatrix(LoadMatrixRequest {
                name: Some("hot".into()),
                source: MatrixSource::Problem(ProblemSpec::Poisson { m: 8 }),
                replica: true,
            }),
        ] {
            let line = req.to_json().to_line();
            assert_eq!(Request::from_json(&Json::parse(&line).unwrap()).unwrap(), req, "{line}");
        }
        // The replica marker is elided when false (offline/served diffs
        // depend on canonical elision).
        let line = Request::LoadMatrix(LoadMatrixRequest {
            name: None,
            source: MatrixSource::Problem(ProblemSpec::Poisson { m: 4 }),
            replica: false,
        })
        .to_json()
        .to_line();
        assert!(!line.contains("replica"), "{line}");
    }

    #[test]
    fn replicate_round_trips_and_parses_strictly() {
        for req in [
            Request::Replicate(ReplicateRequest { matrix: "p".into(), peers: vec![] }),
            Request::Replicate(ReplicateRequest {
                matrix: "m0123456789abcdef".into(),
                peers: vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
            }),
        ] {
            let line = req.to_json().to_line();
            assert_eq!(Request::from_json(&Json::parse(&line).unwrap()).unwrap(), req, "{line}");
        }
        // Empty peer lists are elided; unknown fields stay fatal.
        let line = Request::Replicate(ReplicateRequest { matrix: "p".into(), peers: vec![] })
            .to_json()
            .to_line();
        assert!(!line.contains("peers"), "{line}");
        let e = Request::from_json(
            &Json::parse("{\"cmd\":\"replicate\",\"matrix\":\"p\",\"shards\":2}").unwrap(),
        )
        .unwrap_err();
        assert!(e.msg.contains("unknown field 'shards'"), "{e}");
        assert!(Request::from_json(&Json::parse("{\"cmd\":\"replicate\"}").unwrap()).is_err());
    }

    #[test]
    fn campaign_and_plain_commands_round_trip() {
        let spec = CampaignSpec::paper_shape("wire", vec![ProblemSpec::Poisson { m: 8 }]);
        for req in [
            Request::Campaign(CampaignRequest { spec, artifact: Some(PathBuf::from("a.jsonl")) }),
            Request::Stats,
            Request::Metrics,
            Request::List,
            Request::Shutdown,
        ] {
            let line = req.to_json().to_line();
            assert_eq!(Request::from_json(&Json::parse(&line).unwrap()).unwrap(), req);
        }
    }

    #[test]
    fn unknown_fields_are_rejected_and_threads_gets_a_pointed_message() {
        // A typo, and the retired kernel-tier field.
        for (key, value) in [("bogus", "1"), ("kernel_tier", "\"strict\"")] {
            let line = format!("{{\"cmd\":\"solve\",\"matrix\":\"p\",\"{key}\":{value}}}");
            let e = Request::from_json(&Json::parse(&line).unwrap()).unwrap_err();
            assert!(e.msg.contains(&format!("unknown field '{key}'")), "{e}");
        }

        let e = Request::from_json(
            &Json::parse("{\"cmd\":\"solve\",\"matrix\":\"p\",\"threads\":8}").unwrap(),
        )
        .unwrap_err();
        assert!(e.msg.contains("fixed at server startup"), "{e}");
        // stats/list/shutdown are strict too.
        let e = Request::from_json(&Json::parse("{\"cmd\":\"stats\",\"threads\":2}").unwrap())
            .unwrap_err();
        assert!(e.msg.contains("threads"), "{e}");
    }

    #[test]
    fn validation_rejects_degenerate_solves() {
        let ok = |f: &dyn Fn(&mut SolveRequest)| {
            let mut r = SolveRequest { matrix: "p".into(), ..SolveRequest::default() };
            f(&mut r);
            r.validate()
        };
        assert!(ok(&|_| {}).is_ok());
        assert!(ok(&|r| r.matrix.clear()).is_err());
        assert!(ok(&|r| r.tol = f64::NAN).is_err());
        assert!(ok(&|r| r.maxit = 0).is_err());
        assert!(ok(&|r| r.inner_iters = 0).is_err());
        assert!(ok(&|r| {
            r.solver = SolverKind::Gmres;
            r.fault = Some(FaultSpec {
                class: FaultClass::Huge,
                position: MgsPosition::First,
                aggregate: 1,
                target: FaultTarget::Mgs,
            });
        })
        .is_err());
        // A precond-target fault needs a preconditioner to strike.
        assert!(ok(&|r| {
            r.fault = Some(FaultSpec {
                class: FaultClass::Huge,
                position: MgsPosition::First,
                aggregate: 1,
                target: FaultTarget::Precond,
            });
        })
        .is_err());
        assert!(ok(&|r| {
            r.precond = PrecondKind::Ilu0;
            r.fault = Some(FaultSpec {
                class: FaultClass::Huge,
                position: MgsPosition::First,
                aggregate: 1,
                target: FaultTarget::Precond,
            });
        })
        .is_ok());
        assert!(ok(&|r| r.b = Some(vec![1.0, f64::NAN])).is_err());
        assert!(ok(&|r| r.restart = Some(10)).is_err(), "restart needs solver=gmres");
        assert!(ok(&|r| {
            r.solver = SolverKind::Gmres;
            r.restart = Some(10);
        })
        .is_ok());
        // fgmres has no detector hook: a detector there would be
        // silently ignored, which the protocol forbids.
        assert!(ok(&|r| {
            r.solver = SolverKind::Fgmres;
            r.detector = DetectorPolicy::RestartInner;
        })
        .is_err());
        assert!(ok(&|r| {
            r.solver = SolverKind::Gmres;
            r.detector = DetectorPolicy::RestartInner;
        })
        .is_ok());
    }

    #[test]
    fn response_helpers_shape_and_finality() {
        let id = Json::Num(7.0);
        let ok = ok_response(Some(&id), Json::obj(vec![("x", Json::Num(1.0))]));
        assert_eq!(ok.to_line(), "{\"id\":7,\"ok\":true,\"result\":{\"x\":1}}");
        assert!(is_final_frame(&ok));
        let e = error_response(None, ErrorCode::Busy, "queue full");
        assert!(e.to_line().contains("\"code\":\"busy\""));
        assert!(is_final_frame(&e));
        let ev = event_response(Some(&id), "record", vec![("record", Json::Null)]);
        assert!(!is_final_frame(&ev));
    }

    #[test]
    fn assign_id_fills_gaps_only() {
        let mut next = 1;
        let a = assign_id(Json::parse("{\"cmd\":\"stats\"}").unwrap(), &mut next);
        assert_eq!(a.field("id").unwrap().as_usize().unwrap(), 1);
        let b = assign_id(Json::parse("{\"cmd\":\"stats\",\"id\":\"mine\"}").unwrap(), &mut next);
        assert_eq!(b.field("id").unwrap().as_str().unwrap(), "mine");
        assert_eq!(next, 2);
    }
}
