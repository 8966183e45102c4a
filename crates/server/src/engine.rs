//! The request engine: everything the service does, minus the sockets.
//!
//! [`Engine::handle_line`] maps one request frame to one final response
//! frame (plus streamed event frames through a sink). The TCP layer
//! ([`crate::server`]) and the offline mode of `solve-client` both call
//! it, which is what makes the served-vs-offline byte-diff meaningful:
//! there is exactly one implementation of the service semantics.
//!
//! Determinism contract: for a fixed request sequence, every `result`
//! frame the engine produces is a pure function of that sequence — no
//! timestamps, no paths, no thread-count-dependent values. (`stats` and
//! `list` report live state and are exempt.) Every solver kernel below
//! is bitwise thread-count-independent, so the contract holds at any
//! `--threads` setting; `tests/determinism.rs` pins it.

use crate::metrics::Metrics;
use crate::protocol::{
    error_response, event_response, ok_response, CampaignRequest, ErrorCode, LoadMatrixRequest,
    MatrixSource, ReplicateRequest, Request, SolveRequest, SolverKind, PROTOCOL_VERSION,
};
use crate::registry::MatrixRegistry;
use crate::scheduler::{Scheduler, SolveJob, SubmitError};
use crate::shard::{shard_of, ShardSpec};
use sdc_campaigns::json::{fmt_f64, Json};
use sdc_campaigns::{Problem, RunOptions};
use sdc_faults::campaign::{CampaignPoint, FaultTarget};
use sdc_faults::NoFaults;
use sdc_gmres::operator::true_rel_residual;
use sdc_gmres::prelude::*;
use sdc_sparse::MAX_DIM;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// How the event loop receives frames from the engine: `emit(frame,
/// last)` is called once per streamed event (`last = false`) and
/// exactly once with the final frame (`last = true`). `Arc` because
/// long-running commands move it onto worker/background threads.
pub type Emit = Arc<dyn Fn(Json, bool) + Send + Sync>;

/// Per-request context a transport can attach to an async frame. The
/// engine's outputs never depend on it — hooks only steer side-band
/// observability (flight-recorder post-mortems).
#[derive(Default)]
pub struct SolveHooks {
    /// Queried once, when a solve finishes: `true` means the requesting
    /// connection died mid-solve and the response is undeliverable. The
    /// solve still completes (results are deterministic and metrics
    /// must count it), but its last moments are worth keeping — with a
    /// `--flight-dir` configured, the worker writes a post-mortem with
    /// reason `disconnect`.
    pub delivery_dead: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
}

/// Engine construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads. `0` snapshots the current `sdc_parallel` setting
    /// (`SDC_THREADS` / hardware default); nonzero pins the pool once.
    /// Either way the value is frozen at construction: the protocol has
    /// no way to change it, and `stats` reports it for the lifetime of
    /// the engine.
    pub threads: usize,
    /// Solve-queue capacity (backpressure threshold).
    pub queue_cap: usize,
    /// Max same-matrix solves per scheduler dispatch.
    pub batch_max: usize,
    /// Cluster identity (`--shard i/N`). `None` (the default) serves
    /// the whole key space; `Some` makes the engine refuse references
    /// owned by other shards with `wrong_shard` (replicas excepted).
    pub shard: Option<ShardSpec>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { threads: 0, queue_cap: 64, batch_max: 8, shard: None }
    }
}

/// The service brain: registry + scheduler + metrics + handlers.
pub struct Engine {
    registry: MatrixRegistry,
    /// Shared counters (the TCP layer updates connection gauges).
    pub metrics: Arc<Metrics>,
    scheduler: Scheduler,
    /// Pool size frozen at construction.
    threads: usize,
    shutdown: AtomicBool,
    /// Serializes campaign jobs: two concurrent jobs could otherwise
    /// race on one artifact file.
    campaign_lock: Mutex<()>,
    /// Cluster identity (None = unsharded).
    shard: Option<ShardSpec>,
    /// Threads running long commands dispatched from the async path
    /// (campaigns, replications); joined by [`Engine::drain`].
    background: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Post-mortem directory (`serve --flight-dir`). When set, every
    /// solve runs under a per-solve [`sdc_obs::flight::FlightRecorder`]
    /// and dumps it here when it ends badly.
    flight_dir: Mutex<Option<PathBuf>>,
}

impl Engine {
    /// Builds an engine, freezing the worker-pool size (see
    /// [`EngineConfig::threads`]).
    pub fn new(cfg: EngineConfig) -> Self {
        let threads = if cfg.threads > 0 {
            sdc_parallel::set_threads(cfg.threads);
            cfg.threads
        } else {
            sdc_parallel::threads()
        };
        let metrics = Arc::new(Metrics::new());
        metrics.shard_index.set(cfg.shard.map_or(0, |s| s.index));
        metrics.shard_count.set(cfg.shard.map_or(1, |s| s.count));
        Self {
            registry: MatrixRegistry::new(),
            metrics: metrics.clone(),
            scheduler: Scheduler::new(cfg.queue_cap, cfg.batch_max, metrics),
            threads,
            shutdown: AtomicBool::new(false),
            campaign_lock: Mutex::new(()),
            shard: cfg.shard,
            background: Mutex::new(Vec::new()),
            flight_dir: Mutex::new(None),
        }
    }

    /// Enables flight-recorder post-mortems, written to `dir` (created
    /// on first dump).
    pub fn set_flight_dir(&self, dir: PathBuf) {
        *self.flight_dir.lock().unwrap_or_else(|e| e.into_inner()) = Some(dir);
    }

    /// The configured post-mortem directory, if any.
    pub fn flight_dir(&self) -> Option<PathBuf> {
        self.flight_dir.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The frozen worker-pool size.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The cluster identity this engine was built with.
    pub fn shard(&self) -> Option<ShardSpec> {
        self.shard
    }

    /// True once a `shutdown` request was processed.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Relaxed)
    }

    /// Finishes all queued solves, joins background command threads and
    /// stops the scheduler. Idempotent.
    pub fn drain(&self) {
        self.scheduler.drain();
        let jobs = std::mem::take(&mut *self.background.lock().unwrap_or_else(|e| e.into_inner()));
        for j in jobs {
            let _ = j.join();
        }
    }

    /// Runs `f` on a tracked background thread (joined by `drain`),
    /// sweeping already-finished handles so the list stays bounded.
    fn spawn_background(&self, f: impl FnOnce() + Send + 'static) {
        let mut jobs = self.background.lock().unwrap_or_else(|e| e.into_inner());
        jobs.retain(|j| !j.is_finished());
        jobs.push(std::thread::Builder::new().name("sdc-bg".into()).spawn(f).expect("spawn"));
    }

    /// Handles one raw frame. Event frames stream through `sink`; the
    /// returned frame is final. Never panics on client input.
    pub fn handle_line(&self, line: &str, sink: &mut dyn FnMut(&Json)) -> Json {
        let (req, id) = match self.admit(line) {
            Ok(admitted) => admitted,
            Err(resp) => return resp,
        };
        let id = id.as_ref();
        match &req {
            Request::Solve(r) => self.handle_solve(r, id),
            Request::Campaign(r) => self.handle_campaign(r, id, sink),
            Request::Replicate(r) => self.handle_replicate(r, id),
            other => self.handle_quick(other, id),
        }
    }

    /// Parses one raw frame into its request and `id`, counting it. A
    /// malformed frame, or new work while draining, comes back as the
    /// final error frame instead. The drain policy: once draining, only
    /// observation and (idempotent) shutdown are served; new work of any
    /// kind — not just solves — is refused, so a drain cannot be delayed
    /// indefinitely.
    fn admit(&self, line: &str) -> Result<(Request, Option<Json>), Json> {
        let v = Json::parse(line).map_err(|e| {
            self.metrics.protocol_errors.inc();
            error_response(None, ErrorCode::BadRequest, format!("malformed frame: {e}"))
        })?;
        let id = v.get("id").cloned();
        let req = Request::from_json(&v).map_err(|e| {
            self.metrics.protocol_errors.inc();
            error_response(id.as_ref(), ErrorCode::BadRequest, e.msg)
        })?;
        self.metrics.count_request(req.cmd());
        if self.shutdown_requested()
            && !matches!(req, Request::Stats | Request::Metrics | Request::List | Request::Shutdown)
        {
            return Err(error_response(id.as_ref(), ErrorCode::ShuttingDown, "server is draining"));
        }
        Ok((req, id))
    }

    /// The commands that complete without blocking on solvers, peers or
    /// worker threads. Callers must have admitted the request
    /// ([`Engine::admit`]).
    fn handle_quick(&self, req: &Request, id: Option<&Json>) -> Json {
        match req {
            Request::LoadMatrix(r) => self.handle_load(r, id),
            Request::Stats => ok_response(id, self.stats()),
            Request::Metrics => ok_response(id, self.prometheus()),
            Request::List => ok_response(id, self.list()),
            Request::Shutdown => {
                self.shutdown.store(true, Relaxed);
                ok_response(id, Json::obj(vec![("draining", Json::Bool(true))]))
            }
            Request::Solve(_) | Request::Campaign(_) | Request::Replicate(_) => {
                unreachable!("blocking command routed to handle_quick")
            }
        }
    }

    /// The event loop's entry point: handles one raw frame without ever
    /// blocking the calling thread on a solve, campaign or peer push.
    /// Frames flow through `emit(frame, last)` — streamed events with
    /// `last = false`, then exactly one final frame with `last = true`,
    /// possibly from another thread after this call returned. The
    /// frames (and their order) are byte-identical to what
    /// [`Engine::handle_line`] produces for the same input; only the
    /// delivery is asynchronous.
    pub fn handle_line_async(self: &Arc<Self>, line: &str, emit: Emit) {
        self.handle_line_async_with(line, emit, SolveHooks::default());
    }

    /// [`Engine::handle_line_async`] with per-request [`SolveHooks`]
    /// attached (the event loop passes a delivery-death probe so a
    /// mid-solve disconnect can trigger a flight-recorder post-mortem).
    pub fn handle_line_async_with(self: &Arc<Self>, line: &str, emit: Emit, hooks: SolveHooks) {
        let (req, id) = match self.admit(line) {
            Ok(admitted) => admitted,
            Err(resp) => return emit(resp, true),
        };
        match req {
            Request::Solve(r) => {
                let done = {
                    let emit = emit.clone();
                    Box::new(move |resp| emit(resp, true))
                };
                if let Some(rejection) = self.start_solve(&r, id.as_ref(), done, hooks) {
                    emit(rejection, true);
                }
            }
            Request::Campaign(r) => {
                // Campaigns block on the campaign lock and run whole
                // sweep grids; never on the loop thread.
                let engine = self.clone();
                self.spawn_background(move || {
                    let mut sink = |ev: &Json| emit(ev.clone(), false);
                    let resp = engine.handle_campaign(&r, id.as_ref(), &mut sink);
                    emit(resp, true);
                });
            }
            Request::Replicate(r) => {
                // Peer pushes are synchronous TCP round trips.
                let engine = self.clone();
                self.spawn_background(move || {
                    emit(engine.handle_replicate(&r, id.as_ref()), true);
                });
            }
            other => emit(self.handle_quick(&other, id.as_ref()), true),
        }
    }

    // ---- load_matrix ----

    fn handle_load(&self, r: &LoadMatrixRequest, id: Option<&Json>) -> Json {
        // Sharded: a *named* load must land on the name's owner — the
        // name is the routing key later solves will hash — unless it is
        // an explicit replica push from the owner. Anonymous loads are
        // only addressable by content key, which routes wherever it
        // routes; accepting them anywhere keeps single-shard clients
        // working and the replica path needs no exemption logic.
        if let (Some(shard), Some(name), false) = (&self.shard, &r.name, r.replica) {
            let owner = shard_of(name, shard.count);
            if owner != shard.index {
                return error_response(
                    id,
                    ErrorCode::WrongShard,
                    format!(
                        "matrix name '{name}' routes to shard {owner}/{count}; this is shard \
                         {index}/{count} (set replica:true only for owner-driven copies)",
                        count = shard.count,
                        index = shard.index,
                    ),
                );
            }
        }
        let problem = match build_problem(&r.source) {
            Ok(p) => p,
            Err(msg) => {
                self.metrics.protocol_errors.inc();
                return error_response(id, ErrorCode::BadRequest, msg);
            }
        };
        let (key, problem, cached) = self.registry.insert(r.name.as_deref(), problem);
        if cached {
            self.metrics.cache_hits.inc();
        } else {
            self.metrics.cache_misses.inc();
        }
        // The content key and hit/miss verdict are pure functions of the
        // request sequence, so this is a Det-channel event.
        if sdc_obs::enabled() {
            static EV_LOOKUP: sdc_obs::Callsite =
                sdc_obs::Callsite { name: "registry.lookup", channel: sdc_obs::Channel::Det };
            sdc_obs::Event::new(&EV_LOOKUP)
                .str("key", key.clone())
                .bool("cached", cached)
                .u64("nnz", problem.a.nnz() as u64)
                .emit();
        }
        let mut fields = vec![
            ("key", Json::str(&key)),
            ("cached", Json::Bool(cached)),
            ("rows", Json::Num(problem.a.nrows() as f64)),
            ("cols", Json::Num(problem.a.ncols() as f64)),
            ("nnz", Json::Num(problem.a.nnz() as f64)),
        ];
        if let Some(name) = &r.name {
            fields.push(("name", Json::str(name)));
        }
        ok_response(id, Json::obj(fields))
    }

    // ---- solve ----

    /// Resolves a matrix reference or explains why it can't be: a
    /// sharded engine serves every matrix it actually holds (replicas
    /// included), answers `wrong_shard` with the owner's index for
    /// missing references it does not own, and `not_found` only for
    /// missing references it does.
    fn resolve_or_route(
        &self,
        reference: &str,
        id: Option<&Json>,
    ) -> Result<(String, Arc<Problem>), Json> {
        if let Some(found) = self.registry.resolve(reference) {
            return Ok(found);
        }
        if let Some(shard) = &self.shard {
            let owner = shard_of(reference, shard.count);
            if owner != shard.index {
                return Err(error_response(
                    id,
                    ErrorCode::WrongShard,
                    format!(
                        "matrix '{reference}' routes to shard {owner}/{count}; this is shard \
                         {index}/{count}",
                        count = shard.count,
                        index = shard.index,
                    ),
                ));
            }
        }
        Err(error_response(
            id,
            ErrorCode::NotFound,
            format!("unknown matrix '{reference}' (load_matrix it first, or see list)"),
        ))
    }

    /// Submits one solve to the scheduler without blocking on its
    /// completion. Returns `Some(response)` when the request was
    /// rejected synchronously (unknown matrix, bad rhs, queue full,
    /// draining) — `done` is dropped unused in that case. Otherwise the
    /// worker thread builds the final response (bytes identical to the
    /// blocking path) and hands it to `done`.
    fn start_solve(
        &self,
        r: &SolveRequest,
        id: Option<&Json>,
        done: Box<dyn FnOnce(Json) + Send>,
        hooks: SolveHooks,
    ) -> Option<Json> {
        let (key, problem) = match self.resolve_or_route(&r.matrix, id) {
            Ok(found) => found,
            Err(resp) => return Some(resp),
        };
        if let Some(b) = &r.b {
            if b.len() != problem.a.nrows() {
                return Some(error_response(
                    id,
                    ErrorCode::BadRequest,
                    format!("b has {} entries; matrix has {} rows", b.len(), problem.a.nrows()),
                ));
            }
        }

        let started = Instant::now();
        let req = r.clone();
        let job_key = key.clone();
        // `trace: true` captures the Det event stream of exactly this
        // solve: the sink is installed thread-locally around
        // execute_solve *on the worker that runs it*, so concurrent
        // solves cannot bleed into each other's traces and the captured
        // lines stay a pure function of the request sequence.
        let sink = r.trace.then(|| Arc::new(sdc_obs::trace::TraceSink::new()));
        // With `--flight-dir` set, every solve keeps a ring of its most
        // recent events (both channels) for a post-mortem.
        let flight = self.flight_dir().map(|dir| {
            (dir, Arc::new(sdc_obs::flight::FlightRecorder::new(sdc_obs::flight::DEFAULT_CAPACITY)))
        });
        let trace_id = r.trace_id.clone();
        let metrics = self.metrics.clone();
        let job_id = id.cloned();
        let job = SolveJob {
            matrix_key: key,
            trace_id: r.trace_id.clone(),
            run: Box::new(move || {
                let solve = || {
                    // The per-request root span: everything the solver
                    // opens below it (gmres.solve, pool.run, …) nests
                    // beneath this id in the span log.
                    static EV_SOLVE_EXEC: sdc_obs::Callsite =
                        sdc_obs::Callsite { name: "solve.exec", channel: sdc_obs::Channel::Timing };
                    let mut span = sdc_obs::span(&EV_SOLVE_EXEC);
                    if let Some(s) = &mut span {
                        s.str("matrix", job_key.clone()).str("solver", req.solver.as_str());
                    }
                    execute_solve(&problem, &job_key, &req)
                };
                // Compose the thread-local context inside-out: the det
                // sink closest to the solver, then the flight recorder
                // (sees both channels), then the trace id (read by
                // context-aware subscribers at render time — never by
                // anything that feeds det bytes).
                let mut body: Box<dyn FnOnce() -> Result<(Json, SolveSummary), String> + '_> =
                    Box::new(solve);
                if let Some(s) = &sink {
                    let (s, inner) = (s.clone(), body);
                    body = Box::new(move || sdc_obs::with_local(s, inner));
                }
                if let Some((_, rec)) = &flight {
                    let (rec, inner) = (rec.clone(), body);
                    body = Box::new(move || sdc_obs::with_local(rec, inner));
                }
                if let Some(tid) = &trace_id {
                    let (tid, inner) = (tid.clone(), body);
                    body = Box::new(move || sdc_obs::with_trace(tid, inner));
                }
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
                // Release the registry borrow before the response can
                // leave: a client that has the final frame must not
                // still see this solve in `list`'s in_use count.
                drop(problem);
                let duration_us = started.elapsed().as_micros() as u64;
                metrics.solve_latency.record(duration_us);
                let id = job_id.as_ref();
                let (resp, dump_reason) = match out {
                    Ok(Ok((mut result, summary))) => {
                        metrics.record_solve(&summary);
                        if let Json::Obj(fields) = &mut result {
                            if let Some(s) = &sink {
                                let lines = s.det_lines().into_iter().map(Json::str).collect();
                                fields.insert("trace".into(), Json::Arr(lines));
                            }
                            if req.timing {
                                fields.insert("duration_us".into(), Json::u64(duration_us));
                            }
                        }
                        let reason = (summary.detector_events > 0).then_some("fault_detected");
                        (ok_response(id, result), reason)
                    }
                    Ok(Err(msg)) => {
                        metrics.solves_unconverged.inc();
                        (error_response(id, ErrorCode::Internal, msg), Some("solve_error"))
                    }
                    Err(_) => (
                        error_response(id, ErrorCode::Internal, "solver panicked"),
                        Some("solver_panic"),
                    ),
                };
                // A clean solve whose requester died mid-flight is still
                // dump-worthy: the response below goes nowhere.
                let dump_reason = dump_reason.or_else(|| {
                    hooks.delivery_dead.as_ref().is_some_and(|dead| dead()).then_some("disconnect")
                });
                if let Some((dir, rec)) = &flight {
                    if let Some(reason) = dump_reason {
                        let mut header = sdc_obs::Event::new(&sdc_obs::flight::HEADER)
                            .str("reason", reason)
                            .str("matrix", job_key.clone())
                            .str("solver", req.solver.as_str());
                        if let Some(tid) = &trace_id {
                            header = header.str("trace", tid.clone());
                        }
                        if write_flight_dump(dir, reason, &rec.dump(header)).is_ok() {
                            metrics.flight_dumps.inc();
                        }
                    }
                }
                done(resp);
            }),
        };
        match self.scheduler.submit(job) {
            Err(SubmitError::Busy) => Some(error_response(
                id,
                ErrorCode::Busy,
                format!("solve queue full (capacity {}); retry later", self.scheduler.capacity()),
            )),
            Err(SubmitError::Draining) => {
                Some(error_response(id, ErrorCode::ShuttingDown, "server is draining"))
            }
            Ok(()) => None,
        }
    }

    /// The blocking solve path (offline mode and [`Engine::handle_line`]):
    /// submit, then wait for the worker's response.
    fn handle_solve(&self, r: &SolveRequest, id: Option<&Json>) -> Json {
        let (tx, rx) = mpsc::channel::<Json>();
        match self.start_solve(
            r,
            id,
            Box::new(move |resp| drop(tx.send(resp))),
            SolveHooks::default(),
        ) {
            Some(rejection) => rejection,
            None => rx.recv().unwrap_or_else(|_| {
                error_response(id, ErrorCode::Internal, "solve worker disappeared")
            }),
        }
    }

    // ---- campaign ----

    fn handle_campaign(
        &self,
        r: &CampaignRequest,
        id: Option<&Json>,
        sink: &mut dyn FnMut(&Json),
    ) -> Json {
        let _serial = self.campaign_lock.lock().unwrap_or_else(|e| e.into_inner());
        let scratch;
        let (artifact, persistent) = match &r.artifact {
            Some(p) => (p.clone(), true),
            None => {
                // Scratch name: unique per job within the process.
                static JOB_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                scratch = std::env::temp_dir().join(format!(
                    "sdc_server_job_{}_{}.jsonl",
                    std::process::id(),
                    JOB_SEQ.fetch_add(1, Relaxed)
                ));
                std::fs::remove_file(&scratch).ok();
                (scratch, false)
            }
        };
        let resume = artifact.exists();
        let (tx, rx) = mpsc::channel::<Json>();
        let spec = r.spec.clone();
        let opts = RunOptions {
            quiet: true,
            on_record: Some(Arc::new(move |rec: &sdc_campaigns::artifact::Record| {
                let _ = tx.send(rec.to_json());
            })),
            ..Default::default()
        };
        let job_artifact = artifact.clone();
        let job =
            std::thread::spawn(move || sdc_campaigns::run(&spec, &job_artifact, resume, &opts));
        // Stream records as the artifact gains them; the channel closes
        // when the run returns (the hook's sender is dropped with opts).
        for rec in rx {
            self.metrics.campaign_records_streamed.inc();
            sink(&event_response(id, "record", vec![("record", rec)]));
        }
        let summary = match job.join() {
            Ok(Ok(s)) => s,
            Ok(Err(e)) => {
                if !persistent {
                    std::fs::remove_file(&artifact).ok();
                }
                return error_response(id, ErrorCode::BadRequest, format!("campaign failed: {e}"));
            }
            Err(_) => {
                if !persistent {
                    std::fs::remove_file(&artifact).ok();
                }
                return error_response(id, ErrorCode::Internal, "campaign job panicked");
            }
        };
        self.metrics.campaigns_completed.inc();
        if !persistent {
            std::fs::remove_file(&artifact).ok();
        }
        let mut fields = vec![
            ("total_units", Json::Num(summary.total_units as f64)),
            ("skipped_units", Json::Num(summary.skipped_units as f64)),
            ("ran_units", Json::Num(summary.ran_units as f64)),
            ("remaining_units", Json::Num(summary.remaining_units as f64)),
            ("complete", Json::Bool(summary.is_complete())),
        ];
        if persistent {
            fields.push(("artifact", Json::str(artifact.to_string_lossy())));
            fields.push(("resumed", Json::Bool(resume)));
        }
        ok_response(id, Json::obj(fields))
    }

    // ---- replicate ----

    /// Pushes a held matrix to each peer as a `replica:true` load with
    /// round-trip-exact COO triplets, verifying every peer derives the
    /// same content key (bit divergence is a hard error, exactly like
    /// the registry's own collision check). The response mentions only
    /// the matrix — not the peers — so a cluster-routed replicate (the
    /// client fills in the peer list) byte-matches the offline baseline
    /// (no peers at all).
    fn handle_replicate(&self, r: &ReplicateRequest, id: Option<&Json>) -> Json {
        let (key, problem) = match self.resolve_or_route(&r.matrix, id) {
            Ok(found) => found,
            Err(resp) => return resp,
        };
        if !r.peers.is_empty() {
            // Serialize once; values as f64 survive the wire exactly
            // (fmt_f64 is round-trip-exact).
            let a = &problem.a;
            let mut entries = Vec::with_capacity(a.nnz());
            for row in 0..a.nrows() {
                let (cols, vals) = a.row(row);
                for (c, v) in cols.iter().zip(vals) {
                    entries.push((row, *c, *v));
                }
            }
            let load = Request::LoadMatrix(LoadMatrixRequest {
                // Propagate the alias only when the client routed by
                // one, so replicas answer to the same names.
                name: (r.matrix != key).then(|| r.matrix.clone()),
                source: MatrixSource::Coo { rows: a.nrows(), cols: a.ncols(), entries },
                replica: true,
            });
            let frame = load.to_json();
            for peer in &r.peers {
                let mut client = match crate::client::Client::connect_str(peer) {
                    Ok(c) => c,
                    Err(e) => {
                        return error_response(
                            id,
                            ErrorCode::Internal,
                            format!("cannot reach peer {peer}: {e}"),
                        );
                    }
                };
                let resp = match client.call(&frame) {
                    Ok(resp) => resp,
                    Err(e) => {
                        return error_response(
                            id,
                            ErrorCode::Internal,
                            format!("replica push to {peer} failed: {e}"),
                        );
                    }
                };
                let peer_key =
                    resp.get("result").and_then(|res| res.get("key")).and_then(|k| k.as_str().ok());
                if !resp.get("ok").map(|ok| ok.as_bool().unwrap_or(false)).unwrap_or(false)
                    || peer_key != Some(key.as_str())
                {
                    return error_response(
                        id,
                        ErrorCode::Internal,
                        format!(
                            "replica diverged on {peer}: expected key {key}, got {}",
                            resp.to_line()
                        ),
                    );
                }
                self.metrics.replications.inc();
            }
        }
        ok_response(id, Json::obj(vec![("key", Json::str(&key)), ("matrix", Json::str(&r.matrix))]))
    }

    // ---- stats / list ----

    /// The `metrics` command: Prometheus text plus the flat series map
    /// (the machine-readable face the bench gate consumes).
    fn prometheus(&self) -> Json {
        // Server-level gauges are set at exposition time so the text is
        // self-describing, like the `stats` object.
        self.metrics.server_threads.set(self.threads as u64);
        self.metrics.simd_lanes.set(sdc_sparse::simd::active().lanes() as u64);
        self.metrics.queue_capacity.set(self.scheduler.capacity() as u64);
        self.metrics.matrices_registered.set(self.registry.len() as u64);
        self.metrics.draining.set(self.shutdown_requested() as u64);
        let series: std::collections::BTreeMap<String, Json> =
            self.metrics.series().into_iter().map(|(k, v)| (k, Json::Num(v as f64))).collect();
        Json::obj(vec![
            ("prometheus", Json::str(self.metrics.render_prometheus())),
            ("series", Json::Obj(series)),
        ])
    }

    fn stats(&self) -> Json {
        let mut server = vec![
            ("protocol_version", Json::Num(PROTOCOL_VERSION as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("simd", Json::str(sdc_sparse::simd::active().as_str())),
            ("queue_capacity", Json::Num(self.scheduler.capacity() as f64)),
            ("batch_max", Json::Num(self.scheduler.batch_max() as f64)),
            ("matrices", Json::Num(self.registry.len() as f64)),
            ("draining", Json::Bool(self.shutdown_requested())),
        ];
        // Only sharded servers report an identity: the unsharded stats
        // object's bytes are pinned by goldens and stay unchanged.
        if let Some(shard) = &self.shard {
            server.push((
                "shard",
                Json::obj(vec![
                    ("index", Json::Num(shard.index as f64)),
                    ("count", Json::Num(shard.count as f64)),
                ]),
            ));
        }
        self.metrics.snapshot(server)
    }

    fn list(&self) -> Json {
        let entries = self
            .registry
            .list()
            .into_iter()
            .map(|m| {
                Json::obj(vec![
                    ("key", Json::str(&m.key)),
                    ("names", Json::Arr(m.names.iter().map(Json::str).collect())),
                    ("problem", Json::str(&m.problem)),
                    ("rows", Json::Num(m.rows as f64)),
                    ("cols", Json::Num(m.cols as f64)),
                    ("nnz", Json::Num(m.nnz as f64)),
                    ("in_use", Json::Num(m.in_use as f64)),
                ])
            })
            .collect();
        Json::obj(vec![("matrices", Json::Arr(entries))])
    }
}

/// Writes one flight-recorder post-mortem into `dir` (created on
/// demand). Files are process-sequence-numbered so concurrent dumps —
/// or an engine dump racing a transport-side one — never collide.
pub(crate) fn write_flight_dump(
    dir: &Path,
    reason: &str,
    content: &str,
) -> std::io::Result<PathBuf> {
    static FLIGHT_SEQ: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("flight-{:06}-{reason}.jsonl", FLIGHT_SEQ.fetch_add(1, Relaxed)));
    std::fs::write(&path, content)?;
    Ok(path)
}

/// Builds the [`Problem`] a `load_matrix` source describes.
fn build_problem(source: &MatrixSource) -> Result<Problem, String> {
    match source {
        MatrixSource::Problem(spec) => {
            // `try_build` reports unreadable files and invalid shapes; a
            // size the generators cannot allocate still panics, and that
            // must not take the event loop down.
            std::panic::catch_unwind(|| spec.try_build())
                .unwrap_or_else(|_| Err("problem spec failed to build".to_string()))
        }
        MatrixSource::Coo { rows, cols, entries } => {
            if *rows > MAX_DIM || *cols > MAX_DIM {
                return Err(format!("coo {rows}x{cols} is above the {MAX_DIM}-row/column limit"));
            }
            let mut coo = sdc_sparse::CooMatrix::new(*rows, *cols);
            for &(i, j, v) in entries {
                if i >= *rows || j >= *cols {
                    return Err(format!("coo entry ({i},{j}) out of bounds {rows}x{cols}"));
                }
                coo.push(i, j, v);
            }
            Ok(Problem::with_ones_solution(format!("coo {rows}x{cols}"), coo.to_csr()))
        }
        MatrixSource::MatrixMarket(text) => {
            let a = sdc_sparse::io::read_matrix_market_from(std::io::Cursor::new(text.as_bytes()))
                .map_err(|e| format!("bad matrix market content: {e}"))?;
            Ok(Problem::with_ones_solution(format!("mtx inline {}x{}", a.nrows(), a.ncols()), a))
        }
    }
}

/// Runs one solve and renders its canonical result object. Pure: the
/// output depends only on `(problem, key, req)` — never on timing,
/// scheduling or thread count.
fn execute_solve(
    problem: &Problem,
    key: &str,
    req: &SolveRequest,
) -> Result<(Json, SolveSummary), String> {
    let op = problem.operator(req.format);
    let b: &[f64] = req.b.as_deref().unwrap_or(&problem.b);
    // Built once per (matrix, kind) and cached on the registered
    // problem; an unfactorable matrix surfaces as a structured error.
    let precond = problem.precond(req.precond)?;
    // The Frobenius bound is an O(nnz) scan; build it only for the
    // solvers that wire a detector in (validate() rejects detector +
    // fgmres, which has no hook).
    let detector =
        || req.detector.response().map(|resp| SdcDetector::for_precond(&problem.a, precond, resp));

    let (x, rep) = match req.solver {
        SolverKind::Gmres => {
            let cfg = GmresConfig {
                tol: req.tol,
                max_iters: req.maxit,
                restart: req.restart,
                lsq_policy: req.lsq.policy(),
                detector: detector(),
            };
            gmres_solve_right_precond(op, b, None, &cfg, precond)
        }
        SolverKind::Fgmres => {
            let cfg = FgmresConfig {
                tol: req.tol,
                max_outer: req.maxit,
                lsq_policy: req.lsq.policy(),
                ..Default::default()
            };
            sdc_gmres::fgmres::fgmres_solve(op, b, None, &cfg, &mut &*precond)
        }
        SolverKind::FtGmres => {
            let cfg = FtGmresConfig {
                outer: FgmresConfig { tol: req.tol, max_outer: req.maxit, ..Default::default() },
                inner_iters: req.inner_iters,
                inner_lsq_policy: req.lsq.policy(),
                inner_detector: detector(),
            };
            match &req.fault {
                None => {
                    sdc_gmres::ftgmres::ftgmres_solve_precond(op, b, None, &cfg, precond, &NoFaults)
                }
                Some(f) => {
                    let point = CampaignPoint {
                        aggregate_iteration: f.aggregate,
                        inner_per_outer: req.inner_iters,
                        class: f.class,
                        position: f.position,
                    };
                    let inj = match f.target {
                        FaultTarget::Mgs => point.injector(),
                        // Opaque-preconditioner surface: corrupt a stored
                        // ILU factor slot, or flip one element of a
                        // transient Jacobi/Chebyshev application.
                        FaultTarget::Precond => match precond {
                            BuiltPrecond::Ilu0(ilu) => point.injector_precond_factor(ilu.nnz()),
                            _ => point.injector_precond_apply(problem.a.nrows()),
                        },
                    };
                    sdc_gmres::ftgmres::ftgmres_solve_precond(op, b, None, &cfg, precond, &inj)
                }
            }
        }
    };

    let summary = SolveSummary::from_report(&rep);
    let mut fields = vec![
        ("matrix", Json::str(key)),
        ("solver", Json::str(req.solver.as_str())),
        ("resolved_format", Json::str(problem.resolved_format(req.format).as_str())),
        ("seed", Json::u64(req.seed)),
        ("summary", summary.to_json()),
        // Reliable true residual against the CSR source of truth.
        ("true_rel_residual", Json::Num(true_rel_residual(&problem.a, b, &x))),
    ];
    if req.return_x {
        fields.push(("x", Json::Arr(x.iter().map(|&v| Json::Num(v)).collect())));
    }
    // fmt_f64 guarantees the serialized x parses back bit-identical;
    // assert the invariant cheaply on the first entry in debug builds.
    debug_assert!(
        x.is_empty() || fmt_f64(x[0]).parse::<f64>().unwrap().to_bits() == x[0].to_bits()
    );
    Ok((Json::obj(fields), summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(EngineConfig { threads: 0, queue_cap: 8, batch_max: 4, shard: None })
    }

    fn sharded(index: u64, count: u64) -> Engine {
        Engine::new(EngineConfig {
            threads: 0,
            queue_cap: 8,
            batch_max: 4,
            shard: Some(ShardSpec { index, count }),
        })
    }

    fn drive(e: &Engine, line: &str) -> (Vec<Json>, Json) {
        let mut events = Vec::new();
        let resp = e.handle_line(line, &mut |j| events.push(j.clone()));
        (events, resp)
    }

    #[test]
    fn load_solve_stats_list_flow() {
        let e = engine();
        let (_, r) = drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"id\":1,\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":10}}",
        );
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        let key = r.field("result").unwrap().field("key").unwrap().as_str().unwrap().to_string();
        assert!(!r.field("result").unwrap().field("cached").unwrap().as_bool().unwrap());

        // Solve by alias and by key, gmres and ftgmres.
        for matref in ["p", key.as_str()] {
            for solver in ["gmres", "ftgmres"] {
                let (_, r) = drive(
                    &e,
                    &format!(
                        "{{\"cmd\":\"solve\",\"matrix\":\"{matref}\",\"solver\":\"{solver}\",\"tol\":1e-8,\"maxit\":200,\"inner_iters\":10}}"
                    ),
                );
                assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
                let summary = r.field("result").unwrap().field("summary").unwrap();
                assert!(summary.field("converged").unwrap().as_bool().unwrap());
                assert!(
                    r.field("result")
                        .unwrap()
                        .field("true_rel_residual")
                        .unwrap()
                        .as_f64()
                        .unwrap()
                        < 1e-6
                );
            }
        }

        let (_, r) = drive(&e, "{\"cmd\":\"stats\"}");
        let stats = r.field("result").unwrap();
        assert_eq!(stats.field("matrices").unwrap().as_usize().unwrap(), 1);
        assert_eq!(stats.field("requests").unwrap().field("solve").unwrap().as_usize().unwrap(), 4);
        assert_eq!(stats.field("threads").unwrap().as_usize().unwrap(), e.threads());
        assert_eq!(
            stats.field("solve_latency").unwrap().field("count").unwrap().as_usize().unwrap(),
            4
        );

        let (_, r) = drive(&e, "{\"cmd\":\"list\"}");
        let list = r.field("result").unwrap().field("matrices").unwrap();
        assert_eq!(list.as_arr().unwrap().len(), 1);
        assert_eq!(list.as_arr().unwrap()[0].field("key").unwrap().as_str().unwrap(), key);
        e.drain();
    }

    #[test]
    fn malformed_and_unknown_requests_return_structured_errors() {
        let e = engine();
        let (_, r) = drive(&e, "this is not json");
        assert!(!r.field("ok").unwrap().as_bool().unwrap());
        assert_eq!(
            r.field("error").unwrap().field("code").unwrap().as_str().unwrap(),
            "bad_request"
        );
        let (_, r) = drive(&e, "{\"cmd\":\"solve\",\"matrix\":\"nope\"}");
        assert_eq!(r.field("error").unwrap().field("code").unwrap().as_str().unwrap(), "not_found");
        assert_eq!(e.metrics.protocol_errors.get(), 1);
        e.drain();
    }

    #[test]
    fn faulted_ftgmres_solve_reports_injection_and_detection() {
        let e = engine();
        drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":10}}",
        );
        let (_, r) = drive(
            &e,
            "{\"cmd\":\"solve\",\"matrix\":\"p\",\"solver\":\"ftgmres\",\"tol\":1e-7,\"maxit\":60,\"inner_iters\":10,\"detector\":\"restart_inner\",\"fault\":{\"class\":\"huge\",\"position\":\"first\",\"aggregate\":12}}",
        );
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        let s = r.field("result").unwrap().field("summary").unwrap();
        assert_eq!(s.field("injections").unwrap().as_usize().unwrap(), 1);
        assert!(s.field("detector_events").unwrap().as_usize().unwrap() >= 1);
        assert!(s.field("converged").unwrap().as_bool().unwrap());
        assert_eq!(e.metrics.injections_committed.get(), 1);
        e.drain();
    }

    #[test]
    fn timing_field_returns_duration_and_is_elided_by_default() {
        let e = engine();
        drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":8}}",
        );
        let (_, r) = drive(&e, "{\"cmd\":\"solve\",\"matrix\":\"p\",\"maxit\":60,\"timing\":true}");
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        assert!(r.field("result").unwrap().field("duration_us").unwrap().as_u64().is_ok());
        let (_, r) = drive(&e, "{\"cmd\":\"solve\",\"matrix\":\"p\",\"maxit\":60}");
        assert!(r.field("result").unwrap().get("duration_us").is_none());
        e.drain();
    }

    #[test]
    fn trace_ids_leave_response_bytes_unchanged() {
        let e = engine();
        drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":8}}",
        );
        let body = "\"id\":7,\"matrix\":\"p\",\"solver\":\"ftgmres\",\"tol\":1e-7,\"maxit\":60,\"inner_iters\":10";
        let (_, plain) = drive(&e, &format!("{{\"cmd\":\"solve\",{body}}}"));
        // An id-only trace field is pure correlation: same bytes out.
        let (_, tagged) =
            drive(&e, &format!("{{\"cmd\":\"solve\",{body},\"trace\":{{\"id\":\"req-1\"}}}}"));
        assert_eq!(plain.to_line(), tagged.to_line());
        // id + capture behaves exactly like trace:true — the result
        // grows the trace array and nothing else changes.
        let (_, captured) = drive(
            &e,
            &format!(
                "{{\"cmd\":\"solve\",{body},\"trace\":{{\"capture\":true,\"id\":\"req-2\"}}}}"
            ),
        );
        let (_, boolean) = drive(&e, &format!("{{\"cmd\":\"solve\",{body},\"trace\":true}}"));
        assert_eq!(captured.to_line(), boolean.to_line());
        let mut stripped = captured.clone();
        if let Json::Obj(resp) = &mut stripped {
            if let Some(Json::Obj(result)) = resp.get_mut("result") {
                assert!(result.remove("trace").is_some(), "capture returns the det trace");
            }
        }
        assert_eq!(plain.to_line(), stripped.to_line());
        e.drain();
    }

    #[test]
    fn fault_detection_writes_a_flight_post_mortem() {
        let e = engine();
        let dir =
            std::env::temp_dir().join(format!("sdc_flight_engine_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        e.set_flight_dir(dir.clone());
        drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":10}}",
        );
        // A clean solve dumps nothing.
        let (_, r) = drive(&e, "{\"cmd\":\"solve\",\"matrix\":\"p\",\"maxit\":60}");
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        assert!(!dir.exists(), "clean solves must not dump");
        // A detector-confirmed injection does.
        let (_, r) = drive(
            &e,
            "{\"cmd\":\"solve\",\"matrix\":\"p\",\"solver\":\"ftgmres\",\"tol\":1e-7,\"maxit\":60,\"inner_iters\":10,\"detector\":\"restart_inner\",\"fault\":{\"class\":\"huge\",\"position\":\"first\",\"aggregate\":12},\"trace\":{\"id\":\"req-9\"}}",
        );
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        e.drain();
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|f| f.unwrap().path()).collect();
        assert_eq!(files.len(), 1, "{files:?}");
        let name = files[0].file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("flight-") && name.ends_with("-fault_detected.jsonl"), "{name}");
        let content = std::fs::read_to_string(&files[0]).unwrap();
        let header = content.lines().next().unwrap();
        assert!(header.contains("\"ev\":\"flight.header\""), "{header}");
        assert!(header.contains("\"reason\":\"fault_detected\""), "{header}");
        assert!(header.contains("\"trace\":\"req-9\""), "{header}");
        assert!(
            content.contains("\"ev\":\"gmres.") || content.contains("\"ev\":\"fgmres."),
            "post-mortem retains solver events:\n{content}"
        );
        assert_eq!(e.metrics.flight_dumps.get(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preconditioned_solves_converge_for_every_kind_and_solver() {
        let e = engine();
        drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":10}}",
        );
        for solver in ["gmres", "fgmres", "ftgmres"] {
            for precond in ["jacobi", "ilu0", "chebyshev"] {
                let (_, r) = drive(
                    &e,
                    &format!(
                        "{{\"cmd\":\"solve\",\"matrix\":\"p\",\"solver\":\"{solver}\",\"precond\":\"{precond}\",\"tol\":1e-8,\"maxit\":200,\"inner_iters\":10}}"
                    ),
                );
                assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
                let res = r.field("result").unwrap();
                assert!(
                    res.field("summary").unwrap().field("converged").unwrap().as_bool().unwrap(),
                    "{solver}+{precond}: {}",
                    r.to_line()
                );
                assert!(
                    res.field("true_rel_residual").unwrap().as_f64().unwrap() < 1e-6,
                    "{solver}+{precond}"
                );
            }
        }
        e.drain();
    }

    #[test]
    fn opaque_precond_fault_is_injected_and_survived() {
        let e = engine();
        drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":10}}",
        );
        // Transient per-apply flip (chebyshev, apply 3 of solve 1 — always
        // reached) and stored-factor corruption (ilu0, aggregate selects
        // the corrupted slot and is committed on the first apply).
        for (precond, aggregate) in [("chebyshev", 3), ("ilu0", 12)] {
            let (_, r) = drive(
                &e,
                &format!(
                    "{{\"cmd\":\"solve\",\"matrix\":\"p\",\"solver\":\"ftgmres\",\"precond\":\"{precond}\",\"tol\":1e-7,\"maxit\":60,\"inner_iters\":10,\"detector\":\"record\",\"fault\":{{\"class\":\"huge\",\"position\":\"first\",\"aggregate\":{aggregate},\"target\":\"precond\"}}}}"
                ),
            );
            assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
            let s = r.field("result").unwrap().field("summary").unwrap();
            assert_eq!(
                s.field("injections").unwrap().as_usize().unwrap(),
                1,
                "{precond}: {}",
                r.to_line()
            );
            assert!(s.field("converged").unwrap().as_bool().unwrap(), "{precond}");
        }
        // target=precond without a preconditioner is a structured error.
        let (_, r) = drive(
            &e,
            "{\"cmd\":\"solve\",\"matrix\":\"p\",\"solver\":\"ftgmres\",\"fault\":{\"class\":\"huge\",\"position\":\"first\",\"aggregate\":1,\"target\":\"precond\"}}",
        );
        assert!(!r.field("ok").unwrap().as_bool().unwrap());
        assert_eq!(
            r.field("error").unwrap().field("code").unwrap().as_str().unwrap(),
            "bad_request"
        );
        e.drain();
    }

    #[test]
    fn inline_coo_and_mtx_sources_load_and_cache_hit() {
        let e = engine();
        let coo = "{\"cmd\":\"load_matrix\",\"coo\":{\"rows\":2,\"cols\":2,\"entries\":[[0,0,4],[0,1,-1],[1,0,-1],[1,1,4]]}}";
        let (_, r1) = drive(&e, coo);
        assert!(r1.field("ok").unwrap().as_bool().unwrap(), "{}", r1.to_line());
        let key1 = r1.field("result").unwrap().field("key").unwrap().as_str().unwrap().to_string();

        // The same matrix as inline Matrix Market must hit the cache.
        let mtx = "%%MatrixMarket matrix coordinate real general\\n2 2 4\\n1 1 4.0\\n1 2 -1.0\\n2 1 -1.0\\n2 2 4.0\\n";
        let (_, r2) = drive(&e, &format!("{{\"cmd\":\"load_matrix\",\"mtx\":\"{mtx}\"}}"));
        assert!(r2.field("ok").unwrap().as_bool().unwrap(), "{}", r2.to_line());
        assert!(r2.field("result").unwrap().field("cached").unwrap().as_bool().unwrap());
        assert_eq!(r2.field("result").unwrap().field("key").unwrap().as_str().unwrap(), key1);
        assert_eq!(e.metrics.cache_hits.get(), 1);

        // Solve it with an explicit right-hand side and returned x.
        let (_, r) = drive(
            &e,
            &format!(
                "{{\"cmd\":\"solve\",\"matrix\":\"{key1}\",\"solver\":\"gmres\",\"b\":[3,3],\"tol\":1e-12,\"maxit\":10,\"return_x\":true}}"
            ),
        );
        let x = r.field("result").unwrap().field("x").unwrap();
        assert_eq!(x.as_arr().unwrap().len(), 2);
        for xi in x.as_arr().unwrap() {
            assert!((xi.as_f64().unwrap() - 1.0).abs() < 1e-10);
        }
        e.drain();
    }

    #[test]
    fn bad_rhs_and_bounds_are_structured_errors() {
        let e = engine();
        drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":6}}",
        );
        let (_, r) = drive(&e, "{\"cmd\":\"solve\",\"matrix\":\"p\",\"b\":[1,2,3]}");
        assert!(!r.field("ok").unwrap().as_bool().unwrap());
        let (_, r) = drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"coo\":{\"rows\":2,\"cols\":2,\"entries\":[[5,0,1]]}}",
        );
        assert!(!r.field("ok").unwrap().as_bool().unwrap());
        assert!(r
            .field("error")
            .unwrap()
            .field("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("out of bounds"));
        e.drain();
    }

    #[test]
    fn campaign_streams_records_and_scratch_artifact_is_removed() {
        let e = engine();
        let spec = sdc_campaigns::CampaignSpec {
            inner_iters: 6,
            outer_tol: 1e-8,
            outer_max: 60,
            stride: 9,
            ..sdc_campaigns::CampaignSpec::paper_shape(
                "served",
                vec![sdc_campaigns::ProblemSpec::Poisson { m: 8 }],
            )
        };
        let req =
            format!("{{\"cmd\":\"campaign\",\"id\":9,\"spec\":{}}}", spec.to_json().to_line());
        let (events, r) = drive(&e, &req);
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        let total = r.field("result").unwrap().field("total_units").unwrap().as_usize().unwrap();
        assert!(r.field("result").unwrap().field("complete").unwrap().as_bool().unwrap());
        assert!(r.field("result").unwrap().get("artifact").is_none(), "scratch job leaks no path");
        // Streamed: header + 1 problem + 1 baseline + every unit.
        assert_eq!(events.len(), 3 + total);
        assert_eq!(events[0].field("event").unwrap().as_str().unwrap(), "record");
        assert_eq!(events[0].field("id").unwrap().as_usize().unwrap(), 9);
        assert_eq!(
            events[0].field("record").unwrap().field("kind").unwrap().as_str().unwrap(),
            "header"
        );
        e.drain();
    }

    #[test]
    fn campaign_with_an_unbuildable_precond_is_a_bad_request() {
        // Row 2 has no diagonal entry, so ILU(0) cannot be built on it.
        let mtx =
            std::env::temp_dir().join(format!("sdc_server_nodiag_{}.mtx", std::process::id()));
        let nodiag = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4\n2 1 -1\n";
        std::fs::write(&mtx, nodiag).unwrap();
        let spec = sdc_campaigns::CampaignSpec {
            precond: PrecondKind::Ilu0,
            ..sdc_campaigns::CampaignSpec::paper_shape(
                "nodiag",
                vec![sdc_campaigns::ProblemSpec::MatrixMarket {
                    path: mtx.clone(),
                    equilibrate: false,
                }],
            )
        };
        let e = engine();
        let req = format!("{{\"cmd\":\"campaign\",\"spec\":{}}}", spec.to_json().to_line());
        let (_, r) = drive(&e, &req);
        let err = r.field("error").unwrap();
        assert_eq!(err.field("code").unwrap().as_str().unwrap(), "bad_request", "{}", r.to_line());
        let msg = err.field("message").unwrap().as_str().unwrap();
        assert!(msg.starts_with("campaign failed: invalid spec: precond ilu0"), "{msg}");
        e.drain();
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn unbuildable_problem_is_a_bad_request_for_campaign_and_load_matrix() {
        use sdc_campaigns::ProblemSpec;
        let bad = std::env::temp_dir().join(format!("sdc_server_bad_{}.mtx", std::process::id()));
        std::fs::write(&bad, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 4\n")
            .unwrap();
        let missing = std::env::temp_dir().join("sdc_server_no_such_dir/missing.mtx");
        let cases = [
            (ProblemSpec::MatrixMarket { path: missing, equilibrate: false }, "cannot read"),
            (ProblemSpec::MatrixMarket { path: bad.clone(), equilibrate: true }, "parse error"),
            (ProblemSpec::Dcop { nodes: 1, seed: 7 }, "dcop needs at least 2 nodes, got 1"),
            // Sizes whose generation would overflow or abort on allocation.
            (ProblemSpec::Poisson { m: 1_000_000_000 }, "poisson m=1000000000 is above"),
            (ProblemSpec::Poisson { m: 1 << 32 }, "poisson m=4294967296 is above"),
            (ProblemSpec::Dcop { nodes: 9_000_000_000_000_000, seed: 7 }, "dcop nodes=9000000"),
        ];
        let e = engine();
        let bad_request = |req: String| {
            let r = drive(&e, &req).1;
            let err = r.field("error").unwrap();
            let code = err.field("code").unwrap().as_str().unwrap();
            assert_eq!(code, "bad_request", "{}", r.to_line());
            err.field("message").unwrap().as_str().unwrap().to_string()
        };
        for (problem, reason) in cases {
            let spec = sdc_campaigns::CampaignSpec::paper_shape("bad", vec![problem.clone()]);
            let spec = spec.to_json().to_line();
            let msg = bad_request(format!("{{\"cmd\":\"campaign\",\"spec\":{spec}}}"));
            let prefix = "campaign failed: invalid spec: problem 0 cannot be built: ";
            assert!(msg.starts_with(prefix) && msg.contains(reason), "{msg}");
            let problem = problem.to_json().to_line();
            let msg = bad_request(format!("{{\"cmd\":\"load_matrix\",\"problem\":{problem}}}"));
            assert!(msg.contains(reason), "{msg}");
        }
        // Inline sources that only declare a huge size. The JSON decoder
        // refuses integers above 9e15, so a 2⁶¹-row COO never reaches the
        // engine; 2⁴⁰ does, and must be refused before anything is sized
        // from it. A huge header nnz must not be reserved either.
        let coo = |rows: u64, cols: u64| {
            format!("\"coo\":{{\"rows\":{rows},\"cols\":{cols},\"entries\":[]}}")
        };
        let mtx = |size: &str| {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n");
            format!("\"mtx\":{}", Json::str(text).to_line())
        };
        let frames = [
            (coo(1 << 61, 2), "expected non-negative integer"),
            (coo(1 << 40, 2), "coo 1099511627776x2 is above the 16777216-row/column limit"),
            (coo(2, 1 << 40), "coo 2x1099511627776 is above the 16777216-row/column limit"),
            (mtx("2305843009213693952 2 0"), "row/column limit"),
            (mtx("1099511627776 2 0"), "row/column limit"),
            (mtx("2 2 4611686018427387904"), "header promised 4611686018427387904 entries"),
        ];
        for (source, reason) in frames {
            let msg = bad_request(format!("{{\"cmd\":\"load_matrix\",{source}}}"));
            assert!(msg.contains(reason), "{msg}");
        }
        // The same engine still loads and solves.
        drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":6}}",
        );
        let (_, r) = drive(&e, "{\"cmd\":\"solve\",\"matrix\":\"p\",\"tol\":1e-8}");
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        let summary = r.field("result").unwrap().field("summary").unwrap();
        assert!(summary.field("converged").unwrap().as_bool().unwrap());
        e.drain();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn shutdown_flags_and_rejects_followup_solves() {
        let e = engine();
        drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":6}}",
        );
        let (_, r) = drive(&e, "{\"cmd\":\"shutdown\"}");
        assert!(r.field("ok").unwrap().as_bool().unwrap());
        assert!(e.shutdown_requested());
        e.drain();
        // Draining refuses ALL new work — solves, loads and campaigns —
        // not just scheduler submissions, so a drain cannot stall.
        for req in [
            "{\"cmd\":\"solve\",\"matrix\":\"p\"}",
            "{\"cmd\":\"load_matrix\",\"problem\":{\"kind\":\"poisson\",\"m\":6}}",
            "{\"cmd\":\"campaign\",\"spec\":{}}",
        ] {
            let (_, r) = drive(&e, req);
            let code = r.field("error").unwrap().field("code").unwrap();
            // The empty campaign spec would be bad_request when not
            // draining; the drain gate must win for real specs, but a
            // parse error may fire first — accept either loud refusal.
            assert!(
                matches!(code.as_str().unwrap(), "shutting_down" | "bad_request"),
                "{}",
                r.to_line()
            );
        }
        let (_, r) = drive(&e, "{\"cmd\":\"solve\",\"matrix\":\"p\"}");
        assert_eq!(
            r.field("error").unwrap().field("code").unwrap().as_str().unwrap(),
            "shutting_down"
        );
        // Observation stays available while draining.
        let (_, r) = drive(&e, "{\"cmd\":\"stats\"}");
        assert!(r.field("result").unwrap().field("draining").unwrap().as_bool().unwrap());
    }

    #[test]
    fn async_path_produces_the_same_bytes_as_the_blocking_path() {
        let requests = [
            "{\"cmd\":\"load_matrix\",\"id\":1,\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":8}}",
            "{\"cmd\":\"solve\",\"id\":2,\"matrix\":\"p\",\"solver\":\"ftgmres\",\"tol\":1e-7,\"maxit\":60,\"inner_iters\":10,\"trace\":true}",
            "{\"cmd\":\"solve\",\"id\":3,\"matrix\":\"nope\"}",
            "not json at all",
            "{\"cmd\":\"replicate\",\"id\":4,\"matrix\":\"p\"}",
            "{\"cmd\":\"list\",\"id\":5}",
        ];
        let blocking: Vec<String> = {
            let e = engine();
            let out = requests
                .iter()
                .map(|line| {
                    let mut events = Vec::new();
                    let resp = e.handle_line(line, &mut |j| events.push(j.to_line()));
                    events.push(resp.to_line());
                    events.join("\n")
                })
                .collect();
            e.drain();
            out
        };
        let e = Arc::new(engine());
        let mut asynced = Vec::new();
        for line in requests {
            // One request in flight at a time — the per-connection
            // serialization the event loop enforces.
            let (tx, rx) = mpsc::channel::<(Json, bool)>();
            let tx = Mutex::new(tx);
            let emit: Emit = Arc::new(move |frame, last| {
                drop(tx.lock().unwrap().send((frame, last)));
            });
            e.handle_line_async(line, emit);
            let mut frames = Vec::new();
            loop {
                let (frame, last) = rx.recv().expect("final frame");
                frames.push(frame.to_line());
                if last {
                    break;
                }
            }
            asynced.push(frames.join("\n"));
        }
        e.drain();
        assert_eq!(blocking, asynced);
    }

    #[test]
    fn sharded_engine_enforces_ownership_and_serves_replicas() {
        // "p" hashes to some owner under 3 shards; build engines on
        // both sides of the split.
        let owner = shard_of("p", 3);
        let other = (owner + 1) % 3;

        // The owner accepts the named load and solves it.
        let e = sharded(owner, 3);
        let (_, r) = drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":8}}",
        );
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        let key = r.field("result").unwrap().field("key").unwrap().as_str().unwrap().to_string();
        let (_, r) = drive(&e, "{\"cmd\":\"solve\",\"matrix\":\"p\",\"maxit\":60}");
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        // Sharded stats report the identity.
        let (_, r) = drive(&e, "{\"cmd\":\"stats\"}");
        let shard = r.field("result").unwrap().field("shard").unwrap();
        assert_eq!(shard.field("index").unwrap().as_u64().unwrap(), owner);
        assert_eq!(shard.field("count").unwrap().as_u64().unwrap(), 3);
        // A replicate with no peers succeeds and echoes key + matrix.
        let (_, r) = drive(&e, "{\"cmd\":\"replicate\",\"matrix\":\"p\"}");
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        assert_eq!(r.field("result").unwrap().field("key").unwrap().as_str().unwrap(), key);
        e.drain();

        // A non-owner refuses the named load and misses with
        // wrong_shard (the owner's index in the message).
        let e = sharded(other, 3);
        let (_, r) = drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":8}}",
        );
        let code = r.field("error").unwrap().field("code").unwrap().as_str().unwrap().to_string();
        assert_eq!(code, "wrong_shard", "{}", r.to_line());
        let (_, r) = drive(&e, "{\"cmd\":\"solve\",\"matrix\":\"p\"}");
        assert_eq!(
            r.field("error").unwrap().field("code").unwrap().as_str().unwrap(),
            "wrong_shard"
        );
        assert!(r
            .field("error")
            .unwrap()
            .field("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains(&format!("shard {owner}/3")));
        // But the same load marked replica:true is accepted, after
        // which the non-owner serves the matrix directly.
        let (_, r) = drive(
            &e,
            "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"replica\":true,\"problem\":{\"kind\":\"poisson\",\"m\":8}}",
        );
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        assert_eq!(r.field("result").unwrap().field("key").unwrap().as_str().unwrap(), key);
        let (_, r) = drive(&e, "{\"cmd\":\"solve\",\"matrix\":\"p\",\"maxit\":60}");
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        // An unknown reference owned *here* is not_found, not
        // wrong_shard.
        let ghost = (0..).map(|i| format!("ghost{i}")).find(|n| shard_of(n, 3) == other).unwrap();
        let (_, r) = drive(&e, &format!("{{\"cmd\":\"solve\",\"matrix\":\"{ghost}\"}}"));
        assert_eq!(r.field("error").unwrap().field("code").unwrap().as_str().unwrap(), "not_found");
        // Anonymous loads are accepted on any shard.
        let (_, r) =
            drive(&e, "{\"cmd\":\"load_matrix\",\"problem\":{\"kind\":\"poisson\",\"m\":5}}");
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
        e.drain();
    }
}
