//! Property tests for the wire protocol: random valid requests
//! round-trip through `sdc_campaigns::json` exactly, and arbitrary
//! malformed frames always come back as structured errors (never a
//! panic, never a dropped frame).

use proptest::prelude::*;
use sdc_campaigns::json::Json;
use sdc_campaigns::{DetectorPolicy, LsqSpec, ProblemSpec};
use sdc_faults::campaign::{FaultClass, FaultTarget, MgsPosition};
use sdc_gmres::precond::PrecondKind;
use sdc_server::protocol::{FaultSpec, LoadMatrixRequest, MatrixSource, Request, SolveRequest};
use sdc_server::SolverKind;
use sdc_sparse::SparseFormat;

/// `Option<T>` from a strategy plus a None arm (the vendored proptest
/// has no `proptest::option`).
fn opt<S>(s: S) -> BoxedStrategy<Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![s.prop_map(Some), Just(None)].boxed()
}

fn bool_strategy() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

const NAMES: [&str; 8] = ["p", "poisson_100", "dcop", "a1", "m_big", "x", "bench", "k0"];

fn name_strategy() -> impl Strategy<Value = String> {
    (0usize..NAMES.len()).prop_map(|i| NAMES[i].to_string())
}

fn solver_strategy() -> impl Strategy<Value = SolverKind> {
    prop_oneof![Just(SolverKind::Gmres), Just(SolverKind::Fgmres), Just(SolverKind::FtGmres),]
}

fn detector_strategy() -> impl Strategy<Value = DetectorPolicy> {
    prop_oneof![
        Just(DetectorPolicy::Off),
        Just(DetectorPolicy::Record),
        Just(DetectorPolicy::RestartInner),
        Just(DetectorPolicy::AbortInner),
        Just(DetectorPolicy::Halt),
    ]
}

fn lsq_strategy() -> impl Strategy<Value = LsqSpec> {
    prop_oneof![
        Just(LsqSpec::Standard),
        (1e-15f64..1e-6).prop_map(|tol| LsqSpec::FallbackOnNonFinite { tol }),
        (1e-15f64..1e-6).prop_map(|tol| LsqSpec::RankRevealing { tol }),
    ]
}

fn format_strategy() -> impl Strategy<Value = SparseFormat> {
    prop_oneof![Just(SparseFormat::Auto), Just(SparseFormat::Csr), Just(SparseFormat::Sell)]
}

fn precond_strategy() -> impl Strategy<Value = PrecondKind> {
    prop_oneof![
        Just(PrecondKind::None),
        Just(PrecondKind::Jacobi),
        Just(PrecondKind::Ilu0),
        Just(PrecondKind::Chebyshev),
    ]
}

fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    (
        prop_oneof![Just(FaultClass::Huge), Just(FaultClass::Slight), Just(FaultClass::Tiny)],
        prop_oneof![Just(MgsPosition::First), Just(MgsPosition::Last)],
        1usize..10_000,
        prop_oneof![Just(FaultTarget::Mgs), Just(FaultTarget::Precond)],
    )
        .prop_map(|(class, position, aggregate, target)| FaultSpec {
            class,
            position,
            aggregate,
            target,
        })
}

/// Client-assigned trace ids, including awkward-but-legal shapes
/// (empty, JSON-escaped quote, long).
fn trace_id_strategy() -> impl Strategy<Value = String> {
    let ids = ["req-1", "trc/00042", "", "a\"b\\c", "X", "0123456789abcdef0123456789abcdef"];
    (0usize..ids.len()).prop_map(move |i| ids[i].to_string())
}

/// A random *valid* solve request (fault only with ftgmres, restart
/// only with gmres, finite b) — the invariants `validate()` enforces.
fn solve_strategy() -> impl Strategy<Value = SolveRequest> {
    (
        (
            name_strategy(),
            solver_strategy(),
            opt(proptest::collection::vec(-1e6f64..1e6, 1..20)),
            1e-12f64..1e-2,
            1usize..500,
            opt(1usize..60),
        ),
        (
            1usize..40,
            (format_strategy(), precond_strategy()),
            detector_strategy(),
            lsq_strategy(),
            opt(fault_strategy()),
            (
                0u64..u64::MAX,
                bool_strategy(),
                bool_strategy(),
                opt(trace_id_strategy()),
                bool_strategy(),
            ),
        ),
    )
        .prop_map(
            |(
                (matrix, solver, b, tol, maxit, restart),
                (
                    inner_iters,
                    (format, precond),
                    detector,
                    lsq,
                    fault,
                    (seed, return_x, trace, trace_id, timing),
                ),
            )| {
                // A precond-target fault needs a preconditioner to
                // strike; validate() rejects the combination.
                let fault = fault.map(|mut f| {
                    if precond == PrecondKind::None {
                        f.target = FaultTarget::Mgs;
                    }
                    f
                });
                SolveRequest {
                    matrix,
                    solver,
                    b,
                    tol,
                    maxit,
                    restart: if solver == SolverKind::Gmres { restart } else { None },
                    inner_iters,
                    format,
                    precond,
                    // fgmres has no detector hook; validate() rejects it.
                    detector: if solver == SolverKind::Fgmres {
                        DetectorPolicy::Off
                    } else {
                        detector
                    },
                    lsq,
                    fault: if solver == SolverKind::FtGmres { fault } else { None },
                    seed,
                    return_x,
                    trace,
                    trace_id,
                    timing,
                }
            },
        )
}

fn load_strategy() -> impl Strategy<Value = LoadMatrixRequest> {
    let source = prop_oneof![
        (2usize..40).prop_map(|m| MatrixSource::Problem(ProblemSpec::Poisson { m })),
        (
            1usize..8,
            1usize..8,
            proptest::collection::vec((0usize..8, 0usize..8, -100.0f64..100.0), 0..20),
        )
            .prop_map(|(rows, cols, raw)| MatrixSource::Coo {
                rows,
                cols,
                entries: raw.into_iter().map(|(i, j, v)| (i % rows, j % cols, v)).collect(),
            }),
    ];
    (opt(name_strategy()), source).prop_map(|(name, source)| LoadMatrixRequest {
        name,
        source,
        replica: false,
    })
}

proptest! {
    #[test]
    fn solve_requests_round_trip_exactly(req in solve_strategy()) {
        let wire = Request::Solve(req);
        let line = wire.to_json().to_line();
        let back = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
        prop_assert_eq!(back, wire);
    }

    #[test]
    fn load_requests_round_trip_exactly(req in load_strategy()) {
        let wire = Request::LoadMatrix(req);
        let line = wire.to_json().to_line();
        let back = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
        prop_assert_eq!(back, wire);
    }

    #[test]
    fn request_serialization_is_canonical(req in solve_strategy()) {
        // Serializing, parsing as raw JSON and re-serializing is the
        // identity — the property the served-vs-offline diff rests on.
        let line = Request::Solve(req).to_json().to_line();
        prop_assert_eq!(Json::parse(&line).unwrap().to_line(), line);
    }

    #[test]
    fn unknown_precond_values_are_structured_errors(
        idx in 0usize..6
    ) {
        let raw = ["amg", "ssor", "lu", "spai", "cheby", "jacobian"][idx];
        prop_assert!(PrecondKind::parse(raw).is_err());
        // In a solve request.
        let line = format!("{{\"cmd\":\"solve\",\"matrix\":\"p\",\"precond\":\"{raw}\"}}");
        let e = Request::from_json(&Json::parse(&line).unwrap()).unwrap_err();
        prop_assert!(e.msg.contains("unknown preconditioner"), "{}", e.msg);
        // In a fault target.
        let line = format!(
            "{{\"cmd\":\"solve\",\"matrix\":\"p\",\"fault\":{{\"class\":\"huge\",\"position\":\"first\",\"aggregate\":1,\"target\":\"{raw}\"}}}}"
        );
        if FaultTarget::parse(raw).is_err() {
            let e = Request::from_json(&Json::parse(&line).unwrap()).unwrap_err();
            prop_assert!(e.msg.contains("unknown fault target"), "{}", e.msg);
        }
    }

    #[test]
    fn unknown_trace_subfields_are_structured_errors(
        idx in 0usize..6,
        with_id in bool_strategy(),
    ) {
        // The `trace` object admits exactly `id` and `capture`; anything
        // else is a structured parse error naming the offender, whether
        // or not a valid `id` rides alongside.
        let junk = ["sample", "span", "parent", "level", "ids", "Capture"][idx];
        let extra = if with_id { "\"id\":\"req-1\"," } else { "" };
        let line =
            format!("{{\"cmd\":\"solve\",\"matrix\":\"p\",\"trace\":{{{extra}\"{junk}\":1}}}}");
        let e = Request::from_json(&Json::parse(&line).unwrap()).unwrap_err();
        prop_assert!(
            e.msg.contains(&format!("unknown trace subfield '{junk}'")),
            "{}", e.msg
        );
    }

    #[test]
    fn unknown_fields_are_rejected_on_every_no_payload_command(
        cmd_idx in 0usize..4,
        junk_idx in 0usize..8,
    ) {
        // Strict parsing: any key outside the command's allow-list is a
        // structured error, on old commands and the new `metrics` alike.
        let cmd = ["stats", "metrics", "list", "shutdown"][cmd_idx];
        let junk = ["threads", "trace", "verbose", "format", "matrix", "extra", "q", "foo_bar"]
            [junk_idx];
        let line = format!("{{\"cmd\":\"{cmd}\",\"{junk}\":1}}");
        let err = Request::from_json(&Json::parse(&line).unwrap());
        prop_assert!(err.is_err(), "{line} must be rejected");
        // The bare command still parses.
        let line = format!("{{\"cmd\":\"{cmd}\"}}");
        prop_assert!(Request::from_json(&Json::parse(&line).unwrap()).is_ok());
    }

    #[test]
    fn malformed_frames_always_yield_structured_errors(
        bytes in proptest::collection::vec(0x20u8..0x7f, 0..60)
    ) {
        let garbage = String::from_utf8(bytes).expect("printable ascii");
        // Whatever bytes arrive, the engine answers with a frame — it
        // never panics and never goes silent. (Frames that happen to
        // parse as valid requests are allowed to succeed.)
        let engine = sdc_server::Engine::new(sdc_server::EngineConfig {
            queue_cap: 2,
            batch_max: 1,
            threads: 0,
            shard: None,
        });
        let mut events = Vec::new();
        let resp = engine.handle_line(&garbage, &mut |e| events.push(e.clone()));
        let ok = resp.field("ok").unwrap().as_bool().unwrap();
        if !ok {
            let err = resp.field("error").unwrap();
            prop_assert!(!err.field("code").unwrap().as_str().unwrap().is_empty());
            prop_assert!(!err.field("message").unwrap().as_str().unwrap().is_empty());
        }
        engine.drain();
    }
}

/// The TCP-level half of the malformed-frame satellite: the server
/// answers garbage with a structured error *on the same connection*,
/// which stays open for the next (valid) request.
#[test]
fn malformed_frame_over_tcp_keeps_the_connection_alive() {
    use sdc_server::{serve, Client, Engine, EngineConfig};
    use std::sync::Arc;

    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let mut c = Client::connect(handle.addr()).expect("connect");

    let frames = c.request_lines("{{{{ totally broken").expect("error frame, not a hangup");
    let err = Json::parse(frames.last().unwrap()).unwrap();
    assert!(!err.field("ok").unwrap().as_bool().unwrap());
    assert_eq!(err.field("error").unwrap().field("code").unwrap().as_str().unwrap(), "bad_request");

    let frames = c.request_lines("{\"cmd\":\"stats\"}").expect("connection must survive");
    assert!(frames.last().unwrap().contains("\"ok\":true"));

    let r = c.request_lines("{\"cmd\":\"shutdown\"}").expect("shutdown");
    assert!(r.last().unwrap().contains("\"ok\":true"));
    handle.wait();
}
