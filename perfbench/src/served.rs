//! `served_mix`: open-loop traffic at a fixed arrival rate against a
//! separate `serve` process (this binary's `serve-child` mode: the
//! library's `Engine` behind `serve_with`, as the `serve` binary runs
//! it). Frames are pipelined over `nproc` connections, sent on schedule
//! rather than after replies, and timed from their due time. Every
//! response must be byte-identical to `Engine::handle_line` run offline
//! on the same per-connection frame sequence.

use crate::probe::{EventCounter, EventCounts};
use crate::report::{median, tail, timed_setup, Report, Rng};
use crate::sys::{cpu_s, peak_rss_mb};
use crate::Ctx;
use sdc_campaigns::json::Json;
use sdc_server::netpoll::{Interest, PollEvent, Poller, Token};
use sdc_server::{Client, Engine, EngineConfig, Request};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop arrival rate. A mix request costs about 1 ms of server
/// time, so this keeps the solve lane roughly a quarter busy.
const RATE_HZ: f64 = 200.0;
/// Distinct faulted FT-GMRES frames in the mix (built first).
const FT_FRAMES: usize = 24;
/// Distinct inline Matrix Market matrices the writes draw from.
const LOAD_MATRICES: usize = 6;
/// Open-loop windows per untraced run. Many short windows, each with its
/// own tail, give a median tail that one host hiccup cannot move; one
/// long window's tail (p99.7 of 3,000) swung by 2× between runs.
const WINDOWS: usize = 12;

/// Length of one open-loop window: 1.25 s (250 requests, so the tail is
/// p96) at the benchmark's 25 s.
fn window_s(seconds: f64) -> f64 {
    0.05 * seconds
}
/// ILU(0) and Chebyshev requests per burst (the FT-GMRES burst sends
/// each of its frames once).
const BURST: usize = 16;
/// Residual acceptance slack over the requested tolerance (the outer
/// solver's own final-check slack).
const SLACK: f64 = 10.0;

/// Request kinds of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Faulted FT-GMRES solve, no preconditioner.
    Ft,
    /// ILU(0)-preconditioned GMRES solve.
    Ilu0,
    /// Chebyshev-preconditioned GMRES solve.
    Cheb,
    /// `load_matrix` of an inline Matrix Market matrix.
    Load,
}

/// One frame of the mix with its kind, tolerance (solves) and, for a
/// write, the matrix it loads.
struct Frame {
    kind: Kind,
    line: String,
    tol: f64,
    matrix: usize,
}

/// The seeded set of distinct frames requests are drawn from.
struct Mix {
    frames: Vec<Frame>,
    setup: Vec<String>,
}

fn solve_frame(fields: Vec<(&str, Json)>) -> String {
    let mut all = vec![("cmd", Json::str("solve")), ("matrix", Json::str("p32"))];
    all.extend(fields);
    Json::obj(all).to_line()
}

fn gmres_frame(precond: &str) -> String {
    solve_frame(vec![
        ("solver", Json::str("gmres")),
        ("tol", Json::Num(1e-8)),
        ("maxit", Json::Num(500.0)),
        ("precond", Json::str(precond)),
    ])
}

/// A diagonally dominant sparse matrix with seeded values, as Matrix
/// Market text.
fn mtx_text(rng: &mut Rng, n: usize) -> String {
    let mut entries = Vec::new();
    for i in 1..=n {
        entries.push((i, i, 4.0 + rng.unit()));
        if i > 1 {
            entries.push((i, i - 1, -1.0 + 0.1 * rng.unit()));
        }
        if i < n {
            entries.push((i, i + 1, -1.0 + 0.1 * rng.unit()));
        }
        let far = 1 + rng.below(n);
        if far.abs_diff(i) > 1 {
            entries.push((i, far, 0.5 * rng.unit()));
        }
    }
    let mut text =
        format!("%%MatrixMarket matrix coordinate real general\n{n} {n} {}\n", entries.len());
    for (i, j, v) in entries {
        text.push_str(&format!("{i} {j} {v}\n"));
    }
    text
}

fn build_mix(seed: u64) -> Mix {
    let mut rng = Rng::new(seed, 7);
    let mut frames = Vec::new();
    let ft_base = vec![
        ("solver", Json::str("ftgmres")),
        ("tol", Json::Num(1e-7)),
        ("maxit", Json::Num(150.0)),
        ("inner_iters", Json::Num(25.0)),
    ];
    // Every (class, position, detector) combination, faulted once in each
    // of the first two outer iterations at a seeded inner step: the seed
    // moves the fault sites, not the mix.
    for class in ["huge", "slight", "tiny"] {
        for position in ["first", "last"] {
            for detector in [false, true] {
                for outer in 0..2 {
                    let fault = Json::obj(vec![
                        ("class", Json::str(class)),
                        ("position", Json::str(position)),
                        ("aggregate", Json::Num((1 + 25 * outer + rng.below(25)) as f64)),
                    ]);
                    let mut fields = ft_base.clone();
                    fields.push(("fault", fault));
                    if detector {
                        fields.push(("detector", Json::str("restart_inner")));
                    }
                    frames.push(Frame {
                        kind: Kind::Ft,
                        line: solve_frame(fields),
                        tol: 1e-7,
                        matrix: 0,
                    });
                }
            }
        }
    }
    frames.push(Frame { kind: Kind::Ilu0, line: gmres_frame("ilu0"), tol: 1e-8, matrix: 0 });
    frames.push(Frame { kind: Kind::Cheb, line: gmres_frame("chebyshev"), tol: 1e-8, matrix: 0 });
    for i in 0..LOAD_MATRICES {
        let text = mtx_text(&mut rng, 60 + 10 * i);
        let line = Json::obj(vec![
            ("cmd", Json::str("load_matrix")),
            ("name", Json::str(format!("mm{i}"))),
            ("mtx", Json::str(text)),
        ])
        .to_line();
        frames.push(Frame { kind: Kind::Load, line, tol: 0.0, matrix: i });
    }
    let setup = vec![
        Json::obj(vec![
            ("cmd", Json::str("load_matrix")),
            ("name", Json::str("p32")),
            ("problem", Json::obj(vec![("kind", Json::str("poisson")), ("m", Json::Num(32.0))])),
        ])
        .to_line(),
        // One solve per kind builds what a first solve would: the
        // format verdict, the ILU(0) factor and the Chebyshev bounds.
        solve_frame(ft_base),
        gmres_frame("ilu0"),
        gmres_frame("chebyshev"),
    ];
    Mix { frames, setup }
}

impl Mix {
    /// Draws the next frame for connection `conn` of `conns`: 70%
    /// faulted FT-GMRES, 10% ILU(0), 10% Chebyshev, 10% writes. A
    /// matrix is only ever written through one connection (`i mod
    /// conns`), so whether a write hits the registry does not depend on
    /// how connections interleave.
    fn draw(&self, rng: &mut Rng, conn: usize, conns: usize) -> usize {
        let u = rng.unit();
        let kind = if u < 0.7 {
            Kind::Ft
        } else if u < 0.8 {
            Kind::Ilu0
        } else if u < 0.9 {
            Kind::Cheb
        } else {
            Kind::Load
        };
        let mut of_kind: Vec<usize> = (0..self.frames.len())
            .filter(|&f| {
                let fr = &self.frames[f];
                fr.kind == kind && (kind != Kind::Load || fr.matrix % conns == conn)
            })
            .collect();
        if of_kind.is_empty() {
            // No matrix is written through this connection.
            of_kind = (0..FT_FRAMES).collect();
        }
        of_kind[rng.below(of_kind.len())]
    }
}

/// The served process: this binary in `serve-child` mode. Dropping it
/// shuts the server down and reaps it.
struct ServerChild {
    child: Child,
    addr: SocketAddr,
    ctl: Client,
}

impl ServerChild {
    fn start(threads: usize) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve-child", "--threads", &threads.to_string()])
            // Held open by `child` for its lifetime: the server exits when
            // it closes, so it cannot outlive a killed benchmark.
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let mut line = String::new();
        let read = child.stdout.take().map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line.trim().strip_prefix("listening on ").and_then(|a| a.parse().ok());
        let (Some(Ok(_)), Some(addr)) = (read, addr) else {
            child.kill().ok();
            child.wait().ok();
            return Err(format!("server did not report its address (got {line:?})"));
        };
        match Client::connect(addr) {
            Ok(ctl) => Ok(Self { child, addr, ctl }),
            Err(e) => {
                child.kill().ok();
                child.wait().ok();
                Err(format!("cannot connect to the server: {e}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on the control connection: the final frame.
    fn call(&mut self, line: &str) -> Result<String, String> {
        let frames = self.ctl.request_lines(line).map_err(|e| format!("control request: {e}"))?;
        frames.last().cloned().ok_or_else(|| "empty response".to_string())
    }

    /// The server's metric series (via the public `metrics` request).
    fn series(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let resp = self.call("{\"cmd\":\"metrics\"}")?;
        let v = Json::parse(&resp).map_err(|e| format!("metrics response: {e:?}"))?;
        let Some(Json::Obj(series)) = v.get("result").and_then(|r| r.get("series")) else {
            return Err("metrics response has no series".into());
        };
        Ok(series.iter().filter_map(|(k, v)| v.as_f64().ok().map(|x| (k.clone(), x))).collect())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.call("{\"cmd\":\"shutdown\"}").ok();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// Offline reference: a second engine fed the same frames in the same
/// per-connection order. Identical frames give identical responses, so
/// each distinct frame is run once — twice for a write, whose first
/// response reports a registry miss and every later one a hit.
struct Offline {
    engine: Engine,
    memo: HashMap<String, (String, Option<String>)>,
}

impl Offline {
    fn new(threads: usize) -> Self {
        Self {
            engine: Engine::new(EngineConfig { threads, ..Default::default() }),
            memo: HashMap::new(),
        }
    }

    fn handle(&self, line: &str) -> String {
        self.engine.handle_line(line, &mut |_| {}).to_line()
    }

    fn reference(&mut self, frame: &Frame) -> String {
        match self.memo.get(&frame.line) {
            Some((first, later)) => match (frame.kind, later) {
                (Kind::Load, None) => {
                    let again = self.handle(&frame.line);
                    self.memo.get_mut(&frame.line).expect("present").1 = Some(again.clone());
                    again
                }
                (_, Some(l)) => l.clone(),
                (_, None) => first.clone(),
            },
            None => {
                let resp = self.handle(&frame.line);
                self.memo.insert(frame.line.clone(), (resp.clone(), None));
                resp
            }
        }
    }
}

/// Checks one served response: `ok:true`, converged solves within the
/// residual limit, and byte equality with the offline reference.
fn check_response(rep: &mut Report, offline: &mut Offline, frame: &Frame, resp: &str) {
    let want = offline.reference(frame);
    let v = Json::parse(resp).ok();
    let ok = v.as_ref().and_then(|v| v.get("ok")).and_then(|o| o.as_bool().ok()) == Some(true);
    let solve_ok = frame.kind == Kind::Load
        || v.as_ref().and_then(|v| v.get("result")).is_some_and(|r| {
            let converged =
                r.get("summary").and_then(|s| s.get("converged")).and_then(|c| c.as_bool().ok());
            let rel = r.get("true_rel_residual").and_then(|x| x.as_f64().ok());
            converged == Some(true) && rel.is_some_and(|rel| rel <= SLACK * frame.tol)
        });
    rep.check(ok && solve_ok && resp == want, || {
        format!("served response differs or failed\n  frame: {:.200}\n  served: {resp:.300}\n  offline: {want:.300}", frame.line)
    });
}

/// One request of an open-loop window.
struct Done {
    frame: usize,
    conn: usize,
    /// Due time to response, seconds.
    latency: f64,
    resp: String,
}

/// What one open-loop window measured.
struct Window {
    done: Vec<Done>,
    /// Send time minus due time per request, seconds.
    lag: Vec<f64>,
    /// First due time to last response, seconds.
    wall: f64,
    /// Server CPU seconds over the window.
    cpu: f64,
}

fn write_all_nonblocking(s: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match s.write(buf) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Sends `schedule` (connection, frame) at `RATE_HZ` from one sender
/// thread and collects responses on this thread through a readiness
/// poller; nothing waits for a reply before sending.
fn open_loop(
    server: &ServerChild,
    mix: &Mix,
    conns: usize,
    schedule: &[(usize, usize)],
) -> Result<Window, String> {
    let io = |e: std::io::Error| format!("open loop: {e}");
    let mut streams = Vec::new();
    for _ in 0..conns {
        let s = TcpStream::connect(server.addr).map_err(io)?;
        s.set_nodelay(true).map_err(io)?;
        s.set_nonblocking(true).map_err(io)?;
        streams.push(s);
    }
    let mut writers: Vec<TcpStream> =
        streams.iter().map(|s| s.try_clone()).collect::<Result<_, _>>().map_err(io)?;
    let poller = Poller::new().map_err(io)?;
    for (c, s) in streams.iter().enumerate() {
        poller.register(s.as_raw_fd(), Token(c), Interest::READ).map_err(io)?;
    }
    let mut expected: Vec<VecDeque<usize>> = vec![VecDeque::new(); conns];
    for (k, &(c, _)) in schedule.iter().enumerate() {
        expected[c].push_back(k);
    }
    let lines: Vec<String> =
        schedule.iter().map(|&(_, f)| format!("{}\n", mix.frames[f].line)).collect();
    let due = |k: usize| Duration::from_secs_f64(k as f64 / RATE_HZ);
    let cpu0 = cpu_s(server.pid());
    let t0 = Instant::now() + Duration::from_millis(20);
    let deadline = t0 + due(schedule.len()) + Duration::from_secs(60);

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> std::io::Result<Vec<f64>> {
            let mut lag = Vec::with_capacity(schedule.len());
            for (k, &(c, _)) in schedule.iter().enumerate() {
                let at = t0 + due(k);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                lag.push(Instant::now().saturating_duration_since(at).as_secs_f64());
                write_all_nonblocking(&mut writers[c], lines[k].as_bytes())?;
            }
            Ok(lag)
        });

        let mut done: Vec<Option<Done>> = (0..schedule.len()).map(|_| None).collect();
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns];
        let mut received = 0usize;
        let mut last = t0;
        let mut events: Vec<PollEvent> = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut failure = None;
        'recv: while received < schedule.len() {
            if Instant::now() > deadline {
                failure = Some(format!(
                    "open loop timed out with {received}/{} responses",
                    schedule.len()
                ));
                break;
            }
            if let Err(e) = poller.wait(&mut events, Some(Duration::from_millis(200))) {
                failure = Some(io(e));
                break;
            }
            for ev in &events {
                let c = ev.token.0;
                loop {
                    match streams[c].read(&mut chunk) {
                        Ok(0) => {
                            failure = Some(format!("server closed connection {c}"));
                            break 'recv;
                        }
                        Ok(n) => bufs[c].extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => {
                            failure = Some(io(e));
                            break 'recv;
                        }
                    }
                }
                let now = Instant::now();
                while let Some(pos) = bufs[c].iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = bufs[c].drain(..=pos).collect();
                    let Some(k) = expected[c].pop_front() else {
                        failure = Some(format!("unexpected extra response on connection {c}"));
                        break 'recv;
                    };
                    let resp = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    let latency = now.saturating_duration_since(t0 + due(k)).as_secs_f64();
                    done[k] = Some(Done { frame: schedule[k].1, conn: c, latency, resp });
                    received += 1;
                    last = now;
                }
            }
        }
        // Unblock a sender stuck on a dead connection before joining it.
        if failure.is_some() {
            for s in &streams {
                s.shutdown(std::net::Shutdown::Both).ok();
            }
        }
        let lag = sender.join().map_err(|_| "sender thread panicked".to_string())?;
        if let Some(f) = failure {
            return Err(f);
        }
        let lag = lag.map_err(io)?;
        Ok(Window {
            done: done.into_iter().map(|d| d.expect("every response arrived")).collect(),
            lag,
            wall: last.saturating_duration_since(t0).as_secs_f64(),
            cpu: cpu_s(server.pid()) - cpu0,
        })
    })
}

/// A seeded open-loop schedule of `n` requests: round-robin over the
/// connections, except that a write goes to its matrix's connection.
fn schedule(mix: &Mix, rng: &mut Rng, conns: usize, n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .map(|k| {
            let c = k % conns;
            let f = mix.draw(rng, c, conns);
            let f_conn =
                if mix.frames[f].kind == Kind::Load { mix.frames[f].matrix % conns } else { c };
            (f_conn, f)
        })
        .collect()
}

/// (frame, response) pairs, in send order.
type Replies = Vec<(usize, String)>;

/// Pipelined bursts on one connection, in seeded order: every FT-GMRES
/// frame once, then [`BURST`] ILU(0) and [`BURST`] Chebyshev requests.
/// Each response is checked; returns (kind, seconds per request) per
/// burst: first send to last reply over the burst's length. This is
/// `tts_s.*` on `served_mix`. A burst keeps the server busy from its first
/// request to its last, so it measures solves, not the host's latency in
/// waking an idle server for each request (which swung single unloaded
/// round trips by 40% between runs) or queueing behind other clients.
fn bursts(
    rep: &mut Report,
    addr: SocketAddr,
    offline: &mut Offline,
    mix: &Mix,
    rng: &mut Rng,
) -> Result<Vec<(Kind, f64)>, String> {
    let io = |e: std::io::Error| format!("burst: {e}");
    let mut out = Vec::new();
    let mut kinds = [Kind::Ft, Kind::Ilu0, Kind::Cheb];
    rng.shuffle(&mut kinds);
    for kind in kinds {
        let mut frames: Vec<usize> = (0..mix.frames.len())
            .filter(|&f| mix.frames[f].kind == kind)
            .flat_map(|f| vec![f; if kind == Kind::Ft { 1 } else { BURST }])
            .collect();
        rng.shuffle(&mut frames);
        let text: String = frames.iter().map(|&f| format!("{}\n", mix.frames[f].line)).collect();
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
        let mut replies = Vec::with_capacity(frames.len());
        let t = Instant::now();
        stream.write_all(text.as_bytes()).map_err(io)?;
        for _ in &frames {
            let mut line = String::new();
            if reader.read_line(&mut line).map_err(io)? == 0 {
                return Err("burst: server closed the connection".into());
            }
            replies.push(line);
        }
        out.push((kind, t.elapsed().as_secs_f64() / frames.len() as f64));
        for (&f, line) in frames.iter().zip(&replies) {
            check_response(rep, offline, &mix.frames[f], line.trim_end_matches('\n'));
        }
    }
    Ok(out)
}

/// Closed loop: `conns` connections, each sending its next frame when
/// the previous reply arrives, for `secs`. Returns the completed replies
/// per connection and the wall seconds.
fn closed_loop(
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    stream: u64,
    conns: usize,
    secs: f64,
) -> Result<(Vec<Replies>, f64), String> {
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    let per_conn = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || -> Result<Replies, String> {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("closed loop: {e}"))?;
                    let mut rng = Rng::new(seed, stream + c as u64);
                    let mut out = Vec::new();
                    while Instant::now() < end {
                        let f = mix.draw(&mut rng, c, conns);
                        let frames = client
                            .request_lines(&mix.frames[f].line)
                            .map_err(|e| format!("closed loop: {e}"))?;
                        out.push((f, frames.last().cloned().unwrap_or_default()));
                    }
                    Ok(out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "closed-loop worker panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((per_conn, t0.elapsed().as_secs_f64()))
}

/// Verifies a window in canonical order: connection by connection,
/// frames in send order.
fn check_window(rep: &mut Report, offline: &mut Offline, mix: &Mix, w: &Window, conns: usize) {
    for c in 0..conns {
        for d in w.done.iter().filter(|d| d.conn == c) {
            check_response(rep, offline, &mix.frames[d.frame], &d.resp);
        }
    }
}

/// Starts the server and brings it to the measured state: matrix
/// registered, first solves of each kind done.
fn start(mix: &Mix, threads: usize) -> Result<(ServerChild, Vec<String>), String> {
    let mut server = ServerChild::start(threads)?;
    let mut responses = Vec::new();
    for line in &mix.setup {
        responses.push(server.call(line)?);
    }
    Ok((server, responses))
}

/// Everything before the timed phase, plus the offline engine primed
/// with the same set-up frames.
fn prepare(
    rep: &mut Report,
    mix: &Mix,
    threads: usize,
    repeats: usize,
) -> Option<(f64, ServerChild, Offline)> {
    let (setup_s, started) = timed_setup(repeats, || start(mix, threads));
    let (server, responses) = match started {
        Ok(v) => v,
        Err(e) => {
            rep.check(false, || e);
            return None;
        }
    };
    let offline = Offline::new(threads);
    for (line, resp) in mix.setup.iter().zip(&responses) {
        let want = offline.handle(line);
        rep.check(*resp == want, || format!("set-up response differs: {resp:.200} vs {want:.200}"));
    }
    Some((setup_s, server, offline))
}

/// The untraced run.
pub fn run(ctx: &Ctx, rep: &mut Report) {
    let mix = build_mix(ctx.seed);
    let conns = ctx.threads;
    let Some((setup_s, server, mut offline)) =
        prepare(rep, &mix, ctx.threads, crate::SETUP_REPEATS)
    else {
        return;
    };
    rep.set("setup_s", setup_s);
    let per_window = (RATE_HZ * window_s(ctx.seconds)).round().max(20.0) as usize;
    let mut rng = Rng::new(ctx.seed, 11);

    // Every open-loop window is followed by bursts and every third by a
    // closed-loop slice, so all three sample the whole run.
    let mut windows = Vec::new();
    let mut burst: Vec<(Kind, f64)> = Vec::new();
    let (mut completed, mut closed_wall) = (0usize, 0.0);
    for w in 0..WINDOWS {
        let sched = schedule(&mix, &mut rng, conns, per_window);
        match open_loop(&server, &mix, conns, &sched) {
            Ok(win) => {
                check_window(rep, &mut offline, &mix, &win, conns);
                windows.push(win);
            }
            Err(e) => return rep.check(false, || e),
        }
        match bursts(rep, server.addr, &mut offline, &mix, &mut rng) {
            Ok(v) => burst.extend(v),
            Err(e) => return rep.check(false, || e),
        }
        if w % 3 != 2 {
            continue;
        }
        let stream = 100 + 16 * w as u64;
        let (per_conn, wall) =
            match closed_loop(server.addr, &mix, ctx.seed, stream, conns, 0.04 * ctx.seconds) {
                Ok(v) => v,
                Err(e) => return rep.check(false, || e),
            };
        closed_wall += wall;
        for done in &per_conn {
            completed += done.len();
            for (f, resp) in done {
                check_response(rep, &mut offline, &mix.frames[*f], resp);
            }
        }
    }
    let capacity = completed as f64 / closed_wall;

    let per = |f: &dyn Fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let lat_ms = |w: &Window| w.done.iter().map(|d| d.latency * 1e3).collect::<Vec<_>>();
    rep.set("wall_s", per(&|w| w.wall));
    // A mean: one window is only ~70 ticks of the 100 Hz CPU clock.
    rep.set("cpu_s", windows.iter().map(|w| w.cpu).sum::<f64>() / windows.len() as f64);
    rep.set("experiments_per_s", per(&|w| w.done.len() as f64 / w.wall));
    let burst_of = |kind: Kind| -> Vec<f64> {
        burst.iter().filter(|(k, _)| *k == kind).map(|(_, s)| *s).collect()
    };
    rep.set("tts_s.none", median(&burst_of(Kind::Ft)));
    rep.set("tts_s.ilu0", median(&burst_of(Kind::Ilu0)));
    rep.set("tts_s.chebyshev", median(&burst_of(Kind::Cheb)));
    rep.set("latency_p50_ms", per(&|w| median(&lat_ms(w))));
    rep.set("latency_tail_ms", per(&|w| tail(&lat_ms(w)).0));
    rep.set("capacity_rps", capacity);
    rep.set("peak_rss_mb", peak_rss_mb(server.pid()));
    let (_, pct, n) = tail(&lat_ms(&windows[0]));
    rep.note(format!(
        "# served_mix: {WINDOWS} open-loop windows of {per_window} requests at {RATE_HZ} req/s over {conns} connections; \
         latency tail = p{pct:.1} of {n} per window; closed-loop capacity over {conns} connections"
    ));
    rep.note(format!(
        "#   tts_s.*: {} pipelined bursts per kind on one connection (all {FT_FRAMES} FT-GMRES frames; {BURST} ILU(0); {BURST} Chebyshev)",
        WINDOWS
    ));
    let tails: Vec<String> = windows.iter().map(|w| format!("{:.2}", tail(&lat_ms(w)).0)).collect();
    rep.note(format!("#   per-window tail ms: {}", tails.join(" ")));
}

/// Median per-call microseconds of `f` over `reps` calls.
fn per_call_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The traced run: an untraced window for reference, then the stage
/// probes — parse and idle-engine costs in-process, unloaded round trips
/// to the server — and a second window bracketed by `metrics` reads.
pub fn run_traced(ctx: &Ctx, rep: &mut Report) {
    let mix = build_mix(ctx.seed);
    let conns = ctx.threads;
    let Some((_, mut server, mut offline)) = prepare(rep, &mix, ctx.threads, 1) else {
        return;
    };
    let per_window = (RATE_HZ * window_s(ctx.seconds)).round().max(20.0) as usize;
    let mut rng = Rng::new(ctx.seed, 11);
    let first_sched = schedule(&mix, &mut rng, conns, per_window);
    let second_sched = schedule(&mix, &mut rng, conns, per_window);

    let reference = match open_loop(&server, &mix, conns, &first_sched) {
        Ok(w) => w,
        Err(e) => return rep.check(false, || e),
    };
    check_window(rep, &mut offline, &mix, &reference, conns);

    // Parse stage: Json::parse + Request::from_json, per frame kind.
    let parse = |f: &Frame| {
        per_call_us(200, || {
            let v = Json::parse(&f.line).expect("mix frames are valid JSON");
            std::hint::black_box(Request::from_json(&v).expect("mix frames are valid requests"));
        })
    };
    let solve_frames: Vec<&Frame> = mix.frames.iter().filter(|f| f.kind != Kind::Load).collect();
    let load_frames: Vec<&Frame> = mix.frames.iter().filter(|f| f.kind == Kind::Load).collect();
    let parse_solve = median(&solve_frames.iter().map(|f| parse(f)).collect::<Vec<_>>());
    let parse_load = median(&load_frames.iter().map(|f| parse(f)).collect::<Vec<_>>());

    // Idle engine, in-process and primed like the server: each distinct
    // frame once under a counting subscriber (solver events per frame),
    // then timed as the mix sees it — a write as the registry hit it is
    // after its first load.
    let idle = Offline::new(ctx.threads);
    for line in &mix.setup {
        idle.handle(line);
    }
    let mut per_frame: Vec<EventCounts> = Vec::new();
    let mut engine_us: Vec<f64> = Vec::new();
    for f in &mix.frames {
        let counter = Arc::new(EventCounter::default());
        sdc_obs::install_global(counter.clone());
        idle.handle(&f.line);
        sdc_obs::clear_global();
        per_frame.push(counter.counts());
        engine_us.push(per_call_us(3, || drop(idle.handle(&f.line))));
    }

    // Unloaded round trips: one request at a time on the control
    // connection, frames drawn from the mix. Transport is what a round
    // trip adds to the idle engine's time for the same frame.
    let mut transport_us = Vec::new();
    let mut probe_rng = Rng::new(ctx.seed, 13);
    for _ in 0..100 {
        let fi = mix.draw(&mut probe_rng, 0, 1);
        let f = &mix.frames[fi];
        let t = Instant::now();
        match server.call(&f.line) {
            Ok(resp) => check_response(rep, &mut offline, f, &resp),
            Err(e) => return rep.check(false, || e),
        }
        transport_us.push(t.elapsed().as_secs_f64() * 1e6 - engine_us[fi]);
    }
    let transport = median(&transport_us);

    let before = server.series();
    let traced = open_loop(&server, &mix, conns, &second_sched);
    let after = server.series();
    let (traced, before, after) = match (traced, before, after) {
        (Ok(w), Ok(b), Ok(a)) => (w, b, a),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return rep.check(false, || e),
    };
    check_window(rep, &mut offline, &mix, &traced, conns);

    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let sum_prefix = |m: &BTreeMap<String, f64>, p: &str| -> f64 {
        m.iter().filter(|(k, _)| k.starts_with(p)).map(|(_, v)| v).sum()
    };
    let requests =
        sum_prefix(&after, "sdc_requests_total{") - sum_prefix(&before, "sdc_requests_total{");
    let solves = sum_prefix(&after, "sdc_solves_total{") - sum_prefix(&before, "sdc_solves_total{");
    // Since start-up: the window alone only re-writes matrices the
    // registry already holds.
    let hits = after.get("sdc_cache_hits_total").copied().unwrap_or(0.0);
    let misses = after.get("sdc_cache_misses_total").copied().unwrap_or(0.0);

    let mut ev = EventCounts::default();
    for &(_, f) in &second_sched {
        ev.add(&per_frame[f]);
    }
    // Per request: engine time of its frame, and queue wait = open-loop
    // latency minus the unloaded round trip (engine + transport).
    let engine_of = |load: bool| -> Vec<f64> {
        traced
            .done
            .iter()
            .filter(|d| (mix.frames[d.frame].kind == Kind::Load) == load)
            .map(|d| engine_us[d.frame])
            .collect()
    };
    let engine_solve = median(&engine_of(false));
    let engine_load = median(&engine_of(true));
    let waits: Vec<f64> = traced
        .done
        .iter()
        .map(|d| (d.latency * 1e6 - engine_us[d.frame] - transport).max(0.0))
        .collect();
    let lat_us: Vec<f64> = traced.done.iter().map(|d| d.latency * 1e6).collect();
    let ref_us: Vec<f64> = reference.done.iter().map(|d| d.latency * 1e6).collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let lags_ms: Vec<f64> = traced.lag.iter().map(|l| l * 1e3).collect();
    let p50 = median(&lat_us);

    rep.set("parallel.pool_runs", ev.pool_runs as f64);
    rep.set("core.arnoldi_steps", ev.arnoldi_steps() as f64);
    rep.set("core.ortho.coeffs", ev.inner_coeffs as f64);
    rep.set("core.restart_waste_frac", ev.restart_waste_frac());
    rep.set("faults.committed", ev.injections as f64);
    rep.set("server.parse_us.solve", parse_solve);
    rep.set("server.parse_us.load", parse_load);
    rep.set("server.transport_us", transport);
    rep.set("server.engine_us.solve", engine_solve);
    rep.set("server.engine_us.load", engine_load);
    rep.set("server.queue_wait_us.p50", median(&waits));
    rep.set("server.queue_wait_us.tail", tail(&waits).0);
    rep.set("server.queue_peak", after.get("sdc_queue_depth_peak").copied().unwrap_or(0.0));
    rep.set("server.batch_mean", solves / delta("sdc_batches_dispatched_total").max(1.0));
    rep.set("server.busy_rejects", delta("sdc_busy_rejects_total"));
    rep.set("server.registry_hit_ratio", hits / (hits + misses).max(1.0));
    rep.set("server.wakeups_per_request", delta("sdc_loop_wakeups_total") / requests.max(1.0));
    rep.set("bench.gen_lag_ms.tail", tail(&lags_ms).0);
    rep.set("bench.trace_overhead_frac", mean(&lat_us) / mean(&ref_us) - 1.0);
    rep.set("bench.unattributed_frac", 1.0 - (transport + engine_solve + median(&waits)) / p50);

    rep.note(format!(
        "# served_mix trace: p50 latency {p50:.0} us = transport {transport:.0} + engine {engine_solve:.0} + queue wait {:.0} (+ remainder)",
        median(&waits)
    ));
    rep.note(format!(
        "#   parse {parse_solve:.1} us/solve frame, {parse_load:.1} us/write frame; idle engine {engine_load:.0} us/write"
    ));
    rep.note(format!(
        "#   server: {requests} requests, {solves} solves in {} batches, cache {hits}/{} hits, {} wakeups",
        delta("sdc_batches_dispatched_total"),
        hits + misses,
        delta("sdc_loop_wakeups_total")
    ));
}

/// `serve-child`: the served process.
pub fn serve_child(threads: usize) -> Result<(), String> {
    // Exit when the parent's end of stdin closes (the parent ended without
    // sending `shutdown`). Runs for the life of the process; never joined.
    std::thread::spawn(|| {
        std::io::copy(&mut std::io::stdin(), &mut std::io::sink()).ok();
        std::process::exit(1);
    });
    let engine = Arc::new(Engine::new(EngineConfig { threads, ..Default::default() }));
    let handle = sdc_server::serve(engine, "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    println!("listening on {}", handle.addr());
    std::io::stdout().flush().map_err(|e| format!("stdout: {e}"))?;
    handle.wait();
    Ok(())
}
