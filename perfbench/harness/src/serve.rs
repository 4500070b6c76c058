//! The serving workloads: inventory sessions through a TCP `Daemon`.
//!
//! * `serve_small` — two closed-loop `DaemonClient` connections, each
//!   repeating `Open → Run → Close` on 64-tag TPP sessions (4-bit
//!   payloads) under the server's default traced config.
//! * `serve_checkpoint` — one connection running 10 000-tag sessions
//!   rotating HPP → TPP → EHPP with tracing off: `Open → Run{k}` to a
//!   seeded pause point, then `Checkpoint → Close → Resume → Run →
//!   Close`.
//!
//! Every served outcome is checked against an in-process `Session::run`
//! reference for the same request, computed before the timed window.
//!
//! The traced run drives the wire with the same public codec calls
//! `DaemonClient` makes (`Command::to_frame`, `Frame::encode`,
//! `Decoder::next`, `Response::from_frame`) so spans can sit between
//! them. Work inside the daemon is reconstructed: after each session the
//! same commands are replayed through an in-process `Service::handle`,
//! and the layers inside it (population build, context, admission
//! snapshot, step loop, trace digest, report encoding, snapshot and
//! restore) through the same public functions the daemon calls.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rfid_daemon::{ClientError, Daemon, DaemonClient, RunEnd, Service};
use rfid_hash::{fnv64, split_seed, Xoshiro256};
use rfid_protocols::{EhppConfig, HppConfig, PollingProtocol, Session, SessionEnd, TppConfig};
use rfid_system::{Json, SimConfig, SimContext, ToJson};
use rfid_wire::{Command, Decoder, Frame, OpenRequest, Response, SessionOutcome, StreamTransport};
use rfid_workloads::Scenario;

use crate::stats::{beyond, percentile, CpuClock};
use crate::trace::{self, Span, Tracer};
use crate::{Failures, Outcome, Params};

/// How long a client waits for a response before counting a timeout.
const VERB_TIMEOUT: Duration = Duration::from_secs(30);

/// Measured epochs per run, each behind its own set-up; `setup_s` is
/// the median set-up.
const EPOCHS: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Small,
    Checkpoint,
}

impl Kind {
    fn connections(self) -> usize {
        match self {
            Kind::Small => 2,
            Kind::Checkpoint => 1,
        }
    }

    /// The highest percentile with at least ten samples beyond it at
    /// this workload's session rate.
    fn tail_pct(self) -> f64 {
        match self {
            Kind::Small => 99.0,
            Kind::Checkpoint => 90.0,
        }
    }

    /// Distinct requests (each with a precomputed reference) the
    /// sessions draw from.
    fn pool(self) -> usize {
        match self {
            Kind::Small => 256,
            Kind::Checkpoint => 24,
        }
    }

    fn tags(self) -> u64 {
        match self {
            Kind::Small => 64,
            Kind::Checkpoint => 10_000,
        }
    }

    fn info_bits(self) -> u64 {
        match self {
            Kind::Small => 4,
            Kind::Checkpoint => 16,
        }
    }

    fn protocol(self, j: usize) -> &'static str {
        match self {
            Kind::Small => "TPP",
            Kind::Checkpoint => ["HPP", "TPP", "EHPP"][j % 3],
        }
    }
}

fn protocol(name: &str) -> Box<dyn PollingProtocol> {
    match name {
        "HPP" => Box::new(HppConfig::default().into_protocol()),
        "TPP" => Box::new(TppConfig::default().into_protocol()),
        "EHPP" => Box::new(EhppConfig::default().into_protocol()),
        other => unreachable!("no serving workload uses {other}"),
    }
}

/// One request of the pool and what serving it must produce.
struct Job {
    req: OpenRequest,
    /// The reference report, serialized: floats that print as integers
    /// re-parse as integers, so served and reference reports are
    /// compared as text.
    report: String,
    digest: Option<u64>,
    /// Session steps to completion: pause points are drawn below it.
    steps: u64,
}

fn scenario(req: &OpenRequest) -> Scenario {
    Scenario::uniform(req.n as usize, req.info_bits as usize).with_seed(req.seed)
}

/// The config the daemon runs `req` under.
fn served_config(req: &OpenRequest) -> SimConfig {
    req.config
        .clone()
        .unwrap_or_else(|| SimConfig::paper(scenario(req).protocol_seed()).with_trace())
}

/// Builds the seeded request pool and its in-process references.
fn pool(kind: Kind, seed: u64) -> Vec<Job> {
    let mut rng = Xoshiro256::seed_from_u64(split_seed(seed, 1));
    (0..kind.pool())
        .map(|j| {
            let mut req = OpenRequest::new(
                kind.protocol(j),
                kind.tags(),
                kind.info_bits(),
                rng.next_u64(),
            );
            if kind == Kind::Checkpoint {
                req.config = Some(SimConfig::paper(scenario(&req).protocol_seed()));
            }
            let config = served_config(&req);
            let p = protocol(&req.protocol);
            let mut ctx = SimContext::new(scenario(&req).build_population(), &config);
            let mut session = Session::open(p.as_ref(), &ctx);
            let SessionEnd::Complete { report, .. } = session.run(&mut ctx) else {
                panic!("reference session for {} did not complete", req.protocol);
            };
            Job {
                report: report.to_json().to_string(),
                digest: config.trace.then(|| fnv64(&ctx.log.to_jsonl())),
                steps: session.steps_taken(),
                req,
            }
        })
        .collect()
}

/// Picks each session's request and pause point from a per-connection
/// seeded stream.
struct Picker {
    rng: Xoshiro256,
    next: usize,
}

impl Picker {
    fn new(seed: u64, conn: usize, pool: usize) -> Picker {
        let mut rng = Xoshiro256::seed_from_u64(split_seed(seed, 100 + conn as u64));
        // Rotation starts on an HPP request.
        let next = 3 * rng.below((pool / 3) as u64) as usize;
        Picker { rng, next }
    }

    fn pick<'a>(&mut self, kind: Kind, jobs: &'a [Job]) -> (&'a Job, u64) {
        match kind {
            Kind::Small => (&jobs[self.rng.below(jobs.len() as u64) as usize], 0),
            Kind::Checkpoint => {
                let job = &jobs[self.next];
                self.next = (self.next + 1) % jobs.len();
                (job, 1 + self.rng.below(job.steps.max(2) - 1))
            }
        }
    }
}

/// Why a session failed.
enum Fail {
    Busy,
    Server(String),
    Other(String),
}

impl From<ClientError> for Fail {
    fn from(e: ClientError) -> Fail {
        match e {
            ClientError::Busy { .. } => Fail::Busy,
            ClientError::Server { code, message } => Fail::Server(format!("{code:?}: {message}")),
            other => Fail::Other(other.to_string()),
        }
    }
}

impl Fail {
    fn message(&self) -> String {
        match self {
            Fail::Busy => "busy response".to_string(),
            Fail::Server(m) => format!("error response {m}"),
            Fail::Other(m) => m.clone(),
        }
    }
}

fn check(outcome: &SessionOutcome, job: &Job) -> Result<(), Fail> {
    if outcome.status != "complete" {
        return Err(Fail::Other(format!("status {}", outcome.status)));
    }
    if outcome.report.to_string() != job.report {
        return Err(Fail::Other(format!(
            "{} seed {}: report differs from the in-process reference",
            job.req.protocol, job.req.seed
        )));
    }
    if outcome.trace_digest != job.digest {
        return Err(Fail::Other(format!(
            "{} seed {}: trace digest differs from the in-process reference",
            job.req.protocol, job.req.seed
        )));
    }
    Ok(())
}

type Client = DaemonClient<StreamTransport<TcpStream>>;

fn connect(addr: SocketAddr) -> Result<Client, Fail> {
    let mut client = DaemonClient::connect_with_timeout(addr, VERB_TIMEOUT)
        .map_err(|e| Fail::Other(format!("connect: {e}")))?;
    client.hello()?;
    Ok(client)
}

/// One served session through the typed client.
fn served_session(
    c: &mut Client,
    kind: Kind,
    job: &Job,
    pause: u64,
) -> Result<SessionOutcome, Fail> {
    let mut id = c.open(job.req.clone())?;
    if kind == Kind::Checkpoint {
        if let RunEnd::Done(_) = c.run(id, Some(pause), |_, _, _, _| {})? {
            return Err(Fail::Other(format!(
                "session ended before pause point {pause}"
            )));
        }
        let snapshot = c.checkpoint(id)?;
        c.close(id)?;
        id = c.resume(snapshot)?;
    }
    let end = c.run(id, None, |_, _, _, _| {})?;
    c.close(id)?;
    match end {
        RunEnd::Done(outcome) => Ok(outcome),
        RunEnd::Paused { steps } => Err(Fail::Other(format!("paused at {steps} without a budget"))),
    }
}

/// A daemon serving on a loopback port from its own thread.
struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    fn start(out: &Path) -> Result<Server, Fail> {
        let daemon = Daemon::bind("127.0.0.1:0")
            .map_err(|e| Fail::Other(format!("bind: {e}")))?
            .with_flight_dir(out.join("flight"));
        let addr = daemon.local_addr();
        let stop = daemon.stop_handle();
        let thread = std::thread::spawn(move || daemon.run());
        Ok(Server { addr, stop, thread })
    }

    /// Stops the daemon and waits for it; a daemon that failed or
    /// panicked is reported.
    fn stop(self) -> Result<(), Fail> {
        self.stop.store(true, Ordering::Relaxed);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(Fail::Other(format!("daemon: {e}"))),
            Err(_) => Err(Fail::Other("the daemon thread panicked".to_string())),
        }
    }
}

/// One set-up: start the daemon, connect every client, and serve one
/// warm-up session per connection.
fn setup(kind: Kind, jobs: &[Job], out: &Path) -> Result<(f64, Server, Vec<Client>), Fail> {
    let t0 = Instant::now();
    let server = Server::start(out)?;
    let mut clients = Vec::new();
    for _ in 0..kind.connections() {
        let warmed = connect(server.addr).and_then(|mut c| {
            let job = &jobs[0];
            check(&served_session(&mut c, kind, job, job.steps / 2)?, job)?;
            Ok(c)
        });
        match warmed {
            Ok(c) => clients.push(c),
            Err(e) => {
                let _ = server.stop();
                return Err(e);
            }
        }
    }
    Ok((t0.elapsed().as_secs_f64(), server, clients))
}

/// What one connection saw.
#[derive(Default)]
struct Tally {
    latencies_us: Vec<f64>,
    attempted: u64,
    failures: Failures,
    busy: u64,
    errors: u64,
}

impl Tally {
    fn fail(&mut self, f: &Fail) {
        match f {
            Fail::Busy => self.busy += 1,
            Fail::Server(_) => self.errors += 1,
            Fail::Other(_) => {}
        }
        self.failures.add(f.message());
    }

    fn merge(mut self, other: Tally) -> Tally {
        self.latencies_us.extend(other.latencies_us);
        self.attempted += other.attempted;
        self.failures.merge(&other.failures);
        self.busy += other.busy;
        self.errors += other.errors;
        self
    }
}

/// Closed loop on one connection until `deadline`.
fn drive(
    kind: Kind,
    addr: SocketAddr,
    client: Option<Client>,
    jobs: &[Job],
    seed: u64,
    conn: usize,
    deadline: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let mut picker = Picker::new(seed, conn, jobs.len());
    let mut client = client;
    while Instant::now() < deadline {
        let (job, pause) = picker.pick(kind, jobs);
        tally.attempted += 1;
        let c = match client.take().map_or_else(|| connect(addr), Ok) {
            Ok(c) => client.insert(c),
            Err(f) => {
                tally.fail(&f);
                continue;
            }
        };
        let t0 = Instant::now();
        let served = served_session(c, kind, job, pause);
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        match served.and_then(|o| check(&o, job)) {
            Ok(()) => tally.latencies_us.push(dt),
            Err(f) => {
                tally.fail(&f);
                // Start the next session on a fresh connection.
                client = None;
            }
        }
    }
    tally
}

/// Runs every connection's closed loop for `seconds`; returns the merged
/// tally and the wall time it took.
fn load(
    kind: Kind,
    addr: SocketAddr,
    clients: Vec<Option<Client>>,
    jobs: &[Job],
    seed: u64,
    seconds: f64,
) -> (Tally, f64) {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let tally = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || drive(kind, addr, client, jobs, seed, conn, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .fold(Tally::default(), Tally::merge)
    });
    (tally, t0.elapsed().as_secs_f64())
}

/// Adds a tally's failures (count and first messages) to `out`.
fn record_tally(out: &mut Outcome, tally: &Tally) {
    out.attempted += tally.attempted;
    out.failures.merge(&tally.failures);
}

pub fn run(kind: Kind, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let jobs = pool(kind, p.seed);
    if p.trace {
        traced(kind, &jobs, p, &mut out);
        return out;
    }

    // Each epoch sets up a fresh daemon and fresh connections (new
    // threads, so a new placement on the cores) and measures a share of
    // the window; rates and percentiles pool every epoch.
    let mut setups = Vec::new();
    let mut epoch_rates = Vec::new();
    let mut tally = Tally::default();
    let mut wall = 0.0;
    let (mut cpu, mut steal) = (0.0, 0.0);
    for epoch in 0..EPOCHS {
        let (secs, server, clients) = match setup(kind, &jobs, &p.out) {
            Ok(ready) => ready,
            Err(f) => {
                out.attempted += 1;
                out.fail(format!("set-up: {}", f.message()));
                return out;
            }
        };
        setups.push(secs);
        let clock = CpuClock::now();
        let (t, w) = load(
            kind,
            server.addr,
            clients.into_iter().map(Some).collect(),
            &jobs,
            split_seed(p.seed, 10 + epoch as u64),
            p.seconds / EPOCHS as f64,
        );
        if let Err(f) = server.stop() {
            out.fail(f.message());
        }
        let (c, s) = clock.since();
        cpu += c;
        steal += s;
        epoch_rates.push(t.latencies_us.len() as f64 / w);
        wall += w;
        tally = tally.merge(t);
    }
    record_tally(&mut out, &tally);

    let ok = tally.latencies_us.len();
    let tail = kind.tail_pct();
    out.set("setup_s", percentile(&setups, 50.0).unwrap_or(f64::NAN));
    out.set("cpu_us_per_session", cpu * 1e6 / ok as f64);
    out.detail("sessions", Json::UInt(ok as u64));
    out.detail("sessions_per_s", Json::Float(ok as f64 / wall));
    out.detail(
        "sim_tags_per_s",
        Json::Float((ok as u64 * kind.tags()) as f64 / wall),
    );
    out.detail(
        "session_p50_us",
        Json::Float(percentile(&tally.latencies_us, 50.0).unwrap_or(f64::NAN)),
    );
    out.detail(
        "session_tail_us",
        Json::Float(percentile(&tally.latencies_us, tail).unwrap_or(f64::NAN)),
    );
    out.detail("session_tail_percentile", Json::Float(tail));
    out.detail("samples_beyond_tail", Json::UInt(beyond(ok, tail) as u64));
    out.detail("setup_samples_s", setups.to_json());
    out.detail("epoch_sessions_per_s", epoch_rates.to_json());
    out.detail("measured_wall_s", Json::Float(wall));
    out.detail("measured_cpu_s", Json::Float(cpu));
    out.detail("host_steal_s", Json::Float(steal));
    out.detail("busy_responses", Json::UInt(tally.busy));
    out.detail("error_responses", Json::UInt(tally.errors));
    out
}

// ------------------------------------------------------------- traced run

/// The verb of one exchange, with what the replay needs to repeat it.
#[derive(Clone, Copy)]
enum Verb {
    Open,
    Run(Option<u64>),
    Checkpoint,
    Close,
    Resume,
}

impl Verb {
    fn rpc_span(self) -> &'static str {
        match self {
            Verb::Open => "rpc.open",
            Verb::Run(_) => "rpc.run",
            Verb::Checkpoint => "rpc.checkpoint",
            Verb::Close => "rpc.close",
            Verb::Resume => "rpc.resume",
        }
    }

    fn handle_span(self) -> &'static str {
        match self {
            Verb::Open => "daemon.handle.open",
            Verb::Run(_) => "daemon.handle.run",
            Verb::Checkpoint => "daemon.handle.checkpoint",
            Verb::Close => "daemon.handle.close",
            Verb::Resume => "daemon.handle.resume",
        }
    }
}

/// One measured exchange, kept for the replay.
struct Exchange {
    verb: Verb,
    /// The request as it went on the wire.
    request: Vec<u8>,
    response_frame: Frame,
    transport: u64,
    decode: u64,
}

/// A raw TCP connection speaking the wire protocol through its public
/// codec, with a span between every call.
struct TracedConn {
    stream: TcpStream,
    decoder: Decoder,
    buf: Vec<u8>,
    /// The current session's exchanges, kept for the replay.
    log: Vec<Exchange>,
}

impl TracedConn {
    fn connect(addr: SocketAddr) -> Result<TracedConn, Fail> {
        let stream = TcpStream::connect(addr).map_err(|e| Fail::Other(format!("connect: {e}")))?;
        let io = |e: std::io::Error| Fail::Other(format!("socket: {e}"));
        stream.set_nodelay(true).map_err(io)?;
        stream.set_read_timeout(Some(VERB_TIMEOUT)).map_err(io)?;
        Ok(TracedConn {
            stream,
            decoder: Decoder::new(),
            buf: vec![0; 1 << 16],
            log: Vec::new(),
        })
    }

    fn exchange(
        &mut self,
        tr: &mut Tracer,
        session: u64,
        request: u64,
        verb: Verb,
        cmd: Command,
    ) -> Result<Response, Fail> {
        let rpc = tr.open(verb.rpc_span(), Some(session), request);
        let encode = tr.open("wire.encode", Some(rpc), request);
        let frame = cmd.to_frame();
        let bytes = frame.encode();
        tr.close(encode);
        let transport = tr.open("wire.transport", Some(rpc), request);
        self.stream
            .write_all(&bytes)
            .map_err(|e| Fail::Other(format!("send: {e}")))?;
        let (response_frame, arrived) = loop {
            let at = tr.now();
            match self.decoder.next() {
                Ok(Some(f)) => break (f, at),
                Ok(None) => {}
                Err(e) => return Err(Fail::Other(format!("frame: {e}"))),
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err(Fail::Other("server closed the connection".to_string())),
                Ok(n) => self.decoder.push(&self.buf[..n]),
                Err(e) => return Err(Fail::Other(format!("recv: {e}"))),
            }
        };
        tr.close_at(transport, arrived);
        let decode = tr.open_at("wire.decode", Some(rpc), request, arrived, false);
        let response = Response::from_frame(&response_frame)
            .map_err(|e| Fail::Other(format!("response: {e}")))?;
        tr.close(decode);
        tr.close(rpc);
        match &response {
            Response::Busy { .. } => return Err(Fail::Busy),
            Response::Error { code, message } => {
                return Err(Fail::Server(format!("{code:?}: {message}")))
            }
            _ => {}
        }
        self.log.push(Exchange {
            verb,
            request: bytes,
            response_frame,
            transport,
            decode,
        });
        Ok(response)
    }
}

fn unexpected(r: &Response) -> Fail {
    let what: String = format!("{r:?}").chars().take(200).collect();
    Fail::Other(format!("unexpected response {what}"))
}

/// The session script of [`served_session`], one span per exchange.
fn traced_session(
    conn: &mut TracedConn,
    tr: &mut Tracer,
    root: u64,
    request: u64,
    kind: Kind,
    job: &Job,
    pause: u64,
) -> Result<SessionOutcome, Fail> {
    conn.log.clear();
    let mut call =
        |tr: &mut Tracer, verb: Verb, cmd: Command| conn.exchange(tr, root, request, verb, cmd);
    let opened = |r: Response| match r {
        Response::Opened { session } => Ok(session),
        other => Err(unexpected(&other)),
    };
    let mut id = opened(call(tr, Verb::Open, Command::Open(job.req.clone()))?)?;
    if kind == Kind::Checkpoint {
        let max_steps = Some(pause);
        match call(
            tr,
            Verb::Run(max_steps),
            Command::Run {
                session: id,
                max_steps,
            },
        )? {
            Response::Paused { .. } => {}
            other => return Err(unexpected(&other)),
        }
        let snapshot = match call(tr, Verb::Checkpoint, Command::Checkpoint { session: id })? {
            Response::Snapshot { snapshot, .. } => snapshot,
            other => return Err(unexpected(&other)),
        };
        call(tr, Verb::Close, Command::Close { session: id })?;
        id = opened(call(tr, Verb::Resume, Command::Resume { snapshot })?)?;
    }
    let end = call(
        tr,
        Verb::Run(None),
        Command::Run {
            session: id,
            max_steps: None,
        },
    )?;
    call(tr, Verb::Close, Command::Close { session: id })?;
    match end {
        Response::Done { outcome, .. } => Ok(outcome),
        other => Err(unexpected(&other)),
    }
}

/// Per-session quantities the replay counts (sizes, events, steps).
#[derive(Default)]
struct Counts {
    sessions: u64,
    frames: u64,
    bytes: u64,
    admit_bytes: u64,
    opens: u64,
    snapshot_bytes: u64,
    snapshots: u64,
    restores: u64,
    trace_events: u64,
    trace_bytes: u64,
    steps: u64,
    /// Protocol → (tags, step-loop µs).
    step_rate: HashMap<&'static str, (f64, f64)>,
}

impl Counts {
    fn merge(mut self, o: Counts) -> Counts {
        self.sessions += o.sessions;
        self.frames += o.frames;
        self.bytes += o.bytes;
        self.admit_bytes += o.admit_bytes;
        self.opens += o.opens;
        self.snapshot_bytes += o.snapshot_bytes;
        self.snapshots += o.snapshots;
        self.restores += o.restores;
        self.trace_events += o.trace_events;
        self.trace_bytes += o.trace_bytes;
        self.steps += o.steps;
        for (k, (t, us)) in o.step_rate {
            let e = self.step_rate.entry(k).or_default();
            e.0 += t;
            e.1 += us;
        }
        self
    }
}

/// The engine state the daemon keeps for one session, rebuilt by
/// replaying the public calls `Service::handle` makes.
struct Engine {
    protocol: Box<dyn PollingProtocol>,
    config: SimConfig,
    ctx: Option<SimContext>,
    session: Option<Session>,
    snapshot: Option<Json>,
}

impl Engine {
    fn replay(
        &mut self,
        tr: &mut Tracer,
        handle: u64,
        request: u64,
        verb: Verb,
        job: &Job,
        c: &mut Counts,
    ) {
        match verb {
            Verb::Open => {
                let sc = scenario(&job.req);
                let population = tr.replay("workloads.build_population", handle, request, || {
                    sc.build_population()
                });
                let ctx = tr.replay("system.context_new", handle, request, || {
                    SimContext::new(population, &self.config)
                });
                let session = tr.replay("protocols.session_open", handle, request, || {
                    Session::open(self.protocol.as_ref(), &ctx)
                });
                let birth = tr.replay("daemon.admit_snapshot", handle, request, || {
                    session.snapshot(&ctx, &self.config)
                });
                c.admit_bytes += birth.to_string().len() as u64;
                c.opens += 1;
                self.ctx = Some(ctx);
                self.session = Some(session);
            }
            Verb::Run(max_steps) => {
                let (Some(session), Some(ctx)) = (self.session.as_mut(), self.ctx.as_mut()) else {
                    return;
                };
                let t0 = tr.now();
                let end = tr.replay("protocols.step_loop", handle, request, || match max_steps {
                    Some(k) => session.run_for(ctx, k),
                    None => Some(session.run(ctx)),
                });
                let rate = c.step_rate.entry(session.protocol_name()).or_default();
                rate.1 += (tr.now() - t0) as f64 / 1e3;
                if let Some(end) = end {
                    rate.0 += job.req.n as f64;
                    if self.config.trace {
                        let bytes = tr.replay("system.trace_digest", handle, request, || {
                            let jsonl = ctx.log.to_jsonl();
                            std::hint::black_box(fnv64(&jsonl));
                            jsonl.len()
                        });
                        c.trace_events += ctx.log.len() as u64;
                        c.trace_bytes += bytes as u64;
                    }
                    tr.replay("protocols.report_json", handle, request, || {
                        end.report().to_json()
                    });
                }
            }
            Verb::Checkpoint => {
                let (Some(session), Some(ctx)) = (self.session.as_ref(), self.ctx.as_ref()) else {
                    return;
                };
                let snap = tr.replay("protocols.snapshot", handle, request, || {
                    session.snapshot(ctx, &self.config)
                });
                c.snapshot_bytes += snap.to_string().len() as u64;
                c.snapshots += 1;
                self.snapshot = Some(snap);
            }
            Verb::Close => {
                self.session = None;
                self.ctx = None;
            }
            Verb::Resume => {
                let Some(snap) = self.snapshot.take() else {
                    return;
                };
                let restored = tr.replay("protocols.restore", handle, request, || {
                    Session::restore(self.protocol.as_ref(), &snap)
                });
                if let Ok((ctx, session)) = restored {
                    self.ctx = Some(ctx);
                    self.session = Some(session);
                }
                c.restores += 1;
            }
        }
    }
}

fn payload_text(frame: &Frame) -> &str {
    std::str::from_utf8(&frame.payload).unwrap_or("")
}

/// Replays one finished session's server side under its transport spans:
/// the server's decode, `Service::handle`, the layers inside it, and the
/// server's encode. Also replays the JSON parse inside the client decode.
fn replay(
    tr: &mut Tracer,
    service: &mut Service,
    request: u64,
    job: &Job,
    log: Vec<Exchange>,
    c: &mut Counts,
) {
    let mut engine = Engine {
        protocol: protocol(&job.req.protocol),
        config: served_config(&job.req),
        ctx: None,
        session: None,
        snapshot: None,
    };
    let mut local: u64 = 0;
    for ex in log {
        let _ = tr.replay("system.json_parse", ex.decode, request, || {
            Json::parse(payload_text(&ex.response_frame))
        });

        // The server's read path: frame integrity, then the command. The
        // JSON parse inside it is replayed on its own afterwards, as its
        // child.
        let server_decode = tr.open_replay("wire.decode_server", ex.transport, request);
        let mut decoder = Decoder::new();
        decoder.push(&ex.request);
        let frame = decoder
            .next()
            .ok()
            .flatten()
            .expect("a frame this client encoded decodes");
        let cmd = Command::from_frame(&frame).expect("a command this client encoded decodes");
        tr.close(server_decode);
        let _ = tr.replay("system.json_parse", server_decode, request, || {
            Json::parse(payload_text(&frame))
        });

        // The in-process service numbers its sessions itself.
        let cmd = match cmd {
            Command::Run { max_steps, .. } => Command::Run {
                session: local,
                max_steps,
            },
            Command::Checkpoint { .. } => Command::Checkpoint { session: local },
            Command::Close { .. } => Command::Close { session: local },
            other => other,
        };
        let handle = tr.open_replay(ex.verb.handle_span(), ex.transport, request);
        let responses = service.handle(cmd);
        tr.close(handle);
        if let Some(Response::Opened { session }) = responses.last() {
            local = *session;
        }
        engine.replay(tr, handle, request, ex.verb, job, c);

        let encoded = tr.replay("wire.encode_server", ex.transport, request, || {
            responses
                .iter()
                .map(|r| r.to_frame().encode().len())
                .sum::<usize>()
        });
        c.frames += 1 + responses.len() as u64;
        c.bytes += (ex.request.len() + encoded) as u64;
    }
    c.sessions += 1;
    c.steps += job.steps;
}

/// The traced phase on one connection.
fn drive_traced(
    kind: Kind,
    addr: SocketAddr,
    jobs: &[Job],
    p: &Params,
    conn: usize,
    epoch: Instant,
    deadline: Instant,
) -> (Tally, Vec<Span>, Counts) {
    let mut tally = Tally::default();
    let mut counts = Counts::default();
    let mut tr = Tracer::new(epoch, conn as u64 + 1);
    let mut service = Service::new().with_flight_dir(p.out.join("flight"));
    let mut picker = Picker::new(p.seed ^ 0x7ace, conn, jobs.len());
    let mut conn_state: Option<TracedConn> = None;
    let mut next_request = (conn as u64) << 32;
    while Instant::now() < deadline {
        let (job, pause) = picker.pick(kind, jobs);
        tally.attempted += 1;
        let c = match conn_state
            .take()
            .map_or_else(|| TracedConn::connect(addr), Ok)
        {
            Ok(c) => conn_state.insert(c),
            Err(f) => {
                tally.fail(&f);
                continue;
            }
        };
        let request = next_request;
        next_request += 1;
        let t0 = Instant::now();
        let root = tr.open("session", None, request);
        let served = traced_session(c, &mut tr, root, request, kind, job, pause);
        tr.close(root);
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        match served.and_then(|o| check(&o, job)) {
            Ok(()) => {
                tally.latencies_us.push(dt);
                let log = std::mem::take(&mut c.log);
                replay(&mut tr, &mut service, request, job, log, &mut counts);
            }
            Err(f) => {
                tr.forget(request);
                tally.fail(&f);
                conn_state = None;
            }
        }
    }
    (tally, tr.into_spans(), counts)
}

/// The traced run: an untraced third for the overhead baseline, then
/// two thirds with spans.
fn traced(kind: Kind, jobs: &[Job], p: &Params, out: &mut Outcome) {
    let server = match Server::start(&p.out) {
        Ok(s) => s,
        Err(f) => {
            out.attempted += 1;
            out.fail(format!("set-up: {}", f.message()));
            return;
        }
    };
    let addr = server.addr;
    let clients = (0..kind.connections()).map(|_| None).collect();
    let (plain, _) = load(kind, addr, clients, jobs, p.seed, p.seconds / 3.0);

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(p.seconds * 2.0 / 3.0);
    let results: Vec<(Tally, Vec<Span>, Counts)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..kind.connections())
            .map(|conn| {
                scope.spawn(move || drive_traced(kind, addr, jobs, p, conn, epoch, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced load thread panicked"))
            .collect()
    });
    if let Err(f) = server.stop() {
        out.fail(f.message());
    }

    let mut traced_tally = Tally::default();
    let mut spans = Vec::new();
    let mut c = Counts::default();
    for (t, s, k) in results {
        traced_tally = traced_tally.merge(t);
        spans.extend(s);
        c = c.merge(k);
    }
    record_tally(out, &plain);
    record_tally(out, &traced_tally);
    trace::save(
        out,
        &p.out,
        &format!("{}-{}", kind_name(kind), p.seed),
        &spans,
    );

    let plain_p50 = percentile(&plain.latencies_us, 50.0).unwrap_or(f64::NAN);
    let traced_p50 = percentile(&traced_tally.latencies_us, 50.0).unwrap_or(f64::NAN);
    out.set("trace.overhead_pct", (traced_p50 / plain_p50 - 1.0) * 100.0);
    out.detail("untraced_session_p50_us", Json::Float(plain_p50));
    out.detail(
        "untraced_sessions",
        Json::UInt(plain.latencies_us.len() as u64),
    );
    out.detail("traced_session_p50_us", Json::Float(traced_p50));
    out.set(
        "daemon.busy_responses",
        (plain.busy + traced_tally.busy) as f64,
    );
    out.set(
        "daemon.error_responses",
        (plain.errors + traced_tally.errors) as f64,
    );
    attribute(out, &spans, &c);
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Small => "serve_small",
        Kind::Checkpoint => "serve_checkpoint",
    }
}

/// Turns the spans into per-layer metrics and the attribution table:
/// per-session self time by layer, which sums to the traced session time.
fn attribute(out: &mut Outcome, spans: &[Span], c: &Counts) {
    let selfs = trace::self_us_by_name(spans);
    let s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let sessions = c.sessions.max(1) as f64;
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let (session_us, _) = trace::total_us(spans, "session");
    let handles = ["open", "run", "close", "checkpoint", "resume"];

    let rpc_self: f64 = [
        "rpc.open",
        "rpc.run",
        "rpc.checkpoint",
        "rpc.close",
        "rpc.resume",
    ]
    .iter()
    .map(|n| s(n))
    .sum();
    let dispatch: f64 = handles
        .iter()
        .map(|v| s(&format!("daemon.handle.{v}")))
        .sum();
    let layers: Vec<(&str, f64)> = vec![
        ("wire.encode", s("wire.encode") + s("wire.encode_server")),
        ("wire.decode", s("wire.decode") + s("wire.decode_server")),
        ("wire.transport", s("wire.transport")),
        ("system.json_parse", s("system.json_parse")),
        ("daemon.dispatch_self", dispatch),
        ("daemon.admit_snapshot", s("daemon.admit_snapshot")),
        (
            "workloads.build_population",
            s("workloads.build_population"),
        ),
        ("system.context_new", s("system.context_new")),
        ("protocols.session_open", s("protocols.session_open")),
        ("protocols.step_loop", s("protocols.step_loop")),
        ("system.trace_digest", s("system.trace_digest")),
        ("protocols.report_json", s("protocols.report_json")),
        ("protocols.snapshot", s("protocols.snapshot")),
        ("protocols.restore", s("protocols.restore")),
        ("unattributed", s("session") + rpc_self),
    ];
    let attributed: f64 = layers.iter().map(|(_, v)| v).sum();
    let mut table: Vec<(String, Json)> = layers
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Float(v / sessions)))
        .collect();
    table.push(("session".to_string(), Json::Float(session_us / sessions)));
    table.push((
        "sum_minus_session".to_string(),
        Json::Float((attributed - session_us) / sessions),
    ));
    out.detail("attribution_us_per_session", Json::Obj(table));
    out.detail(
        "attribution_note",
        Json::str("self time per layer per traced session; work inside the daemon is reconstructed by replaying the same public calls outside it"),
    );
    out.detail("traced_sessions", Json::UInt(c.sessions));

    out.set("trace.session_us", session_us / sessions);
    out.set(
        "trace.unattributed_us",
        (s("session") + rpc_self) / sessions,
    );
    out.set("wire.encode_us", per(layers[0].1, c.frames));
    out.set("wire.decode_us", per(layers[1].1, c.frames));
    out.set("wire.frames_per_session", c.frames as f64 / sessions);
    out.set("wire.bytes_per_session", c.bytes as f64 / sessions);
    out.set("wire.transport_us", s("wire.transport") / sessions);
    for verb in handles {
        let (us, n) = trace::total_us(spans, &format!("daemon.handle.{verb}"));
        out.set(format!("daemon.handle_us.{verb}"), per(us, n));
    }
    out.set("daemon.dispatch_self_us", dispatch / sessions);
    out.set(
        "daemon.admit_snapshot_us",
        s("daemon.admit_snapshot") / sessions,
    );
    out.set(
        "daemon.admit_snapshot_bytes",
        per(c.admit_bytes as f64, c.opens),
    );
    out.set(
        "protocols.session_open_us",
        s("protocols.session_open") / sessions,
    );
    out.set(
        "protocols.step_loop_us",
        s("protocols.step_loop") / sessions,
    );
    out.set("protocols.steps", c.steps as f64 / sessions);
    for (name, (tags, us)) in &c.step_rate {
        if *us > 0.0 {
            out.set(
                format!("protocols.step_loop_tags_per_s.{name}"),
                tags / (us / 1e6),
            );
        }
    }
    let (snap_us, _) = trace::total_us(spans, "protocols.snapshot");
    let (restore_us, _) = trace::total_us(spans, "protocols.restore");
    out.set("protocols.snapshot_us", per(snap_us, c.snapshots));
    out.set(
        "protocols.snapshot_bytes",
        per(c.snapshot_bytes as f64, c.snapshots),
    );
    out.set("protocols.restore_us", per(restore_us, c.restores));
    out.set(
        "protocols.report_json_us",
        s("protocols.report_json") / sessions,
    );
    out.set(
        "workloads.build_population_us",
        s("workloads.build_population") / sessions,
    );
    out.set("system.context_new_us", s("system.context_new") / sessions);
    out.set("system.trace_events", c.trace_events as f64 / sessions);
    out.set("system.trace_jsonl_bytes", c.trace_bytes as f64 / sessions);
    out.set(
        "system.trace_digest_us",
        s("system.trace_digest") / sessions,
    );
    out.set("system.json_parse_us", s("system.json_parse") / sessions);
}
