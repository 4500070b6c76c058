//! Chaos-soak resilience gate: client-side chaos (seeded byte flips,
//! cuts, Gilbert–Elliott bursts), daemon-side kill points, shedding
//! pressure, and drain-on-shutdown — every faulted session must finish
//! with report JSON and FNV-1a trace digest *bit-identical* to its
//! unfaulted in-process reference. Because every chaos plan carries a
//! finite fault budget, the link is eventually usable, so each arm
//! demands a 100% recovery rate. Each arm also checks that its fault
//! plane actually fired: faults injected and retries or reconnects on the
//! chaos arms, a resurrection on the kill arm, a shed client under
//! pressure, and a drained session at shutdown.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use rfid_bench::fnv64;
use rfid_daemon::{
    install_killpoint_hook, DaemonClient, FleetLimits, ResilientClient, RetryPolicy,
};
use rfid_protocols::{Session, SessionEnd, TppConfig};
use rfid_system::{GilbertElliott, SimConfig, SimContext, ToJson};
use rfid_wire::{ChaosDirector, ChaosPlan, OpenRequest};
use rfid_workloads::Scenario;

const PROTOCOL: &str = "TPP";
const N: u64 = 96;
const INFO_BITS: u64 = 4;
const SEEDS: [u64; 3] = [11, 47, 203];

/// What one arm observed across its sessions.
#[derive(Debug, Default)]
struct Tally {
    sessions: u64,
    recovered: u64,
    retries: u64,
    reconnects: u64,
    faults_injected: u64,
    resurrections: u64,
    shed: u64,
    drains: u64,
}

impl Tally {
    /// Recovery rate 1.0: every attempted session landed bit-identically.
    fn assert_all_recovered(&self) {
        assert!(self.sessions > 0, "no sessions were attempted: {self:?}");
        assert_eq!(
            self.recovered, self.sessions,
            "not every session recovered bit-identically: {self:?}"
        );
    }

    /// A chaos arm proves something only if the link actually hurt.
    fn assert_link_hurt(&self) {
        assert!(
            self.faults_injected > 0,
            "chaos injected no faults: {self:?}"
        );
        assert!(
            self.retries + self.reconnects > 0,
            "client never had to retry or reconnect: {self:?}"
        );
    }
}

/// The unfaulted in-process reference identity for one seed.
fn local_identity(seed: u64) -> (String, u64) {
    let scenario = Scenario::uniform(N as usize, INFO_BITS as usize).with_seed(seed);
    let config = SimConfig::paper(scenario.protocol_seed()).with_trace();
    let protocol = TppConfig::default().into_protocol();
    let mut ctx = SimContext::new(scenario.build_population(), &config);
    let mut session = Session::open(&protocol, &ctx);
    let SessionEnd::Complete { report, .. } = session.run(&mut ctx) else {
        panic!("reference run did not complete (seed {seed})");
    };
    (report.to_json().to_string(), fnv64(&ctx.log.to_jsonl()))
}

fn open_req(seed: u64) -> OpenRequest {
    OpenRequest::new(PROTOCOL, N, INFO_BITS, seed)
}

fn policy() -> RetryPolicy {
    RetryPolicy::default()
        .with_verb_timeout(Duration::from_millis(800))
        .with_checkpoint_every(3)
        .with_backoff_us(200, 5_000)
        .with_max_attempts(80)
}

fn outcome_identity(outcome: &rfid_wire::SessionOutcome) -> Option<(String, u64)> {
    (outcome.status == "complete").then(|| {
        (
            outcome.report.to_string(),
            outcome.trace_digest.unwrap_or(0),
        )
    })
}

/// One chaos arm: every seed runs through a fresh daemon and a chaos
/// link built from `mk_plan(seed)`; the resilient client must land on
/// the bit-identical reference.
fn chaos_arm(kill_after: Option<u64>, mk_plan: impl Fn(u64) -> ChaosPlan) -> Tally {
    install_killpoint_hook();
    let mut tally = Tally::default();
    for seed in SEEDS {
        tally.sessions += 1;
        let mut daemon = rfid_daemon::Daemon::bind("127.0.0.1:0")
            .expect("bind")
            .with_shards(2)
            .with_supervise_every(2);
        if let Some(after) = kill_after {
            daemon = daemon.with_kill_after(after);
        }
        let addr = daemon.local_addr();
        let stop = daemon.stop_handle();
        let supervisor = daemon.supervisor();
        let server = std::thread::spawn(move || daemon.run());

        let director = ChaosDirector::new(mk_plan(seed));
        let dialer = director.clone();
        let policy = policy();
        let verb_timeout = policy.verb_timeout;
        let mut client = ResilientClient::new(
            move || {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_millis(10)))?;
                Ok(DaemonClient::new(dialer.transport(stream)).with_verb_timeout(verb_timeout))
            },
            policy,
        );
        let outcome = client.run_to_done(&open_req(seed)).expect("chaos run");
        if outcome_identity(&outcome) == Some(local_identity(seed)) {
            tally.recovered += 1;
        }
        tally.retries += client.retries();
        tally.reconnects += client.reconnects();
        tally.faults_injected += director.faults_injected();

        stop.store(true, Ordering::Relaxed);
        server.join().expect("daemon thread").expect("daemon ok");
        tally.resurrections += supervisor.counter("sessions_resurrected");
        supervisor.reconcile().expect("session conservation");
    }
    tally
}

/// Clean serving baseline: a plain client on an unfaulted link must
/// match the in-process reference (the control arm of the soak).
#[test]
fn reference() {
    let mut tally = Tally::default();
    let daemon = rfid_daemon::Daemon::bind("127.0.0.1:0").expect("bind");
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let server = std::thread::spawn(move || daemon.run());
    for seed in SEEDS {
        tally.sessions += 1;
        let mut client = DaemonClient::connect(addr).expect("connect");
        let session = client.open(open_req(seed)).expect("open");
        let outcome = match client.run(session, None, |_, _, _, _| {}).expect("run") {
            rfid_daemon::RunEnd::Done(outcome) => outcome,
            rfid_daemon::RunEnd::Paused { .. } => panic!("unbounded run paused"),
        };
        client.close(session).expect("close");
        if outcome_identity(&outcome) == Some(local_identity(seed)) {
            tally.recovered += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    server.join().expect("daemon thread").expect("daemon ok");
    tally.assert_all_recovered();
}

#[test]
fn chaos_flips() {
    let tally = chaos_arm(None, |seed| ChaosPlan::flips(seed, 0.002, 30));
    tally.assert_all_recovered();
    tally.assert_link_hurt();
}

#[test]
fn chaos_cuts() {
    let tally = chaos_arm(None, |seed| ChaosPlan::cuts(seed, 0.0008, 12));
    tally.assert_all_recovered();
    tally.assert_link_hurt();
}

#[test]
fn chaos_burst() {
    let tally = chaos_arm(None, |seed| {
        ChaosPlan::flips(seed, 0.02, 30).with_burst(GilbertElliott::new(0.002, 0.05, 0.0, 1.0))
    });
    tally.assert_all_recovered();
    tally.assert_link_hurt();
}

/// A mild flip plan plus a fire-once daemon-side kill at step 4 (sessions
/// run 6–8 steps): both fault planes in one arm, and the kill must cross
/// the supervisor's resurrection path.
#[test]
fn chaos_kill() {
    let tally = chaos_arm(Some(4), |seed| ChaosPlan::flips(seed, 0.0005, 10));
    tally.assert_all_recovered();
    tally.assert_link_hurt();
    assert!(
        tally.resurrections > 0,
        "no session was resurrected: {tally:?}"
    );
}

/// Shedding pressure: more resilient clients than the admission budget
/// allows. Every client must complete bit-identically, and admission
/// control must have shed at least once. The budget starts full, held by
/// a plain client until the first shed, so the shed does not depend on
/// how the scheduler happens to overlap the clients.
#[test]
fn shed_pressure() {
    const CLIENTS: usize = 6;
    let daemon = rfid_daemon::Daemon::bind("127.0.0.1:0")
        .expect("bind")
        .with_shards(4)
        .with_limits(FleetLimits::bounded(2, 2).with_retry_after_us(2_000));
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let supervisor = daemon.supervisor();
    let server = std::thread::spawn(move || daemon.run());

    let mut holder = DaemonClient::connect(addr).expect("connect");
    let held: Vec<u64> = SEEDS[..2]
        .iter()
        .map(|&seed| holder.open(open_req(seed)).expect("open"))
        .collect();
    let outcomes: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let seed = SEEDS[c % SEEDS.len()];
                    let mut client = ResilientClient::tcp(
                        addr,
                        policy()
                            .with_verb_timeout(Duration::from_secs(5))
                            .with_checkpoint_every(16),
                    );
                    let outcome = client.run_to_done(&open_req(seed)).expect("run");
                    outcome_identity(&outcome) == Some(local_identity(seed))
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while supervisor.counter("sessions_shed") == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        for session in held {
            holder.close(session).expect("close");
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    drop(holder);
    stop.store(true, Ordering::Relaxed);
    server.join().expect("daemon thread").expect("daemon ok");

    let tally = Tally {
        sessions: outcomes.len() as u64,
        recovered: outcomes.iter().filter(|&&ok| ok).count() as u64,
        shed: supervisor.counter("sessions_shed"),
        ..Tally::default()
    };
    supervisor.reconcile().expect("session conservation");
    tally.assert_all_recovered();
    assert!(tally.shed > 0, "admission control never shed: {tally:?}");
}

/// Drain-on-shutdown: sessions still live when the listener closes are
/// checkpointed; each drained snapshot must restore in-process to the
/// bit-identical reference.
#[test]
fn drain_shutdown() {
    let daemon = rfid_daemon::Daemon::bind("127.0.0.1:0")
        .expect("bind")
        .with_shards(2);
    let addr = daemon.local_addr();
    let supervisor = daemon.supervisor();
    let server = std::thread::spawn(move || daemon.run());

    let mut client = DaemonClient::connect(addr).expect("connect");
    for seed in SEEDS {
        let session = client.open(open_req(seed)).expect("open");
        match client.run(session, Some(5), |_, _, _, _| {}).expect("run") {
            rfid_daemon::RunEnd::Paused { .. } => {}
            rfid_daemon::RunEnd::Done(_) => panic!("5 steps must not finish {N} tags"),
        }
    }
    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("daemon thread").expect("daemon ok");

    let mut tally = Tally {
        drains: supervisor.counter("drain_checkpoints"),
        ..Tally::default()
    };
    let protocol = rfid_daemon::protocol_by_name(PROTOCOL).expect("servable");
    // Drain order is session-table order, not open order: match each
    // finished snapshot against the reference identity *set*.
    let mut expected: Vec<(String, u64)> = SEEDS.iter().map(|&s| local_identity(s)).collect();
    for (_gid, snapshot) in &supervisor.drained() {
        tally.sessions += 1;
        let (mut ctx, mut session) =
            Session::restore(protocol.as_ref(), snapshot).expect("drained snapshot restores");
        let SessionEnd::Complete { report, .. } = session.run(&mut ctx) else {
            panic!("drained snapshot did not complete");
        };
        let identity = (report.to_json().to_string(), fnv64(&ctx.log.to_jsonl()));
        if let Some(at) = expected.iter().position(|e| *e == identity) {
            expected.remove(at);
            tally.recovered += 1;
        }
    }
    supervisor.reconcile().expect("session conservation");
    tally.assert_all_recovered();
    assert!(tally.drains > 0, "shutdown drained no sessions: {tally:?}");
}
