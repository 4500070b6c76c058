//! Hostile-byte fuzz against the daemon's dispatch loop: raw garbage,
//! corrupted frames and well-framed-but-malformed payloads are written
//! straight into a live loopback connection. The server must answer each
//! offence with a typed `Error` response — never panic, never close the
//! connection, never corrupt a live session — and a valid command sent
//! *after* the abuse must still work against the same session table.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use rfid_hash::prop::{self, Gen};
use rfid_hash::prop_assert;
use rfid_protocols::RecoveryPolicy;
use rfid_system::{FaultModel, Json, SimConfig};
use rfid_wire::{
    loopback, Command, ErrorCode, Frame, OpenRequest, Response, Transport, MAX_PAYLOAD,
};

use rfid_daemon::{serve_connection, ClientError, DaemonClient, RunEnd, Service};

/// Runs `abuse` against a served loopback connection: opens a session,
/// fires the hostile bytes, then checks the session still runs to
/// completion. Returns the error-class responses the server sent back.
fn survives_abuse(
    g: &mut Gen,
    abuse: impl FnOnce(&mut Gen, &mut Vec<u8>),
) -> Result<Vec<ErrorCode>, String> {
    let (server_end, client_end) = loopback();
    let stop = Arc::new(AtomicBool::new(false));
    let server_stop = Arc::clone(&stop);
    let server = std::thread::spawn(move || {
        let mut transport = server_end;
        let mut service = Service::new();
        let _ = serve_connection(&mut transport, &mut service, &server_stop);
        service.session_count()
    });

    let mut client = DaemonClient::new(client_end);
    let session = client
        .open(OpenRequest::new("TPP", 32 + g.u64_below(64), 4, g.u64()))
        .map_err(|e| format!("open failed: {e}"))?;

    // Fire the hostile bytes, then a Hello as a synchronization barrier:
    // once HelloOk comes back, every abuse byte has been dispatched.
    let mut bytes = Vec::new();
    abuse(g, &mut bytes);
    use std::io::Write as _;
    client
        .transport_mut()
        .get_mut()
        .write_all(&bytes)
        .map_err(|e| format!("write failed: {e}"))?;
    client
        .transport_mut()
        .send(&Command::Hello.to_frame())
        .map_err(|e| format!("hello send failed: {e}"))?;

    let mut errors = Vec::new();
    loop {
        match client.transport_mut().recv() {
            Ok(Some(frame)) => match Response::from_frame(&frame) {
                Ok(Response::Error { code, .. }) => errors.push(code),
                Ok(Response::HelloOk { .. }) => break,
                Ok(other) => return Err(format!("unsolicited response: {other:?}")),
                Err(e) => return Err(format!("server sent undecodable frame: {e}")),
            },
            Ok(None) => return Err("server closed the connection".to_string()),
            Err(e) => return Err(format!("recv failed: {e}")),
        }
    }

    // The session opened before the abuse must be unharmed.
    match client
        .run(session, None, |_, _, _, _| {})
        .map_err(|e| format!("post-abuse run failed: {e}"))?
    {
        RunEnd::Done(outcome) => {
            if outcome.status != "complete" {
                return Err(format!("session degraded to {}", outcome.status));
            }
        }
        RunEnd::Paused { .. } => return Err("unbounded run paused".to_string()),
    }
    client
        .shutdown()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    drop(client);
    let live_sessions = server.join().map_err(|_| "server thread panicked")?;
    if live_sessions == 0 {
        return Err("session table was wiped by the abuse".to_string());
    }
    Ok(errors)
}

#[test]
fn raw_garbage_yields_typed_errors_and_leaves_sessions_alive() {
    prop::check("daemon_garbage_bytes", 40, |g| {
        let errors = survives_abuse(g, |g, bytes| {
            for _ in 0..g.len_in(1, 128) {
                bytes.push(g.u8());
            }
            // Cap any fabricated header's length claim: random garbage can
            // contain SOF+version by chance, and an unbounded length field
            // would make the server wait for megabytes that never come —
            // stalling the test, not the protocol. Zero the claim's high
            // bytes and append a flushing pad larger than any capped claim.
            for i in 0..bytes.len().saturating_sub(4) {
                if bytes[i] == 0xBB && bytes[i + 1] == 0x01 {
                    bytes[i + 3] = 0;
                    bytes[i + 4] = 0;
                }
            }
            bytes.extend(std::iter::repeat(0u8).take((1 << 16) + 16));
        })?;
        // Garbage may be silently absorbed into the next frame scan (it
        // only errors once a SOF-shaped lie fails a check), so no floor
        // on the error count — only the typed-ness of what came back.
        for code in errors {
            prop_assert!(
                matches!(code, ErrorCode::BadFrame | ErrorCode::BadPayload),
                "garbage produced non-codec error {code:?}"
            );
        }
        Ok(())
    });
}

#[test]
fn pre_hello_garbage_is_a_resync_diagnostic() {
    // Garbage *before the first decoded frame* (a peer speaking some
    // other protocol at our port) is answered with the distinct
    // `Resync` code, not the mid-stream `BadFrame` — and the connection
    // still serves normally once real frames arrive.
    prop::check("daemon_pre_hello_garbage", 30, |g| {
        let (server_end, client_end) = loopback();
        let stop = Arc::new(AtomicBool::new(false));
        let server_stop = Arc::clone(&stop);
        let server = std::thread::spawn(move || {
            let mut transport = server_end;
            let mut service = Service::new();
            let _ = serve_connection(&mut transport, &mut service, &server_stop);
        });

        let mut client = DaemonClient::new(client_end);
        // No byte may be the start-of-frame delimiter, so the whole
        // prefix is skipped in one resynchronization scan.
        let mut bytes = Vec::new();
        for _ in 0..g.len_in(1, 64) {
            let b = g.u8();
            bytes.push(if b == 0xBB { 0xBA } else { b });
        }
        use std::io::Write as _;
        client
            .transport_mut()
            .get_mut()
            .write_all(&bytes)
            .map_err(|e| format!("write failed: {e}"))?;
        client
            .transport_mut()
            .send(&Command::Hello.to_frame())
            .map_err(|e| format!("hello send failed: {e}"))?;

        let mut saw_resync = false;
        loop {
            match client.transport_mut().recv() {
                Ok(Some(frame)) => match Response::from_frame(&frame) {
                    Ok(Response::Error { code, .. }) => {
                        prop_assert!(
                            matches!(code, ErrorCode::Resync),
                            "pre-hello garbage produced {code:?}, not Resync"
                        );
                        saw_resync = true;
                    }
                    Ok(Response::HelloOk { .. }) => break,
                    Ok(other) => return Err(format!("unsolicited response: {other:?}")),
                    Err(e) => return Err(format!("server sent undecodable frame: {e}")),
                },
                Ok(None) => return Err("server closed the connection".to_string()),
                Err(e) => return Err(format!("recv failed: {e}")),
            }
        }
        prop_assert!(
            saw_resync,
            "garbage before the first frame went undiagnosed"
        );

        client
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        drop(client);
        server.join().map_err(|_| "server thread panicked")?;
        Ok(())
    });
}

#[test]
fn corrupted_frames_yield_bad_frame_errors() {
    prop::check("daemon_corrupt_frame", 40, |g| {
        let errors = survives_abuse(g, |g, bytes| {
            let mut f = Command::Checkpoint { session: g.u64() }.to_frame().encode();
            // Flip a byte past the length field so the frame shape stays
            // plausible but the CRC (or terminator) breaks.
            let at = 7 + g.u64_below((f.len() - 7) as u64) as usize;
            f[at] ^= 1u8 << g.u64_below(8);
            bytes.extend_from_slice(&f);
        })?;
        prop_assert!(!errors.is_empty(), "corruption went unanswered");
        Ok(())
    });
}

#[test]
fn malformed_payloads_yield_bad_payload_errors() {
    prop::check("daemon_malformed_payload", 40, |g| {
        let errors = survives_abuse(g, |g, bytes| {
            match g.u64_below(3) {
                // Unknown command kind, valid JSON.
                0 => bytes.extend_from_slice(&Frame::new(0x7F, b"{}".to_vec()).encode()),
                // Known kind, non-JSON payload.
                1 => bytes.extend_from_slice(&Frame::new(0x03, g.vec(1, 32, |g| g.u8())).encode()),
                // Known kind, JSON of the wrong shape.
                _ => bytes
                    .extend_from_slice(&Frame::new(0x02, b"{\"protocol\":42}".to_vec()).encode()),
            }
        })?;
        prop_assert!(!errors.is_empty(), "malformed payload went unanswered");
        for code in errors {
            prop_assert!(
                matches!(code, ErrorCode::BadPayload | ErrorCode::BadFrame),
                "expected codec error, got {code:?}"
            );
        }
        Ok(())
    });
}

#[test]
fn commands_for_bogus_sessions_never_kill_the_connection() {
    prop::check("daemon_bogus_sessions", 30, |g| {
        let errors = survives_abuse(g, |g, bytes| {
            let bogus = 1_000 + g.u64();
            bytes.extend_from_slice(
                &Command::Run {
                    session: bogus,
                    max_steps: None,
                }
                .to_frame()
                .encode(),
            );
            bytes.extend_from_slice(&Command::Close { session: bogus }.to_frame().encode());
        })?;
        prop_assert!(errors.len() >= 2, "expected two UnknownSession errors");
        for code in errors {
            prop_assert!(
                matches!(code, ErrorCode::UnknownSession),
                "expected UnknownSession, got {code:?}"
            );
        }
        Ok(())
    });
}

/// A command too large for one frame fails on the client with a typed
/// `TooLarge` before any byte is sent, and the connection keeps working.
#[test]
fn oversize_command_is_a_typed_error_and_the_connection_survives() {
    let (mut server_end, client_end) = loopback();
    let server = std::thread::spawn(move || {
        serve_connection(
            &mut server_end,
            &mut Service::new(),
            &AtomicBool::new(false),
        )
    });
    let mut client = DaemonClient::new(client_end);
    // Each control character escapes to six bytes (`\u0001`), so the JSON
    // just exceeds MAX_PAYLOAD while the test holds a sixth of it.
    let huge = Json::str("\u{1}".repeat(MAX_PAYLOAD / 6 + 1));
    match client.resume(huge) {
        Err(ClientError::TooLarge { bytes }) => assert!(bytes > MAX_PAYLOAD),
        other => panic!("expected TooLarge, got {other:?}"),
    }
    let session = client
        .open(OpenRequest::new("HPP", 40, 4, 3))
        .expect("connection still usable");
    assert!(matches!(
        client.run(session, None, |_, _, _, _| {}),
        Ok(RunEnd::Done(_))
    ));
    drop(client);
    server.join().unwrap().expect("clean close");
}

/// A valid `Open` whose population could never be checkpointed in one
/// frame is refused with a typed `Rejected` at admission — before the
/// population is built — and the connection keeps serving.
#[test]
fn huge_open_requests_are_rejected_at_admission() {
    let (mut server_end, client_end) = loopback();
    let server = std::thread::spawn(move || {
        serve_connection(
            &mut server_end,
            &mut Service::new(),
            &AtomicBool::new(false),
        )
    });
    let mut client = DaemonClient::new(client_end);
    for (n, info_bits) in [(u64::MAX, 1), (10_000_000, 1), (64, u64::MAX)] {
        match client.open(OpenRequest::new("HPP", n, info_bits, 5)) {
            Err(ClientError::Server {
                code: ErrorCode::Rejected,
                message,
            }) => assert!(message.contains("frame"), "{message}"),
            other => panic!("n = {n}, info_bits = {info_bits}: expected Rejected, got {other:?}"),
        }
    }
    let session = client
        .open(OpenRequest::new("EHPP", 300, 4, 5))
        .expect("connection still usable");
    assert!(matches!(
        client.run(session, None, |_, _, _, _| {}),
        Ok(RunEnd::Done(_))
    ));
    drop(client);
    server.join().unwrap().expect("clean close");
}

/// A recovery policy is decoded exactly, so a client can ask for the
/// largest possible backoff. A jammed session under that policy must still
/// end in a typed answer — backoff arithmetic saturates instead of
/// overflowing — and a policy whose circuit breaker could never close is a
/// typed decode error. The connection keeps serving either way.
#[test]
fn hostile_recovery_policies_get_typed_answers() {
    let (mut server_end, client_end) = loopback();
    let server = std::thread::spawn(move || {
        serve_connection(
            &mut server_end,
            &mut Service::new(),
            &AtomicBool::new(false),
        )
    });
    let mut client = DaemonClient::new(client_end);
    let jammed = |policy: RecoveryPolicy| {
        let mut req = OpenRequest::new("HPP", 32, 4, 9);
        req.config =
            Some(SimConfig::paper(9).with_fault(FaultModel::perfect().with_downlink_loss(1.0)));
        req.policy = Some(policy);
        req
    };

    // Three breaker windows: two stalled passes, each charged a saturated
    // u64::MAX backoff, before the circuit opens.
    let max_backoff = RecoveryPolicy {
        max_passes: 0,
        base_backoff_us: u64::MAX,
        max_backoff_us: u64::MAX,
        zero_progress_limit: 3,
    };
    let session = client.open(jammed(max_backoff)).expect("policy admitted");
    match client.run(session, None, |_, _, _, _| {}) {
        Ok(RunEnd::Done(outcome)) => {
            assert_eq!(outcome.status, "degraded");
            assert_eq!(outcome.cause.as_deref(), Some("circuit-open"));
            assert_eq!(outcome.passes, 3);
            let counters = outcome.report.get("counters").expect("report has counters");
            let backoff: u64 = counters.field("recovery_backoff_us").expect("counter");
            assert_eq!(backoff, u64::MAX, "the backoff counter saturates");
        }
        other => panic!("expected a degraded Done, got {other:?}"),
    }

    let no_breaker = RecoveryPolicy {
        zero_progress_limit: 0,
        ..RecoveryPolicy::default()
    };
    match client.open(jammed(no_breaker)) {
        Err(ClientError::Server {
            code: ErrorCode::BadPayload,
            message,
        }) => assert!(message.contains("zero_progress_limit"), "{message}"),
        other => panic!("expected BadPayload, got {other:?}"),
    }

    let session = client
        .open(OpenRequest::new("TPP", 64, 4, 5))
        .expect("connection still usable");
    match client.run(session, None, |_, _, _, _| {}) {
        Ok(RunEnd::Done(outcome)) => assert_eq!(outcome.status, "complete"),
        other => panic!("expected a complete Done, got {other:?}"),
    }
    drop(client);
    server.join().unwrap().expect("clean close");
}
