//! Wire-protocol conformance for the framed-TCP serving edge: the
//! handshake admits known tenants and refuses the rest with typed
//! codes, every structural violation of the frame grammar (bad magic,
//! wrong version, unknown kind, corrupt checksum, oversized or
//! undersized length prefix) is answered with a protocol error frame —
//! never a panic, never a hang — and a torn or poisoned connection
//! leaves the server fully healthy for the next client. The fuzz
//! battery drives the same contract with randomly mutated byte streams.

use grain::core::edge::proto::{
    self, Frame, Hello, WireRequest, CODE_PROTOCOL, CODE_UNAUTHENTICATED, CODE_UNKNOWN_TENANT,
};
use grain::core::edge::{EdgeError, RequestOptions};
use grain::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One server shared by every test in this binary: the edge is built to
/// serve many concurrent, mutually isolated connections, so hammering a
/// single instance from parallel tests IS the test.
fn shared_server() -> &'static EdgeServer {
    static SERVER: OnceLock<EdgeServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let dataset = grain::data::synthetic::papers_like(150, 7);
        let service = Arc::new(GrainService::new());
        service
            .register_graph("papers", dataset.graph.clone(), dataset.features.clone())
            .unwrap();
        let config = EdgeConfig {
            max_connections: 64,
            tenants: vec![
                TenantSpec::open("gold", 10),
                TenantSpec::open("bronze", 1),
                TenantSpec::open("vault", 2).with_secret("s3cret"),
            ],
            ..EdgeConfig::default()
        };
        EdgeServer::bind("127.0.0.1:0", service, config).unwrap()
    })
}

fn addr() -> SocketAddr {
    shared_server().local_addr()
}

fn request(budget: usize, seed: u64) -> SelectionRequest {
    SelectionRequest::new("papers", GrainConfig::ball_d(), Budget::Fixed(budget)).with_seed(seed)
}

/// Connects raw and completes the hello handshake for `tenant`.
fn raw_hello(tenant: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    proto::write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            tenant: tenant.into(),
            secret: String::new(),
        }),
    )
    .unwrap();
    match proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME_LEN).unwrap() {
        Frame::HelloAck(_) => stream,
        other => panic!("expected a hello-ack, got {other:?}"),
    }
}

/// The health probe: a fresh connection must complete a real selection.
/// Run after every poisoned connection to prove isolation.
fn server_still_serves(seed: u64) {
    let mut client = EdgeClient::connect(addr(), "gold", "").expect("fresh connection admitted");
    let report = client
        .request(request(3, seed), RequestOptions::default())
        .expect("fresh connection serves a real selection");
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(report.outcomes[0].selected.len(), 3);
}

#[test]
fn hello_ack_reports_the_tenant_admission_parameters() {
    let client = EdgeClient::connect(addr(), "gold", "").unwrap();
    let ack = client.ack();
    assert_eq!(ack.weight, 10);
    assert!(ack.rate_per_sec > 0.0);
    assert!(ack.burst > 0.0);
}

#[test]
fn unknown_tenant_and_bad_secret_are_typed_refusals() {
    match EdgeClient::connect(addr(), "nobody", "") {
        Err(EdgeError::Remote { code, .. }) => assert_eq!(code, CODE_UNKNOWN_TENANT),
        other => panic!("unknown tenant must be refused, got {other:?}"),
    }
    match EdgeClient::connect(addr(), "vault", "wrong") {
        Err(EdgeError::Remote { code, .. }) => assert_eq!(code, CODE_UNAUTHENTICATED),
        other => panic!("bad secret must be refused, got {other:?}"),
    }
    // The right secret is admitted with the tenant's own weight.
    let client = EdgeClient::connect(addr(), "vault", "s3cret").unwrap();
    assert_eq!(client.ack().weight, 2);
    assert!(shared_server().stats().auth_failures >= 2);
}

/// Flipped magic, bumped version, unknown kind, and a corrupted
/// checksum each draw a protocol-error frame (code 65) followed by a
/// clean close — and the very next connection is served normally.
#[test]
fn structural_frame_violations_are_typed_refusals_not_panics() {
    let valid = proto::encode_frame(&Frame::Request(Box::new(WireRequest {
        request_id: 1,
        priority: 0,
        deadline_ms: 0,
        on_deadline: OnDeadline::Fail,
        request: request(3, 1),
    })));

    // (label, byte index to poke, xor mask). The payload starts after the
    // 4-byte length prefix: magic at +0, version at +4, kind at +5; the
    // checksum trails, so poking the last byte corrupts it directly.
    let pokes = [
        ("bad magic", 4, 0xFFu8),
        ("bad version", 8, 0x7F),
        ("unknown kind", 9, 0x40),
        ("corrupt checksum", valid.len() - 1, 0x01),
    ];
    for (label, index, mask) in pokes {
        let mut poisoned = valid.clone();
        poisoned[index] ^= mask;
        // Poking magic/version/kind also breaks the checksum; re-sealing
        // it isolates the violation under test to the poked field.
        if label != "corrupt checksum" {
            let body_end = poisoned.len() - 8;
            let sum = proto::frame_checksum(&poisoned[4..body_end]);
            poisoned[body_end..].copy_from_slice(&sum.to_le_bytes());
        }
        let mut stream = raw_hello("gold");
        stream.write_all(&poisoned).unwrap();
        match proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME_LEN) {
            Ok(Frame::Error(err)) => {
                assert_eq!(err.code, CODE_PROTOCOL, "{label}: wrong error code");
            }
            other => panic!("{label}: expected a protocol-error frame, got {other:?}"),
        }
        // After refusing, the server closes this connection at a frame
        // boundary…
        assert!(matches!(
            proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME_LEN),
            Err(proto::FrameError::Closed)
        ));
        // …and keeps serving everyone else.
        server_still_serves(1000 + index as u64);
    }
}

/// A length prefix beyond the frame cap (or below the structural
/// minimum) is refused before any allocation happens server-side.
#[test]
fn oversized_and_undersized_length_prefixes_are_refused() {
    for (label, len) in [
        ("oversized", u32::MAX),
        ("above cap", (proto::DEFAULT_MAX_FRAME_LEN + 1) as u32),
        ("undersized", (proto::MIN_PAYLOAD_LEN - 1) as u32),
        ("zero", 0),
    ] {
        let mut stream = raw_hello("gold");
        stream.write_all(&len.to_le_bytes()).unwrap();
        match proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME_LEN) {
            Ok(Frame::Error(err)) => assert_eq!(err.code, CODE_PROTOCOL, "{label}"),
            other => panic!("{label}: expected a protocol-error frame, got {other:?}"),
        }
        server_still_serves(2000 + u64::from(len % 7919));
    }
}

/// Disconnecting mid-frame (after the length prefix promised more
/// bytes) tears the connection down without an error frame — there is
/// no one left to send it to — and without disturbing the server.
#[test]
fn mid_frame_disconnect_is_a_clean_teardown() {
    let valid = proto::encode_frame(&Frame::Request(Box::new(WireRequest {
        request_id: 1,
        priority: 0,
        deadline_ms: 0,
        on_deadline: OnDeadline::Fail,
        request: request(3, 2),
    })));
    for cut in [5, valid.len() / 2, valid.len() - 1] {
        let mut stream = raw_hello("gold");
        stream.write_all(&valid[..cut]).unwrap();
        drop(stream);
        server_still_serves(3000 + cut as u64);
    }
}

/// A response/hello frame where a request belongs is a protocol error,
/// not a dispatch.
#[test]
fn misplaced_frame_kinds_are_refused() {
    let mut stream = raw_hello("gold");
    proto::write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            tenant: "gold".into(),
            secret: String::new(),
        }),
    )
    .unwrap();
    match proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME_LEN) {
        Ok(Frame::Error(err)) => assert_eq!(err.code, CODE_PROTOCOL),
        other => panic!("expected a protocol-error frame, got {other:?}"),
    }
    server_still_serves(4001);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Fuzz: an arbitrary mutation of a valid request frame (byte flip,
    /// truncation, or both) is either decoded as a request (the flip
    /// landed in a don't-care position and the checksum was re-sealed —
    /// impossible here, so in practice: refused) or answered with a
    /// typed error — and the server survives to serve a fresh
    /// connection bit-normally. Never a panic, never a hang.
    #[test]
    fn mutated_byte_streams_never_wedge_the_server(
        seed in 0u64..1_000,
        flip_at in 0usize..512,
        flip_mask in 1u8..255,
        cut_at in 0usize..600,
        flip_coin in 0u8..2,
    ) {
        let do_flip = flip_coin == 1;
        let valid = proto::encode_frame(&Frame::Request(Box::new(WireRequest {
            request_id: seed,
            priority: (seed % 4) as u8,
            deadline_ms: 0,
            on_deadline: OnDeadline::Fail,
            request: request(2 + (seed % 3) as usize, seed),
        })));
        let mut bytes = valid.clone();
        if do_flip {
            let at = flip_at % bytes.len();
            bytes[at] ^= flip_mask;
        }
        let cut = cut_at.min(bytes.len());
        // Always mutate: an untouched full frame is the conformance
        // tests' case, not the fuzzer's.
        if !do_flip && cut == bytes.len() {
            bytes.truncate(bytes.len() - 1);
        } else {
            bytes.truncate(cut.max(1));
        }

        let mut stream = raw_hello("gold");
        stream.write_all(&bytes).unwrap();
        // Stop sending so a short frame reads as EOF server-side rather
        // than blocking for bytes that will never come.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // Drain whatever the server says until it closes: every frame
        // must decode (the server never emits garbage), and the
        // connection must reach EOF rather than hang (the read timeout
        // set by `raw_hello` turns a hang into a test failure).
        loop {
            match proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME_LEN) {
                Ok(_) => {}
                Err(proto::FrameError::Closed) => break,
                Err(proto::FrameError::Io(e)) => {
                    prop_assert!(
                        e.kind() != std::io::ErrorKind::WouldBlock
                            && e.kind() != std::io::ErrorKind::TimedOut,
                        "server wedged on mutated input: {e}"
                    );
                    break;
                }
                Err(proto::FrameError::Protocol(msg)) => {
                    return Err(TestCaseError::fail(format!(
                        "server emitted an undecodable frame: {msg}"
                    )));
                }
            }
        }
        server_still_serves(5000 + seed);
    }
}
