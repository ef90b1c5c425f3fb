//! Connection-poisoning regression suite: a failed or partial write must
//! surface an explicit error and a failure-detector verdict — never a
//! silent half-dead link that the scheduler keeps trusting.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use blox_core::ids::NodeId;
use blox_core::manager::{ExecMode, RunConfig, StopCondition};
use blox_net::frame::{read_frame, FrameBuf};
use blox_net::sched::{serve, NetBackend, SchedulerConfig};
use blox_net::tcp::TcpTransport;
use blox_policies::admission::AcceptAll;
use blox_policies::placement::ConsolidatedPlacement;
use blox_policies::scheduling::Fifo;
use blox_runtime::runtime::RuntimeConfig;
use blox_runtime::wire::{Message, Transport};

mod common;
use common::watchdog;

/// A peer that vanishes mid-conversation must poison the sender: the
/// failing send reports an explicit error, and every later send fails
/// fast instead of writing into a dead socket.
#[test]
fn failed_write_poisons_the_sender() {
    let _wd = watchdog(Duration::from_secs(60), "poisoned-sender test");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let link = TcpTransport::connect(addr).expect("connect");
    let (peer, _) = listener.accept().expect("accept");
    drop(peer); // peer closes; the kernel answers future writes with RST/EPIPE

    let sender = link.sender();
    let big = Message::SubmitJob {
        gpus: 1,
        total_iters: 1.0,
        model: "x".repeat(64 * 1024),
    };
    // The first write may still land in the kernel buffer; keep sending
    // until the failure surfaces.
    let err = loop {
        match sender.send(&big) {
            Ok(()) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => break e.to_string(),
        }
    };
    assert!(
        err.contains("poisoned"),
        "failing send must name the poisoning, got: {err}"
    );
    assert!(
        sender.poison_reason().is_some(),
        "the poison reason must be recorded"
    );
    // Fail-fast path: no more socket writes are attempted.
    let err2 = sender.send(&big).expect_err("poisoned sender must refuse");
    assert!(
        err2.to_string().contains("poisoned"),
        "later sends must fail fast as poisoned, got: {err2}"
    );
}

/// A peer that closes mid-frame (length prefix promised more bytes than
/// were ever sent) must yield an explicit protocol error on the reading
/// side, not a hang or a truncated frame.
#[test]
fn mid_frame_peer_close_surfaces_an_error() {
    let _wd = watchdog(Duration::from_secs(60), "mid-frame close test");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut client = TcpStream::connect(addr).expect("connect");
    let (mut server, _) = listener.accept().expect("accept");

    // Promise 100 bytes, deliver 10, close.
    client.write_all(&100u32.to_le_bytes()).expect("prefix");
    client.write_all(&[0u8; 10]).expect("partial body");
    drop(client);

    let mut buf = FrameBuf::new();
    let err = read_frame(&mut server, &mut buf).expect_err("mid-frame close must error");
    assert!(
        err.to_string().contains("mid-frame"),
        "expected a mid-frame diagnostic, got: {err}"
    );
}

/// Scheduler-level verdict: when a registered worker's link dies, the
/// failure detector must declare the node dead even with heartbeat
/// deadlines effectively disabled — the link failure itself is the
/// evidence.
#[test]
fn dead_link_yields_a_failure_verdict() {
    let _wd = watchdog(Duration::from_secs(120), "dead-link verdict test");
    let time_scale = 1e-3;
    let backend = NetBackend::bind(SchedulerConfig {
        runtime: RuntimeConfig {
            time_scale,
            emu_iter_sim_s: 30.0,
        },
        // Heartbeat detection pushed out of reach: only the dead link
        // can produce the verdict this test asserts.
        heartbeat_sim_s: 1e9,
        heartbeat_misses: 1000,
        ..SchedulerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = backend.addr();

    let fake = std::thread::spawn(move || {
        let link = TcpTransport::connect(addr).expect("connect");
        link.send(&Message::RegisterWorker {
            node: NodeId(0),
            gpus: 4,
        })
        .expect("register");
        let assign = link
            .recv_timeout(Duration::from_secs(10))
            .expect("assign")
            .expect("assign within 10 s");
        assert!(matches!(assign, Message::AssignNode { .. }));
        // Die abruptly: drop the socket with no goodbye.
    });

    let report = serve(
        backend,
        RunConfig {
            round_duration: 100.0,
            max_rounds: 100,
            stop: StopCondition::TimeLimit(1500.0),
            mode: ExecMode::FixedRounds,
        },
        1,
        Duration::from_secs(10),
        &mut AcceptAll::new(),
        &mut Fifo::new(),
        &mut ConsolidatedPlacement::preferred(),
    )
    .expect("verdict run");
    fake.join().expect("fake worker");

    assert_eq!(
        report.failures_detected, 1,
        "the dead link must produce exactly one verdict"
    );
    assert_eq!(report.dead_nodes.len(), 1);
}
