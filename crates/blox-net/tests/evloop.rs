//! Event-loop differential suite: every cluster scenario, the bounded
//! write backpressure and the thousand-connection fan-in, each written
//! once and run on both readiness backends.
//!
//! The scenario bodies live in `tests/scenarios/` and are byte-for-byte
//! the ones `tests/cluster.rs` runs on the default backend: same trace,
//! same policies, same assertions. Here each is instantiated with
//! poll(2) pinned (`evloop_*`: the portable backend, and the reference
//! on machines where `Auto` resolves to epoll) and with epoll(7) pinned
//! (`epoll_*`, Linux only); a divergence between the two is a poller
//! bug, not test drift.

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use blox_core::ids::JobId;
use blox_net::event_loop::{Delivery, EvLoopConfig, EvLoopPool, EvSender, LoopEvent};
use blox_net::PollerKind;
use blox_runtime::wire::Message;
use crossbeam::channel::unbounded;

mod common;
mod scenarios;
use common::watchdog;

/// Instantiate one `fn(PollerKind)` body as a poll(2) test and an
/// epoll(7) test.
macro_rules! on_both_pollers {
    ($body:path => $poll:ident, $epoll:ident) => {
        #[test]
        fn $poll() {
            $body(PollerKind::Poll);
        }

        #[cfg(target_os = "linux")]
        #[test]
        fn $epoll() {
            $body(PollerKind::Epoll);
        }
    };
}

// Differential fidelity: the deployment must produce the same JCT stats
// as the in-process runtime on either backend.
on_both_pollers!(scenarios::fidelity_scenario =>
    evloop_jct_matches_in_process_runtime,
    epoll_jct_matches_in_process_runtime);

// Differential churn: a mid-run node crash must trigger the same
// detect → revoke → requeue → finish sequence.
on_both_pollers!(scenarios::churn_scenario =>
    evloop_node_crash_triggers_churn_and_jobs_still_finish,
    epoll_node_crash_triggers_churn_and_jobs_still_finish);

// Differential heartbeats: the timer-wheel beats must satisfy the same
// missed-deadline detector, and a silent worker must still be caught.
on_both_pollers!(scenarios::heartbeat_scenario =>
    evloop_silent_worker_trips_heartbeat_deadline,
    epoll_silent_worker_trips_heartbeat_deadline);

// Differential open-loop gap handling.
on_both_pollers!(scenarios::submission_gap_scenario =>
    evloop_submission_gap_does_not_end_run_early,
    epoll_submission_gap_does_not_end_run_early);

// The slow-client policy must hold on epoll exactly as on poll.
on_both_pollers!(slow_reader_scenario =>
    slow_reader_is_disconnected_at_the_queue_bound,
    epoll_slow_reader_is_disconnected_at_the_queue_bound);

/// A peer that stops reading must be disconnected once its outbound
/// queue exceeds the configured bound — not buffer without limit.
fn slow_reader_scenario(poller: PollerKind) {
    let _wd = watchdog(Duration::from_secs(60), "backpressure test");
    let max_out = 64 * 1024;
    let pool = EvLoopPool::new(EvLoopConfig {
        max_out_bytes: max_out,
        poller,
    })
    .expect("pool");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.addr_local();
    // Keep the client socket open but never read from it.
    let _client = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let (tx, events) = unbounded();
    let sender = pool
        .register(server, Delivery::Events(tx))
        .expect("register");
    match events.recv_timeout(Duration::from_secs(5)) {
        Ok(LoopEvent::Connected(..)) => {}
        other => panic!("expected Connected, got {other:?}"),
    }

    // ~8 KB per message: the kernel socket buffer absorbs the first few,
    // then the loop's outbound queue grows past the bound.
    let big = Message::SubmitJob {
        gpus: 1,
        total_iters: 1.0,
        model: "x".repeat(8 * 1024),
    };
    let mut queue_high = 0usize;
    let err = loop {
        match sender.send(&big) {
            Ok(()) => {
                queue_high = queue_high.max(sender.queued_bytes());
                // Pacing lets the loop observe the over-budget queue
                // between enqueues instead of racing the command channel.
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => break e,
        }
    };
    assert!(sender.is_closed(), "sender must report the disconnect");
    let reason = sender.close_reason().expect("a recorded close reason");
    assert!(
        reason.contains("slow client"),
        "expected the slow-client verdict, got: {reason} (send error: {err})"
    );
    // The queue is bounded: it may overshoot by the frames already in
    // the command channel at disconnect time, but never grows unbounded.
    assert!(
        queue_high < 4 * max_out,
        "outbound queue reached {queue_high} bytes (bound {max_out})"
    );
    // The loop announces the disconnect as an event too.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match events.recv_timeout(Duration::from_millis(100)) {
            Ok(LoopEvent::Closed(_)) => break,
            Ok(_) => {}
            Err(_) => assert!(Instant::now() < deadline, "no Closed event"),
        }
    }
}

/// Fan-in smoke, on the default backend and on poll(2): one event-loop
/// pool carries ~2N sockets (N clients and their N server peers), every
/// client submits, every client gets its acknowledgement. 1000
/// connections in release builds; 100 in debug builds, where the
/// unoptimized frame path would dominate CI time.
#[test]
fn thousand_connections_on_one_pool() {
    let _wd = watchdog(Duration::from_secs(240), "1k-connection smoke");
    for poller in [PollerKind::Auto, PollerKind::Poll] {
        thousand_connections(poller);
    }
}

fn thousand_connections(poller: PollerKind) {
    let n: usize = if cfg!(debug_assertions) { 100 } else { 1000 };
    let pool = EvLoopPool::new(EvLoopConfig {
        poller,
        ..EvLoopConfig::default()
    })
    .expect("pool");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.addr_local();
    let (server_tx, server_events) = unbounded();

    // Acceptor: register every server-side socket on the shared pool.
    let acked_total = {
        let server_tx2 = server_tx.clone();
        std::thread::scope(|s| {
            let accept = s.spawn(|| {
                let mut accepted = Vec::new();
                for _ in 0..n {
                    let (stream, _) = listener.accept().expect("accept");
                    accepted.push(stream);
                }
                accepted
            });

            // Clients connect (with retry: loopback backlog is finite).
            let (client_tx, client_events) = unbounded();
            let mut clients = Vec::with_capacity(n);
            for i in 0..n {
                let stream = loop {
                    match TcpStream::connect(addr) {
                        Ok(s) => break s,
                        Err(e) => {
                            assert!(i > 0, "first connect failed: {e}");
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                };
                clients.push(
                    pool.register(stream, Delivery::Events(client_tx.clone()))
                        .expect("register client"),
                );
            }
            let accepted = accept.join().expect("acceptor");
            for stream in accepted {
                pool.register(stream, Delivery::Events(server_tx2.clone()))
                    .expect("register server side");
            }

            // Every client submits once.
            let submit = Message::SubmitJob {
                gpus: 1,
                total_iters: 100.0,
                model: "smoke".into(),
            };
            for c in &clients {
                c.send(&submit).expect("client send");
            }

            // Server side: acknowledge every submission on its own link.
            let mut acked = 0usize;
            let mut server_links = std::collections::BTreeMap::new();
            while acked < n {
                match server_events.recv_timeout(Duration::from_secs(30)) {
                    Ok(LoopEvent::Connected(token, link)) => {
                        server_links.insert(token, link);
                    }
                    Ok(LoopEvent::Msg(token, Message::SubmitJob { .. }, _)) => {
                        let link: &EvSender =
                            server_links.get(&token).expect("Connected precedes Msg");
                        link.send(&Message::JobAccepted {
                            job: JobId(acked as u64),
                        })
                        .expect("ack");
                        acked += 1;
                    }
                    Ok(other) => panic!("unexpected server event {other:?}"),
                    Err(e) => panic!("server starved after {acked}/{n} acks: {e:?}"),
                }
            }

            // Every client hears its acknowledgement.
            let mut accepted_acks = 0usize;
            while accepted_acks < n {
                match client_events.recv_timeout(Duration::from_secs(30)) {
                    Ok(LoopEvent::Msg(_, Message::JobAccepted { .. }, _)) => accepted_acks += 1,
                    Ok(LoopEvent::Connected(..)) => {}
                    Ok(other) => panic!("unexpected client event {other:?}"),
                    Err(e) => panic!("clients starved after {accepted_acks}/{n}: {e:?}"),
                }
            }
            accepted_acks
        })
    };
    assert_eq!(acked_total, n, "poller {poller}");
}

/// Minimal local-addr helper: `TcpListener::local_addr` with the test's
/// expectations baked in.
trait ListenerExt {
    fn addr_local(&self) -> std::net::SocketAddr;
}

impl ListenerExt for TcpListener {
    fn addr_local(&self) -> std::net::SocketAddr {
        let addr = self.local_addr().expect("listener addr");
        assert_ne!(addr.port(), 0);
        addr
    }
}
