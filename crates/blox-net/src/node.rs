//! The `bloxnoded` node-manager daemon: one per machine, serving the
//! scheduler's launch/preempt commands over TCP with the *same*
//! [`WorkerManager`] code the in-process emulation uses.
//!
//! Lifecycle of one session: connect → `RegisterWorker` → await
//! `AssignNode` (identity, clock-sync point, runtime config, heartbeat
//! interval) → serve commands while heartbeating. With
//! [`NodeConfig::reconnect`] set, a lost scheduler link triggers
//! re-registration — the scheduler sees the return as a fresh node joining
//! (node re-add churn).
//!
//! The scheduler link runs on the process-wide shared event loop
//! ([`crate::event_loop::shared_pool`]): heartbeats are timer-wheel
//! entries on that loop and the daemon spawns no per-connection threads
//! at all (a fault plan is the one exception — see `serve_session`).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use blox_core::error::{BloxError, Result};
use blox_core::fault::FaultPlan;
use blox_core::ids::NodeId;
use blox_runtime::fault::{FaultySender, FaultyTransport};
use blox_runtime::runtime::{RuntimeConfig, ServeEnd, SimClock, WorkerManager};
use blox_runtime::wire::{Message, Transport, WireSender};
use parking_lot::Mutex;

use crate::event_loop::{shared_pool, EvSender, EvTransport, TransportKind};
use crate::poller::PollerKind;

/// Node-manager daemon configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The central scheduler's listen address.
    pub sched: SocketAddr,
    /// GPUs this node offers at registration.
    pub gpus: u32,
    /// Reconnect (and re-register as a fresh node) when the scheduler
    /// link drops, instead of exiting.
    pub reconnect: bool,
    /// Deterministic fault plan for this node's scheduler link (chaos
    /// testing). Applied once the node is assigned an identity — the
    /// registration handshake itself is never perturbed, matching the
    /// fault model "nodes join cleanly, then the network degrades".
    /// Commands (scheduler → node) and status/heartbeat traffic
    /// (node → scheduler) draw from two decorrelated per-node streams.
    pub faults: Option<FaultPlan>,
    /// Vestigial: the event loop is the only engine. The field stays
    /// because the frozen spine benchmark (`bench/`) names it.
    pub transport: TransportKind,
    /// Readiness backend of the shared event loop carrying the scheduler
    /// link. `Auto` lets the platform pick (epoll on Linux, poll
    /// elsewhere); the differential tests pin one.
    pub poller: PollerKind,
}

impl NodeConfig {
    /// A fault-free configuration (the common case).
    pub fn new(sched: SocketAddr, gpus: u32, reconnect: bool) -> Self {
        NodeConfig {
            sched,
            gpus,
            reconnect,
            faults: None,
            transport: TransportKind::EvLoop,
            poller: PollerKind::Auto,
        }
    }
}

/// One registration session: register, get assigned, serve until the
/// link drops or the scheduler orders a shutdown.
fn serve_session(cfg: &NodeConfig, live: &Mutex<Option<EvSender>>) -> Result<ServeEnd> {
    let link = EvTransport::connect(cfg.sched, shared_pool(cfg.poller))?;
    let raw_sender = link.sender();
    let link: Box<dyn Transport> = Box::new(link);
    *live.lock() = Some(raw_sender.clone());
    link.send(&Message::RegisterWorker {
        node: NodeId(0), // Placeholder: identity is assigned by the scheduler.
        gpus: cfg.gpus,
    })?;
    let assign = link
        .recv_timeout(Duration::from_secs(10))?
        .ok_or_else(|| BloxError::Transport("no AssignNode within 10 s".into()))?;
    let Message::AssignNode {
        node,
        now_sim,
        time_scale,
        emu_iter_sim_s,
        heartbeat_sim_s,
        pod: _,
    } = assign
    else {
        return Err(BloxError::Transport(format!(
            "expected AssignNode, got {assign:?}"
        )));
    };

    // Align the local emulation clock with the scheduler's.
    let clock = Arc::new(SimClock::synced(now_sim, time_scale));
    let manager = WorkerManager::new(
        node,
        clock.clone(),
        RuntimeConfig {
            time_scale,
            emu_iter_sim_s,
        },
    );

    // The serving path may be routed through the fault-injection
    // decorators below; `raw_sender` stays raw for the teardown shutdown.
    let faulty = matches!(&cfg.faults, Some(plan) if !plan.is_quiet());
    let (cmd, up): (Box<dyn Transport>, Box<dyn WireSender>) = match &cfg.faults {
        Some(plan) if faulty => {
            // Two decorrelated decision streams per node: even stream ids
            // for the command direction, odd for status/heartbeats.
            let link_id = 2 * u64::from(node.0);
            (
                Box::new(FaultyTransport::new(
                    link,
                    plan.state(link_id),
                    clock.clone(),
                )),
                Box::new(FaultySender::new(
                    Box::new(raw_sender.clone()),
                    plan.state(link_id + 1),
                    clock,
                )),
            )
        }
        _ => (link, Box::new(raw_sender.clone())),
    };

    // Liveness beacons; the failure detector declares this node dead
    // after a configurable number of missed intervals. Fault-free, the
    // beats ride the loop's timer wheel — no thread. With faults active
    // they must pass through the decorated sender, so a beater thread
    // paces them instead.
    let hb_wall = Duration::from_secs_f64((heartbeat_sim_s * time_scale).max(1e-3));
    let hb_stop = Arc::new(AtomicBool::new(false));
    let heartbeat: Option<JoinHandle<()>> = if faulty {
        let hb_stop2 = hb_stop.clone();
        let hb_tx = up.clone_sender();
        Some(std::thread::spawn(move || {
            let mut seq = 0u64;
            while !hb_stop2.load(Ordering::Relaxed) {
                if hb_tx.send(&Message::Heartbeat { node, seq }).is_err() {
                    return;
                }
                seq += 1;
                std::thread::sleep(hb_wall);
            }
        }))
    } else {
        raw_sender.start_heartbeat(node, hb_wall);
        None
    };

    let end = manager.serve(cmd.as_ref(), up.as_ref());
    hb_stop.store(true, Ordering::Relaxed);
    raw_sender.shutdown();
    if let Some(t) = heartbeat {
        let _ = t.join();
    }
    Ok(end)
}

fn run_with(cfg: &NodeConfig, stop: &AtomicBool, live: &Mutex<Option<EvSender>>) -> Result<()> {
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        match serve_session(cfg, live) {
            Ok(ServeEnd::Shutdown) => return Ok(()),
            Ok(ServeEnd::Disconnected) | Err(_)
                if cfg.reconnect && !stop.load(Ordering::Relaxed) =>
            {
                std::thread::sleep(Duration::from_millis(100));
            }
            Ok(ServeEnd::Disconnected) => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

/// Run a node-manager daemon, blocking until an orderly shutdown (or, with
/// [`NodeConfig::reconnect`] off, until the scheduler link drops).
pub fn run_node(cfg: &NodeConfig) -> Result<()> {
    run_with(cfg, &AtomicBool::new(false), &Mutex::new(None))
}

/// Handle onto an in-process node daemon thread (tests, examples).
pub struct NodeHandle {
    stop: Arc<AtomicBool>,
    live: Arc<Mutex<Option<EvSender>>>,
    thread: JoinHandle<Result<()>>,
}

impl NodeHandle {
    /// Crash-stop the node: hard-close its scheduler link with no goodbye
    /// and suppress reconnection — to the scheduler this is
    /// indistinguishable from the machine failing.
    pub fn crash(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(sender) = self.live.lock().as_ref() {
            sender.shutdown();
        }
    }

    /// Wait for the daemon thread to finish.
    pub fn join(self) -> Result<()> {
        self.thread
            .join()
            .map_err(|_| BloxError::Transport("node daemon panicked".into()))?
    }
}

/// Spawn an in-process node daemon thread serving the given config.
pub fn spawn_node(cfg: NodeConfig) -> NodeHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let live = Arc::new(Mutex::new(None));
    let stop2 = stop.clone();
    let live2 = live.clone();
    let thread = std::thread::spawn(move || run_with(&cfg, &stop2, &live2));
    NodeHandle { stop, live, thread }
}
