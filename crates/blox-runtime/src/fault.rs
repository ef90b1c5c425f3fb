//! Fault-injecting decorators over the runtime transport abstractions.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and [`FaultySender`] wraps
//! any [`WireSender`], perturbing traffic according to a seeded, scripted
//! [`FaultPlan`](blox_core::fault::FaultPlan): messages can be dropped,
//! duplicated, delayed, swapped with their successor, or blacked out
//! entirely during scripted partition windows. The decorators sit *under*
//! the protocol — the worker manager, scheduler, and client code cannot
//! tell a faulty link from a healthy one — so the chaos suites exercise
//! exactly the code paths a real lossy network would.
//!
//! Time semantics: the plan's event axis and `delay_s` are in simulated
//! seconds, read from the shared [`SimClock`], so one plan means the same
//! thing at any emulation time scale. Delays are applied on the receive
//! path (a delayed message becomes visible once the clock passes its
//! release point); on the send path, where no receive loop exists to age
//! messages, a delayed message is flushed by the next send (or when the
//! sender is dropped) once its release point has passed — FIFO order is
//! preserved within a link, like a store-and-forward queue.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blox_core::error::{BloxError, Result};
use blox_core::fault::{FaultState, FaultVerdict};
use parking_lot::Mutex;

use crate::runtime::SimClock;
use crate::wire::{Message, Transport, WireSender};

/// Granularity of the receive-side polling loop while waiting for a
/// delayed message to mature or new traffic to arrive.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

// Receive side ---------------------------------------------------------------

struct RecvState {
    faults: FaultState,
    /// Admitted messages waiting for their release time, in link order.
    pending: VecDeque<(f64, Message)>,
    /// One-slot reorder buffer: delivered after the next admitted message.
    held: Option<(f64, Message)>,
    /// The inner link died; drain `pending`, then surface the error.
    dead: bool,
}

impl RecvState {
    /// Apply the plan's verdict to one freshly received message.
    fn admit(&mut self, now: f64, msg: Message) {
        match self.faults.verdict(now) {
            FaultVerdict::Drop => {}
            FaultVerdict::Deliver {
                copies,
                delay_s,
                reorder,
            } => {
                let release = now + delay_s;
                if reorder && self.held.is_none() {
                    self.held = Some((release, msg));
                    return;
                }
                for _ in 0..copies {
                    self.pending.push_back((release, msg.clone()));
                }
                if let Some(held) = self.held.take() {
                    self.pending.push_back(held);
                }
            }
        }
    }

    /// The inner link failed with `e`: release the held reorder slot (no
    /// next message will come to swap with it), and fail only once the
    /// admitted messages have drained.
    fn link_died(&mut self, e: BloxError) -> Result<()> {
        if let Some(held) = self.held.take() {
            self.pending.push_back(held);
        }
        self.dead = true;
        if self.pending.is_empty() {
            Err(e)
        } else {
            Ok(())
        }
    }

    /// Pop the head message if its release time has passed (head-of-line
    /// delay, like a store-and-forward pipe).
    fn pop_due(&mut self, now: f64) -> Option<Message> {
        // A dead link can no longer age messages forward; flush in order.
        if self.dead {
            return self.pending.pop_front().map(|(_, m)| m);
        }
        match self.pending.front() {
            Some((release, _)) if *release <= now => self.pending.pop_front().map(|(_, m)| m),
            _ => None,
        }
    }
}

/// A [`Transport`] decorator injecting deterministic receive-path faults.
///
/// Send-path traffic passes through untouched; wrap the link's sender in a
/// [`FaultySender`] to perturb the opposite direction independently.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    clock: Arc<SimClock>,
    state: Mutex<RecvState>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Decorate `inner`, drawing verdicts from `faults` on the given
    /// simulated clock.
    pub fn new(inner: T, faults: FaultState, clock: Arc<SimClock>) -> Self {
        FaultyTransport {
            inner,
            clock,
            state: Mutex::new(RecvState {
                faults,
                pending: VecDeque::new(),
                held: None,
                dead: false,
            }),
        }
    }

    /// The wrapped transport (e.g. to reach a concrete sender handle).
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Drain everything the inner transport has ready, then pop one due
    /// message if any.
    fn poll_once(&self) -> Result<Option<Message>> {
        let now = self.clock.sim_now();
        let mut state = self.state.lock();
        if !state.dead {
            loop {
                match self.inner.try_recv() {
                    Ok(Some(msg)) => state.admit(now, msg),
                    Ok(None) => break,
                    Err(e) => {
                        state.link_died(e)?;
                        break;
                    }
                }
            }
        } else if state.pending.is_empty() {
            // Surface the original failure mode through the inner link.
            return self.inner.try_recv().map(|_| None);
        }
        Ok(state.pop_due(now))
    }

    /// Wait for the next due message until `deadline` (forever if `None`).
    /// Blocks on the inner link so an idle wait costs no CPU; any arrival,
    /// or a short tick for delayed-message maturation, re-enters the poll.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<Option<Message>> {
        loop {
            if let Some(msg) = self.poll_once()? {
                return Ok(Some(msg));
            }
            let mut wait = POLL_INTERVAL;
            if let Some(deadline) = deadline {
                let now = Instant::now();
                if now >= deadline {
                    return Ok(None);
                }
                wait = wait.min(deadline - now);
            }
            match self.inner.recv_timeout(wait) {
                Ok(Some(msg)) => {
                    let now = self.clock.sim_now();
                    self.state.lock().admit(now, msg);
                }
                Ok(None) => {}
                Err(e) => self.state.lock().link_died(e)?,
            }
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&self, msg: &Message) -> Result<()> {
        self.inner.send(msg)
    }

    fn recv(&self) -> Result<Message> {
        self.recv_until(None)
            .map(|msg| msg.expect("only a deadline ends the wait"))
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        self.poll_once()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>> {
        self.recv_until(Some(Instant::now() + timeout))
    }
}

// Send side ------------------------------------------------------------------

struct SendState {
    inner: Box<dyn WireSender>,
    faults: FaultState,
    /// Messages waiting for their release time before hitting the wire.
    delayed: VecDeque<(f64, Message)>,
    /// One-slot reorder buffer: sent after the next admitted message.
    held: Option<Message>,
}

impl SendState {
    fn flush_due(&mut self, now: f64) -> Result<()> {
        while let Some((release, _)) = self.delayed.front() {
            if *release > now {
                break;
            }
            let (_, msg) = self.delayed.pop_front().expect("front exists");
            self.inner.send(&msg)?;
        }
        Ok(())
    }
}

impl Drop for SendState {
    fn drop(&mut self) {
        // Best-effort flush so delayed traffic is not silently lost when
        // the link closes in an orderly way (a crash drops the state
        // without running this, which is exactly crash semantics).
        if let Some(held) = self.held.take() {
            self.delayed.push_back((0.0, held));
        }
        for (_, msg) in std::mem::take(&mut self.delayed) {
            let _ = self.inner.send(&msg);
        }
    }
}

/// A [`WireSender`] decorator injecting deterministic send-path faults.
///
/// All clones share one decision stream and one delay queue, mirroring
/// how concurrent producer threads share one physical link.
#[derive(Clone)]
pub struct FaultySender {
    clock: Arc<SimClock>,
    state: Arc<Mutex<SendState>>,
}

impl FaultySender {
    /// Decorate `inner`, drawing verdicts from `faults` on the given
    /// simulated clock.
    pub fn new(inner: Box<dyn WireSender>, faults: FaultState, clock: Arc<SimClock>) -> Self {
        FaultySender {
            clock,
            state: Arc::new(Mutex::new(SendState {
                inner,
                faults,
                delayed: VecDeque::new(),
                held: None,
            })),
        }
    }

    /// Encode and send one message through the fault layer.
    pub fn send(&self, msg: &Message) -> Result<()> {
        let now = self.clock.sim_now();
        let mut state = self.state.lock();
        state.flush_due(now)?;
        match state.faults.verdict(now) {
            FaultVerdict::Drop => Ok(()),
            FaultVerdict::Deliver {
                copies,
                delay_s,
                reorder,
            } => {
                if reorder && state.held.is_none() {
                    state.held = Some(msg.clone());
                    return Ok(());
                }
                if delay_s > 0.0 {
                    let release = now + delay_s;
                    for _ in 0..copies {
                        state.delayed.push_back((release, msg.clone()));
                    }
                } else {
                    for _ in 0..copies {
                        state.inner.send(msg)?;
                    }
                }
                if let Some(held) = state.held.take() {
                    if delay_s > 0.0 {
                        state.delayed.push_back((now + delay_s, held));
                    } else {
                        state.inner.send(&held)?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl WireSender for FaultySender {
    fn send(&self, msg: &Message) -> Result<()> {
        FaultySender::send(self, msg)
    }

    fn clone_sender(&self) -> Box<dyn WireSender> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Endpoint;
    use blox_core::fault::{FaultEvent, FaultPlan, LinkFaults};
    use blox_core::ids::JobId;

    fn progress(i: u64) -> Message {
        Message::Progress {
            job: JobId(i),
            iters: i as f64,
        }
    }

    /// A real-time clock: 1 simulated second per wall second.
    fn wall_clock() -> Arc<SimClock> {
        Arc::new(SimClock::new(1.0))
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let (a, b) = Endpoint::pair();
        let faulty = FaultyTransport::new(b, FaultPlan::new(1).state(0), wall_clock());
        for i in 0..10 {
            a.send(&progress(i)).unwrap();
        }
        for i in 0..10 {
            assert_eq!(faulty.recv().unwrap(), progress(i));
        }
        assert_eq!(faulty.try_recv().unwrap(), None);
    }

    #[test]
    fn full_drop_blackholes_the_link() {
        let (a, b) = Endpoint::pair();
        let plan = FaultPlan::new(2).with_base(LinkFaults {
            drop_p: 1.0,
            ..LinkFaults::default()
        });
        let faulty = FaultyTransport::new(b, plan.state(0), wall_clock());
        for i in 0..20 {
            a.send(&progress(i)).unwrap();
        }
        assert_eq!(faulty.try_recv().unwrap(), None);
        assert_eq!(
            faulty.recv_timeout(Duration::from_millis(30)).unwrap(),
            None
        );
    }

    #[test]
    fn duplication_delivers_twice() {
        let (a, b) = Endpoint::pair();
        let plan = FaultPlan::new(3).with_base(LinkFaults {
            dup_p: 1.0,
            ..LinkFaults::default()
        });
        let faulty = FaultyTransport::new(b, plan.state(0), wall_clock());
        a.send(&progress(7)).unwrap();
        assert_eq!(faulty.recv().unwrap(), progress(7));
        assert_eq!(faulty.recv().unwrap(), progress(7));
        assert_eq!(faulty.try_recv().unwrap(), None);
    }

    #[test]
    fn reorder_swaps_adjacent_messages() {
        let (a, b) = Endpoint::pair();
        let plan = FaultPlan::new(4).with_base(LinkFaults {
            reorder_p: 1.0,
            ..LinkFaults::default()
        });
        let faulty = FaultyTransport::new(b, plan.state(0), wall_clock());
        a.send(&progress(0)).unwrap();
        a.send(&progress(1)).unwrap();
        // With reorder_p = 1 every message wants to swap: 0 is held, 1 is
        // held... so drive with a third to flush: 0 held, 1 delivered
        // after being admitted (held slot occupied), then 0.
        a.send(&progress(2)).unwrap();
        let first = faulty.recv().unwrap();
        let second = faulty.recv().unwrap();
        assert_eq!(first, progress(1));
        assert_eq!(second, progress(0));
    }

    #[test]
    fn delay_holds_messages_until_release() {
        let (a, b) = Endpoint::pair();
        // 0.02 simulated seconds = 20 ms wall at scale 1.0.
        let plan = FaultPlan::new(5).with_base(LinkFaults {
            delay_s: 0.05,
            ..LinkFaults::default()
        });
        let faulty = FaultyTransport::new(b, plan.state(0), wall_clock());
        a.send(&progress(9)).unwrap();
        // Give the channel a moment, then confirm the message is admitted
        // but not yet visible.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(faulty.try_recv().unwrap(), None);
        let got = faulty
            .recv_timeout(Duration::from_millis(500))
            .unwrap()
            .expect("delayed message must mature");
        assert_eq!(got, progress(9));
    }

    #[test]
    fn partition_window_then_heal() {
        let (a, b) = Endpoint::pair();
        // Partition covers the first 0.05 simulated seconds.
        let plan = FaultPlan::new(6).with_event(FaultEvent::Partition {
            from: 0.0,
            until: 0.05,
        });
        let faulty = FaultyTransport::new(b, plan.state(0), wall_clock());
        a.send(&progress(1)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(faulty.try_recv().unwrap(), None, "inside the window");
        std::thread::sleep(Duration::from_millis(60));
        a.send(&progress(2)).unwrap();
        let got = faulty
            .recv_timeout(Duration::from_millis(500))
            .unwrap()
            .expect("post-heal traffic flows");
        assert_eq!(got, progress(2));
    }

    #[test]
    fn pending_messages_survive_peer_disconnect() {
        let (a, b) = Endpoint::pair();
        let faulty = FaultyTransport::new(b, FaultPlan::new(7).state(0), wall_clock());
        a.send(&progress(1)).unwrap();
        // Let the message reach the inner channel, then admit it.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(faulty.try_recv().unwrap(), Some(progress(1)));
        a.send(&progress(2)).unwrap();
        drop(a);
        // The queued message is still delivered before the error surfaces.
        assert_eq!(faulty.recv().unwrap(), progress(2));
        assert!(faulty.recv().is_err());
    }

    #[test]
    fn faulty_sender_drops_and_duplicates() {
        let (tx, rx) = crate::wire::wire_bus();
        let plan = FaultPlan::new(8).with_base(LinkFaults {
            dup_p: 1.0,
            ..LinkFaults::default()
        });
        let sender = FaultySender::new(Box::new(tx), plan.state(0), wall_clock());
        sender.send(&progress(3)).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(100)).unwrap(),
            Some(progress(3))
        );
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(100)).unwrap(),
            Some(progress(3))
        );

        let (tx, rx) = crate::wire::wire_bus();
        let plan = FaultPlan::new(9).with_base(LinkFaults {
            drop_p: 1.0,
            ..LinkFaults::default()
        });
        let sender = FaultySender::new(Box::new(tx), plan.state(0), wall_clock());
        sender.send(&progress(4)).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)).unwrap(), None);
    }

    #[test]
    fn faulty_sender_flushes_delayed_on_drop() {
        let (tx, rx) = crate::wire::wire_bus();
        let plan = FaultPlan::new(10).with_base(LinkFaults {
            delay_s: 1e6, // Far future: only the drop-flush can deliver it.
            ..LinkFaults::default()
        });
        let sender = FaultySender::new(Box::new(tx), plan.state(0), wall_clock());
        sender.send(&progress(5)).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)).unwrap(), None);
        drop(sender);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(100)).unwrap(),
            Some(progress(5))
        );
    }
}
