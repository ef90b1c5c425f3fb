//! Open-loop SubmitJob load generation against a live scheduler.
//!
//! The generator is *open-loop*: submissions are paced by a wall-clock
//! [`Pacer`] at the configured aggregate rate regardless of how fast the
//! scheduler acknowledges them, so a slow scheduler shows up as growing
//! submit→accepted latency instead of a silently reduced offered rate
//! (the coordinated-omission trap).
//!
//! All client connections ride one event-loop pool
//! ([`crate::event_loop`]) and one collector channel, so a single
//! generator thread drives thousands of concurrent connections:
//! pace → fan sends round-robin over the connections → drain
//! acknowledgements → sleep to the next due send.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use blox_core::error::{BloxError, Result};
use blox_runtime::wire::Message;
use crossbeam::channel::unbounded;

use crate::event_loop::{Delivery, EvLoopConfig, EvLoopPool, EvSender, LoopEvent, Token};
use crate::poller::PollerKind;

/// Wall-clock open-loop pacer: at rate `r`, the `k`-th event is due at
/// `start + k/r`. Callers ask how many sends are due *now* and batch
/// them, which keeps pacing exact even when the inter-send gap (67 µs at
/// 15k/s) is far below what a sleep can resolve.
#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    rate: f64,
    sent: u64,
}

impl Pacer {
    /// A pacer targeting `rate` events per wall second, starting now.
    pub fn new(rate: f64) -> Self {
        Pacer {
            start: Instant::now(),
            rate: rate.max(1e-9),
            sent: 0,
        }
    }

    /// How many events are due by now and not yet taken; the returned
    /// count is recorded as taken.
    pub fn due_now(&mut self) -> u64 {
        self.due_at(self.start.elapsed())
    }

    /// [`Pacer::due_now`] for an explicit time since the pacer started.
    pub fn due_at(&mut self, elapsed: Duration) -> u64 {
        let due = (elapsed.as_secs_f64() * self.rate) as u64;
        let take = due.saturating_sub(self.sent);
        self.sent += take;
        take
    }

    /// Wall time until the next event falls due (zero if overdue).
    pub fn next_due_in(&self) -> Duration {
        let next_at = (self.sent + 1) as f64 / self.rate;
        let elapsed = self.start.elapsed().as_secs_f64();
        Duration::from_secs_f64((next_at - elapsed).max(0.0))
    }

    /// Events taken so far.
    pub fn taken(&self) -> u64 {
        self.sent
    }
}

/// Load-generation run parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Scheduler listen address.
    pub sched: SocketAddr,
    /// Concurrent client connections.
    pub conns: usize,
    /// Aggregate submissions per second across all connections.
    pub rate: f64,
    /// Length of the send window.
    pub duration: Duration,
    /// Extra time after the send window to wait for straggler
    /// acknowledgements.
    pub drain: Duration,
    /// GPUs requested per submitted job.
    pub gpus: u32,
    /// Total iterations per submitted job.
    pub total_iters: f64,
    /// Model-zoo profile name for submitted jobs.
    pub model: String,
    /// Stagger window over which the connection fleet is opened
    /// (zero = connect everything back-to-back). A 10k-conn fleet
    /// opened as one burst lands on the listener as a SYN flood; a
    /// ramp keeps the accept queue below its backlog.
    pub ramp: Duration,
    /// Readiness backend for the client-side event loop.
    pub poller: PollerKind,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            sched: "127.0.0.1:0".parse().expect("literal addr"),
            conns: 1000,
            rate: 10_000.0,
            duration: Duration::from_secs(5),
            drain: Duration::from_secs(5),
            gpus: 1,
            total_iters: 1e9,
            model: "synthetic-load".into(),
            ramp: Duration::ZERO,
            poller: PollerKind::Auto,
        }
    }
}

/// Aggregate result of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Offered aggregate rate (submissions/sec).
    pub target_rate: f64,
    /// Connections that were successfully opened.
    pub conns: usize,
    /// Connections lost during the run (peer close or backpressure).
    pub conns_lost: usize,
    /// Submissions sent.
    pub submitted: u64,
    /// `JobAccepted` acknowledgements received.
    pub accepted: u64,
    /// Send-window wall length in seconds.
    pub window_s: f64,
    /// Accepted submissions per second over the send window.
    pub sustained_rate: f64,
    /// Submit→accepted latency percentiles, in microseconds.
    pub p50_us: u64,
    /// 99th percentile submit→accepted latency (µs).
    pub p99_us: u64,
    /// 99.9th percentile submit→accepted latency (µs).
    pub p999_us: u64,
    /// Worst observed submit→accepted latency (µs).
    pub max_us: u64,
}

impl LoadReport {
    /// One BENCH-style JSON line with a fixed field order, so repeated
    /// emission is byte-deterministic up to the measured values.
    pub fn json_row(&self, name: &str, transport: &str) -> String {
        format!(
            "{{\"bench\":\"{name}\",\"transport\":\"{transport}\",\"conns\":{},\"conns_lost\":{},\
             \"target_rate\":{:.0},\"submitted\":{},\"accepted\":{},\"window_s\":{:.3},\
             \"sustained_rate\":{:.1},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}}}",
            self.conns,
            self.conns_lost,
            self.target_rate,
            self.submitted,
            self.accepted,
            self.window_s,
            self.sustained_rate,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.max_us,
        )
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // Nearest-rank: the smallest value with at least q of the sample at
    // or below it.
    let idx = ((sorted.len() as f64 * q).ceil() as usize).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

/// Connect with a short bounded retry: a listener mid-burst may have a
/// full accept queue, which surfaces as refused / reset connects. The
/// kernel's own SYN retransmit covers dropped SYNs; this covers the
/// refusal paths.
fn connect_with_retry(addr: SocketAddr, idx: usize) -> Result<TcpStream> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut backoff = Duration::from_millis(2);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(100));
            }
            Err(e) => {
                return Err(BloxError::Transport(format!(
                    "connect {addr} (#{idx}): {e}"
                )))
            }
        }
    }
}

struct ConnState {
    sender: EvSender,
    /// Send stamps awaiting their `JobAccepted`; the scheduler answers
    /// each connection's submissions in order, so this is a FIFO match.
    pending: VecDeque<Instant>,
    alive: bool,
}

/// Drive an open-loop submission run against a live scheduler and
/// collect throughput + latency statistics.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadReport> {
    let pool = EvLoopPool::new(EvLoopConfig {
        poller: cfg.poller,
        ..EvLoopConfig::default()
    })?;
    let (tx, events) = unbounded();

    // Open the fleet of connections up front, staggered across the ramp
    // window so the k-th connect is due at `start + k * ramp / conns`.
    // Transient refusals (accept-queue overflow on a bursty listener)
    // are retried briefly instead of failing the whole run.
    let total = cfg.conns.max(1);
    let ramp_step = cfg.ramp.div_f64(total as f64);
    let ramp_start = Instant::now();
    let mut conns: Vec<ConnState> = Vec::with_capacity(cfg.conns);
    let mut by_token: BTreeMap<Token, usize> = BTreeMap::new();
    for i in 0..total {
        let due = ramp_start + ramp_step.mul_f64(i as f64);
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        let stream = connect_with_retry(cfg.sched, i)?;
        let sender = pool.register(stream, Delivery::Events(tx.clone()))?;
        by_token.insert(sender.token(), conns.len());
        conns.push(ConnState {
            sender,
            pending: VecDeque::new(),
            alive: true,
        });
    }

    let submit = Message::SubmitJob {
        gpus: cfg.gpus.max(1),
        total_iters: cfg.total_iters,
        model: cfg.model.clone(),
    };
    let mut pacer = Pacer::new(cfg.rate);
    let mut latencies: Vec<u64> = Vec::new();
    let mut submitted = 0u64;
    let mut accepted = 0u64;
    let mut conns_lost = 0usize;
    let mut rr = 0usize;

    let window_start = Instant::now();
    let window_end = window_start + cfg.duration;

    let drain_events = |conns: &mut Vec<ConnState>,
                        latencies: &mut Vec<u64>,
                        accepted: &mut u64,
                        conns_lost: &mut usize| {
        while let Ok(ev) = events.try_recv() {
            match ev {
                LoopEvent::Msg(token, Message::JobAccepted { .. }, at) => {
                    if let Some(&idx) = by_token.get(&token) {
                        if let Some(sent_at) = conns[idx].pending.pop_front() {
                            latencies
                                .push(at.saturating_duration_since(sent_at).as_micros() as u64);
                            *accepted += 1;
                        }
                    }
                }
                LoopEvent::Closed(token) => {
                    if let Some(&idx) = by_token.get(&token) {
                        if conns[idx].alive {
                            conns[idx].alive = false;
                            *conns_lost += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    };

    while Instant::now() < window_end {
        let due = pacer.due_now();
        for _ in 0..due {
            // Round-robin over live connections.
            let mut attempts = 0;
            loop {
                let idx = rr % conns.len();
                rr += 1;
                attempts += 1;
                if attempts > conns.len() {
                    return Err(BloxError::Transport(
                        "load generator lost every connection".into(),
                    ));
                }
                if !conns[idx].alive {
                    continue;
                }
                match conns[idx].sender.send(&submit) {
                    Ok(()) => {
                        conns[idx].pending.push_back(Instant::now());
                        submitted += 1;
                        break;
                    }
                    Err(_) => {
                        conns[idx].alive = false;
                        conns_lost += 1;
                    }
                }
            }
        }
        drain_events(&mut conns, &mut latencies, &mut accepted, &mut conns_lost);
        if due == 0 {
            std::thread::sleep(pacer.next_due_in().min(Duration::from_millis(1)));
        }
    }
    let window_s = window_start.elapsed().as_secs_f64();

    // Straggler drain: the scheduler acknowledges from its round loop, so
    // give in-flight submissions a bounded grace period.
    let drain_end = Instant::now() + cfg.drain;
    while accepted < submitted && Instant::now() < drain_end {
        drain_events(&mut conns, &mut latencies, &mut accepted, &mut conns_lost);
        std::thread::sleep(Duration::from_millis(2));
    }

    latencies.sort_unstable();
    Ok(LoadReport {
        target_rate: cfg.rate,
        conns: conns.len(),
        conns_lost,
        submitted,
        accepted,
        window_s,
        sustained_rate: accepted as f64 / window_s.max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        max_us: latencies.last().copied().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_is_open_loop_and_exact() {
        let mut pacer = Pacer::new(10_000.0);
        let ms = Duration::from_millis;
        assert_eq!(pacer.due_at(ms(20)), 200, "20 ms at 10k/s");
        assert_eq!(pacer.due_at(ms(20)), 0, "taken events are not due again");
        // Open loop: a stalled caller is owed the whole backlog, and time
        // running backwards never un-takes an event.
        assert_eq!(pacer.due_at(ms(1020)), 10_000);
        assert_eq!(pacer.due_at(ms(500)), 0);
        assert_eq!(pacer.taken(), 10_200);
    }

    #[test]
    fn percentiles_pick_the_tail() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 0.999), 999);
        assert_eq!(percentile(&[], 0.99), 0);
    }

    #[test]
    fn percentile_empty_input_is_zero_for_every_report_quantile() {
        // Regression: a run whose window closes before any JobAccepted
        // arrives (dead scheduler, zero accepted) reports latency over an
        // empty sample — every quantile the report asks for must be 0,
        // not an index panic.
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(percentile(&[], q), 0, "q={q}");
        }
    }

    #[test]
    fn percentile_edge_quantiles_stay_in_bounds() {
        // One sample: every quantile is that sample.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(percentile(&[42], q), 42, "q={q}");
        }
        // q=0 takes the minimum, q=1 the maximum, and an out-of-range
        // quantile clamps to the last element instead of indexing past
        // the end.
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&v, 1.5), 10);
    }
}
