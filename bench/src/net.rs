//! The two live workloads: a real `NetBackend` + `serve` + `spawn_node`
//! stack in this process, driven over loopback TCP by one open-loop
//! generator thread.
//!
//! The generator sends on a seeded Poisson schedule regardless of replies
//! (independent users, not callers waiting their turn), times every
//! request from the instant it was *due*, and reports how late it ran: a
//! pass whose generator lateness p99 exceeds 1 ms is flagged void (a limit,
//! see `Outcome::limits`), since what it timed is partly the generator.
//! Arrivals are Poisson because a fixed gap aliases against the 30 ms
//! round clock.

use std::collections::{BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use blox_core::fault::splitmix64;
use blox_core::ids::{JobId, NodeId};
use blox_core::manager::{ExecMode, RunConfig, StopCondition};
use blox_core::metrics::Stage;
use blox_net::node::{spawn_node, NodeConfig, NodeHandle};
use blox_net::sched::{serve, NetBackend, NetReport, SchedulerConfig};
use blox_net::{encode_shared, FrameBuf, PollerKind, TcpTransport, TransportKind};
use blox_policies::admission::AcceptAll;
use blox_policies::placement::ConsolidatedPlacement;
use blox_policies::scheduling::Fifo;
use blox_runtime::runtime::RuntimeConfig;
use blox_runtime::wire::{Message, Transport};

use crate::layers::{self, set};
use crate::record::{peak_rss_mb, Metric, Outcome};
use crate::sim::{pass_seed, passes};
use crate::stats::{label, mean, median, percentile, pick_tail, quantile, sorted, PerMille, P50};
use crate::trace::{self, Recorder, NO_PARENT};
use crate::Run;

/// Wall seconds per simulated second: a 300 s round is 30 ms of wall.
const TIME_SCALE: f64 = 1e-4;
const ROUND_SIM_S: f64 = 300.0;
const ROUND_WALL_S: f64 = ROUND_SIM_S * TIME_SCALE;
/// An ack later than this is over the limit; one that has not come half a
/// second after that is counted as never coming, a failed request.
const ACK_DEADLINE: Duration = Duration::from_secs(1);
/// `submit_accept_ms_p99` limit of the serving workloads: 1.5 rounds.
const ACCEPT_LIMIT_MS: f64 = 45.0;
/// A pass whose generator ran later than this at p99 is flagged void.
const GEN_LATE_LIMIT_MS: f64 = 1.0;
/// Longest the generator sleeps between looks at the ack channels, which
/// bounds how stale an ack timestamp can be.
const ACK_POLL: Duration = Duration::from_micros(200);
/// Probes are sent this long after set-up began: past the first round,
/// well before the second.
const FIRST_ROUND_GRACE: Duration = Duration::from_millis(8);
/// How long past its window a `net_submit` scheduler keeps serving: set-up
/// plus the time the generator waits for the last acks, with room for a
/// burst of stolen CPU time at the window's end.
const SERVE_SLACK_S: f64 = 2.0;
/// Wall time a node may stay silent, or a running job show no progress,
/// before the scheduler gives up on it. Neither detector is on a measured
/// path, and the defaults come to 250-300 ms at this time scale: on a
/// shared host one burst of stolen CPU time would read as sixteen dead
/// nodes, and with no node left the tracked jobs never finish.
const DETECT_WALL_S: f64 = 3.0;
/// How long past its window a `net_jobs` scheduler may run before it
/// stops whether or not every job is done (the jobs it leaves count as
/// failed): a pass ends, whatever was lost.
const JOBS_SLACK_S: f64 = 10.0;

#[derive(Debug, Clone)]
struct NetSizes {
    name: &'static str,
    nodes: usize,
    conns: usize,
    rate_per_s: f64,
    window_s: f64,
    /// `(gpus, share)` mix and `total_iters` range of submitted jobs.
    gpu_mix: &'static [(u32, f64)],
    iters: (f64, f64),
    /// Whether the jobs finish (and the pass waits for all of them).
    jobs_finish: bool,
}

fn submit_sizes(smoke: bool) -> NetSizes {
    NetSizes {
        name: "net_submit",
        nodes: 1,
        conns: 2,
        rate_per_s: if smoke { 2000.0 } else { 8000.0 },
        window_s: if smoke { 0.8 } else { 3.0 },
        gpu_mix: &[(1, 1.0)],
        iters: (1e9, 1e9),
        jobs_finish: false,
    }
}

fn jobs_sizes(smoke: bool) -> NetSizes {
    NetSizes {
        name: "net_jobs",
        // Four times the GPUs the load keeps busy (14 of 64 on average),
        // so that no job ever waits for one. On a cluster that fills up,
        // FIFO backfills small jobs past a blocked large one and preempts
        // them a round later; a `Revoke` that crosses the job's own
        // `JobDone` is never answered, and the scheduler then sits out
        // its 5 s suspension timeout with every ack and launch behind it.
        // That is a robustness defect to fix and test on its own, not
        // something a latency benchmark can have on its path.
        nodes: 16,
        conns: 1,
        rate_per_s: 80.0,
        window_s: if smoke { 0.6 } else { 3.0 },
        gpu_mix: &[(1, 0.60), (2, 0.20), (4, 0.15), (8, 0.05)],
        iters: (300.0, 900.0),
        jobs_finish: true,
    }
}

/// The CPUs (of the first 64) this thread may run on, 0 when unknown.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> u64 {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
    let mut mask = 0u64;
    // SAFETY: pid 0 names the calling thread; `mask` is a live, writable
    // u64 and `cpusetsize` is its exact size, so the kernel writes only
    // into this frame. A kernel with more than 64 CPUs refuses the short
    // buffer and the mask stays 0.
    match unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) } {
        0 => mask,
        _ => 0,
    }
}

/// Restrict the calling thread (and every thread it spawns from now on)
/// to the CPUs set in `mask`. Best effort: on failure the threads simply
/// stay where the kernel puts them.
#[cfg(target_os = "linux")]
fn pin_to(mask: u64) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: pid 0 names the calling thread; `mask` outlives the call and
    // `cpusetsize` is its exact size in bytes, so the kernel reads only
    // memory this frame owns.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> u64 {
    0
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_mask: u64) {}

/// Uniform draw in [0, 1) from a splitmix64 stream.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One request of the open-loop schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// When the request is due, from the start of the window.
    pub due: Duration,
    pub gpus: u32,
    pub total_iters: f64,
}

/// The seeded Poisson schedule of one window, conditioned on its count:
/// exactly `rate × window` arrivals at independent uniform instants, which
/// is how a Poisson process is distributed once its count is known. Fixing
/// the count keeps the offered load, and so every rate metric, free of
/// the sqrt(n) noise an unconditioned draw would add per seed.
pub fn poisson_schedule(
    seed: u64,
    rate_per_s: f64,
    window_s: f64,
    gpu_mix: &[(u32, f64)],
    iters: (f64, f64),
) -> Vec<Request> {
    let mut state = seed;
    let n = (rate_per_s * window_s).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| unit(&mut state) * window_s).collect();
    due.sort_by(|a, b| a.partial_cmp(b).expect("finite instants"));
    due.into_iter()
        .map(|t| {
            let mut pick = unit(&mut state);
            let gpus = gpu_mix
                .iter()
                .find(|(_, share)| {
                    pick -= share;
                    pick < 0.0
                })
                .map_or(gpu_mix[gpu_mix.len() - 1].0, |(g, _)| *g);
            Request {
                due: Duration::from_secs_f64(t),
                gpus,
                total_iters: iters.0 + unit(&mut state) * (iters.1 - iters.0),
            }
        })
        .collect()
}

/// The scheduler, its nodes and the client links of one pass.
struct Stack {
    server: std::thread::JoinHandle<NetReport>,
    nodes: Vec<NodeHandle>,
    links: Vec<TcpTransport>,
}

/// Bind, serve, register nodes, connect clients, and prove each link with
/// one probe submission. The probes take job ids `0..conns`, carry the
/// smallest work of the mix and are left out of every statistic.
///
/// `serve` is given no nodes to wait for, so rounds start at once and the
/// probe acks come back on the round clock like every later ack: the
/// probes go out only once the first round (which runs the instant `serve`
/// starts) is certainly over, so set-up is bind + spawn + one full round,
/// never a race with that first round.
fn start(sizes: &NetSizes, scheduled_jobs: usize) -> (Stack, f64) {
    let t0 = Instant::now();
    let defaults = SchedulerConfig::default();
    let backend = NetBackend::bind(SchedulerConfig {
        runtime: RuntimeConfig {
            time_scale: TIME_SCALE,
            emu_iter_sim_s: 30.0,
        },
        heartbeat_misses: (DETECT_WALL_S / (defaults.heartbeat_sim_s * TIME_SCALE)).ceil() as u32,
        stall_rounds: (DETECT_WALL_S / ROUND_WALL_S).ceil() as u32,
        transport: TransportKind::EvLoop,
        poller: PollerKind::Auto,
        ..defaults
    })
    .expect("bind the scheduler on an ephemeral loopback port");
    let addr: SocketAddr = backend.addr();
    let stop = match sizes.jobs_finish {
        true => StopCondition::TrackedWindowDone {
            lo: sizes.conns as u64,
            hi: (sizes.conns + scheduled_jobs) as u64 - 1,
        },
        // Jobs that never finish give `serve` nothing to wait for: it runs
        // for the window plus set-up and ack-drain slack, in sim seconds.
        false => StopCondition::TimeLimit((sizes.window_s + SERVE_SLACK_S) / TIME_SCALE),
    };
    let max_rounds = ((sizes.window_s + JOBS_SLACK_S) / ROUND_WALL_S).ceil() as u64;
    let server = std::thread::spawn(move || {
        serve(
            backend,
            RunConfig {
                round_duration: ROUND_SIM_S,
                max_rounds,
                stop,
                mode: ExecMode::FixedRounds,
            },
            0,
            Duration::from_secs(30),
            &mut AcceptAll::new(),
            &mut Fifo::new(),
            &mut ConsolidatedPlacement::preferred(),
        )
        .expect("serve runs to its stop condition")
    });
    let nodes = (0..sizes.nodes)
        .map(|_| {
            spawn_node(NodeConfig {
                sched: addr,
                gpus: 4,
                reconnect: false,
                faults: None,
                transport: TransportKind::EvLoop,
                poller: PollerKind::Auto,
            })
        })
        .collect();
    let links: Vec<TcpTransport> = (0..sizes.conns)
        .map(|_| TcpTransport::connect(addr).expect("connect a client link"))
        .collect();
    std::thread::sleep(FIRST_ROUND_GRACE.saturating_sub(t0.elapsed()));
    for link in &links {
        link.send(&Message::SubmitJob {
            gpus: 1,
            total_iters: sizes.iters.0,
            model: "spine-probe".into(),
        })
        .expect("probe submission");
    }
    for link in &links {
        match link.recv_timeout(Duration::from_secs(10)) {
            Ok(Some(Message::JobAccepted { .. })) => {}
            other => panic!("probe submission was not accepted: {other:?}"),
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    // One more round so node registrations that raced the probes are in.
    std::thread::sleep(Duration::from_secs_f64(ROUND_WALL_S * 1.5));
    (
        Stack {
            server,
            nodes,
            links,
        },
        setup_s,
    )
}

/// Per-request timestamps of one window, indexed like the schedule.
#[derive(Default)]
struct Timeline {
    send_start: Vec<Instant>,
    send_end: Vec<Instant>,
    ack: Vec<Option<(Instant, JobId)>>,
    conns_lost: usize,
    /// Requests still unacked when the last request fell due.
    unacked_at_window_end: usize,
}

/// Drive the schedule open loop from this thread: send whatever is due,
/// drain whatever has been acked, never wait for a reply before the next
/// send. Acks on one link come back in send order.
fn generate(links: &[TcpTransport], schedule: &[Request], origin: Instant) -> Timeline {
    let n = schedule.len();
    let mut tl = Timeline {
        send_start: Vec::with_capacity(n),
        send_end: Vec::with_capacity(n),
        ack: vec![None; n],
        ..Timeline::default()
    };
    let mut outstanding: Vec<VecDeque<usize>> = vec![VecDeque::new(); links.len()];
    let mut lost = vec![false; links.len()];
    let mut acked = 0;
    let mut next = 0;
    let mut give_up = None;
    while acked < n {
        while next < n && origin + schedule[next].due <= Instant::now() {
            let conn = next % links.len();
            let req = &schedule[next];
            tl.send_start.push(Instant::now());
            let sent = links[conn].send(&Message::SubmitJob {
                gpus: req.gpus,
                total_iters: req.total_iters,
                model: "spine".into(),
            });
            tl.send_end.push(Instant::now());
            match sent {
                Ok(()) => outstanding[conn].push_back(next),
                Err(_) => lost[conn] = true,
            }
            next += 1;
            if next == n {
                tl.unacked_at_window_end = n - acked;
                give_up = Some(Instant::now() + ACK_DEADLINE + Duration::from_millis(500));
            }
        }
        for (conn, link) in links.iter().enumerate() {
            loop {
                match link.try_recv() {
                    Ok(Some(Message::JobAccepted { job })) => {
                        if let Some(i) = outstanding[conn].pop_front() {
                            tl.ack[i] = Some((Instant::now(), job));
                            acked += 1;
                        }
                    }
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        lost[conn] = true;
                        break;
                    }
                }
            }
        }
        if give_up.is_some_and(|t| Instant::now() > t) || lost.iter().all(|l| *l) {
            break;
        }
        // Sleep only across gaps long enough to absorb a timer overshoot;
        // otherwise poll, so a send is never late by a sleep.
        if next < n {
            let until_due = (origin + schedule[next].due).saturating_duration_since(Instant::now());
            if until_due > Duration::from_micros(400) {
                std::thread::sleep((until_due - Duration::from_micros(300)).min(ACK_POLL));
            } else {
                std::hint::spin_loop();
            }
        } else {
            std::thread::sleep(ACK_POLL);
        }
    }
    tl.conns_lost = lost.iter().filter(|l| **l).count();
    tl
}

/// What one pass measured.
struct NetPass {
    setup_s: f64,
    measured_s: f64,
    n: usize,
    schedule: Vec<Request>,
    origin: Instant,
    tl: Timeline,
    report: NetReport,
    /// Per request, in schedule order (ms); `None` where no ack came.
    accept_ms: Vec<Option<f64>>,
    gen_late_ms: Vec<f64>,
    accepted_in_window: usize,
    /// Per finished job (ms): launch wait, and due → done.
    launch_wait_ms: Vec<f64>,
    e2e_ms: Vec<f64>,
    failed: u64,
    /// Timing limits this pass ran over (see `Outcome::limits`).
    limits: Vec<String>,
}

fn net_pass(sizes: &NetSizes, seed: u64) -> NetPass {
    let schedule = poisson_schedule(
        seed,
        sizes.rate_per_s,
        sizes.window_s,
        sizes.gpu_mix,
        sizes.iters,
    );
    let n = schedule.len();
    // The system under test gets every CPU but the last; the generator
    // then moves to that last one, alone, so that neither steals the
    // other's time (a spinning generator sharing two CPUs with five busy
    // threads ran 2 ms late at p99). Threads inherit the mask of the
    // thread that spawns them, so masking this thread during set-up masks
    // the whole stack. With one CPU there is nothing to separate.
    let everything = allowed_cpus();
    let separate = everything.count_ones() > 1;
    let generator = 1u64 << (63 - everything.leading_zeros().min(63));
    if separate {
        pin_to(everything & !generator);
    }
    let (stack, setup_s) = start(sizes, n);
    if separate {
        pin_to(generator);
    }

    let origin = Instant::now();
    let tl = generate(&stack.links, &schedule, origin);
    if separate {
        pin_to(everything);
    }
    let Stack {
        server,
        nodes,
        links,
    } = stack;
    // Finishing jobs are part of the measurement; the tail of a
    // `net_submit` scheduler's time limit is not.
    let generated_s = origin.elapsed().as_secs_f64();
    let report = server.join().expect("serve thread");
    let measured_s = match sizes.jobs_finish {
        true => origin.elapsed().as_secs_f64(),
        false => generated_s,
    };
    drop(links);
    for node in nodes {
        // `serve` broadcast Shutdown on its way out; a node that missed
        // it exits when its link closes.
        let _ = node.join();
    }

    let ms = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e3;
    let due = |i: usize| origin + schedule[i].due;
    let accept_ms: Vec<Option<f64>> = (0..n)
        .map(|i| tl.ack[i].map(|(at, _)| ms(due(i), at)))
        .collect();
    let gen_late_ms: Vec<f64> = (0..tl.send_start.len())
        .map(|i| ms(due(i), tl.send_start[i]))
        .collect();
    let window_end = origin + Duration::from_secs_f64(sizes.window_s);
    let accepted_in_window = tl
        .ack
        .iter()
        .flatten()
        .filter(|(at, _)| *at <= window_end)
        .count();

    // Exactly-once accounting.
    let mut failed = 0;
    let mut limits = Vec::new();
    let ids: Vec<JobId> = tl.ack.iter().flatten().map(|(_, id)| *id).collect();
    let distinct: BTreeSet<JobId> = ids.iter().copied().collect();
    failed += (n - ids.len()) as u64 + (ids.len() - distinct.len()) as u64;
    let late_acks = accept_ms
        .iter()
        .flatten()
        .filter(|ms| **ms > ACK_DEADLINE.as_secs_f64() * 1e3)
        .count();
    if late_acks > 0 {
        limits.push(format!(
            "over_limit: {late_acks} acks later than {} s",
            ACK_DEADLINE.as_secs()
        ));
    }
    failed += tl.conns_lost as u64
        + u64::from(report.failures_detected)
        + u64::from(report.stalls_detected);
    let (mut launch_wait_ms, mut e2e_ms) = (Vec::new(), Vec::new());
    if sizes.jobs_finish {
        let mut seen = BTreeSet::new();
        for rec in &report.stats.records {
            if !seen.insert(rec.id) {
                failed += 1; // Completed twice.
            }
        }
        // Everything that completed is a probe or a job we were acked.
        failed += seen
            .iter()
            .filter(|id| id.0 >= sizes.conns as u64 && !distinct.contains(id))
            .count() as u64;
        for (i, ack) in tl.ack.iter().enumerate() {
            let Some((_, id)) = ack else { continue };
            match report.stats.records.iter().find(|r| r.id == *id) {
                Some(rec) => {
                    let sim_ms = |s: f64| s * TIME_SCALE * 1e3;
                    launch_wait_ms.push(sim_ms(
                        rec.first_scheduled.unwrap_or(rec.completion) - rec.arrival,
                    ));
                    e2e_ms
                        .push(accept_ms[i].expect("acked") + sim_ms(rec.completion - rec.arrival));
                }
                None => failed += 1, // Accepted but never completed.
            }
        }
    }
    // The generator ran late: what this pass timed is partly its own delay.
    let gen_late_p99 = quantile(&gen_late_ms, 990);
    if gen_late_p99 > GEN_LATE_LIMIT_MS {
        limits.push(format!(
            "void: generator lateness p99 {gen_late_p99:.2} exceeds {GEN_LATE_LIMIT_MS} ms"
        ));
    }
    let acc = sorted(accept_ms.iter().flatten().copied().collect());
    if percentile(&acc, 990) > ACCEPT_LIMIT_MS {
        limits.push(format!(
            "over_limit: submit_accept_ms_p99 {:.2} exceeds {ACCEPT_LIMIT_MS} ms",
            percentile(&acc, 990)
        ));
    }
    let two_rounds = (2.0 * ROUND_WALL_S * sizes.rate_per_s).ceil() as usize;
    if tl.unacked_at_window_end > two_rounds {
        limits.push(format!(
            "over_limit: {} requests unacked at window end (limit {two_rounds}: a growing backlog)",
            tl.unacked_at_window_end
        ));
    }
    NetPass {
        setup_s,
        measured_s,
        n,
        schedule,
        origin,
        tl,
        report,
        accept_ms,
        gen_late_ms,
        accepted_in_window,
        launch_wait_ms,
        e2e_ms,
        failed,
        limits,
    }
}

/// Client-side spans of one pass, built after the window from the
/// timestamps every pass takes: per request a `net.request` root covering
/// due → ack, tiled by `net.gen_late`, `net.client_send`, `net.ack_wait`.
fn spans_of(pass: &NetPass) -> Recorder {
    let mut rec = Recorder::starting_at(pass.origin, pass.n * 4);
    for i in 0..pass.tl.send_start.len() {
        let Some((ack, job)) = pass.tl.ack[i] else {
            continue;
        };
        let due = pass.origin + pass.schedule[i].due;
        let (s0, s1) = (pass.tl.send_start[i], pass.tl.send_end[i]);
        let root = rec.push("net.request", job.0, NO_PARENT, due, ack);
        rec.push("net.gen_late", job.0, root, due, s0);
        rec.push("net.client_send", job.0, root, s0, s1);
        rec.push("net.ack_wait", job.0, root, s1, ack);
    }
    rec
}

/// Acks arrive in once-per-round bursts: group ack instants separated by
/// less than 2 ms. Returns (mean batch size, median ms between batches).
fn ack_batches(pass: &NetPass) -> (f64, f64) {
    let mut at: Vec<Instant> = pass.tl.ack.iter().flatten().map(|(t, _)| *t).collect();
    at.sort();
    let mut starts = Vec::new();
    let mut prev: Option<Instant> = None;
    for t in &at {
        if prev.is_none_or(|p| *t - p > Duration::from_millis(2)) {
            starts.push(*t);
        }
        prev = Some(*t);
    }
    let gaps: Vec<f64> = starts
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    (at.len() as f64 / starts.len().max(1) as f64, median(&gaps))
}

/// Nanoseconds per message of the wire codec and the framing layer, over
/// the workload's own message mix.
fn codec_probe(mix: &[Message], messages: usize) -> [f64; 4] {
    let per_msg = |start: Instant| start.elapsed().as_secs_f64() * 1e9 / messages as f64;
    let mut buf = Vec::with_capacity(128);
    let start = Instant::now();
    for i in 0..messages {
        buf.clear();
        std::hint::black_box(&mix[i % mix.len()]).encode_into(&mut buf);
        std::hint::black_box(&buf);
    }
    let encode = per_msg(start);
    let payloads: Vec<Vec<u8>> = mix.iter().map(Message::encode).collect();
    let start = Instant::now();
    for i in 0..messages {
        std::hint::black_box(Message::decode(std::hint::black_box(
            &payloads[i % mix.len()],
        )))
        .expect("decode what encode wrote");
    }
    let decode = per_msg(start);
    let start = Instant::now();
    for i in 0..messages {
        std::hint::black_box(encode_shared(std::hint::black_box(&mix[i % mix.len()])))
            .expect("frames of a few bytes");
    }
    let frame_encode = per_msg(start);
    let frames: Vec<_> = mix
        .iter()
        .map(|m| encode_shared(m).expect("small frame"))
        .collect();
    let mut inbox = FrameBuf::new();
    let start = Instant::now();
    for i in 0..messages {
        inbox.extend_from_slice(std::hint::black_box(&frames[i % mix.len()]));
        std::hint::black_box(inbox.try_decode())
            .expect("well-formed frame")
            .expect("whole frame buffered");
    }
    [encode, decode, frame_encode, per_msg(start)]
}

/// The message mix each workload puts on the wire, in proportion.
fn message_mix(sizes: &NetSizes) -> Vec<Message> {
    let job = JobId(123_456);
    let mut mix = vec![
        Message::SubmitJob {
            gpus: 1,
            total_iters: 600.0,
            model: "spine".into(),
        },
        Message::JobAccepted { job },
    ];
    if sizes.jobs_finish {
        // Per job: one Launch per node it spans, a Progress + PushMetric
        // pair every 3 ms of its 30-90 ms run, one JobDone.
        mix.push(Message::Launch {
            job,
            local_gpus: vec![0, 1],
            iter_time_s: 1.0,
            start_iters: 0.0,
            total_iters: 600.0,
            warmup_s: 20.0,
            is_rank0: true,
        });
        for _ in 0..20 {
            mix.push(Message::Progress { job, iters: 321.5 });
            mix.push(Message::PushMetric {
                job,
                key: "iter_time".into(),
                value: 1.0,
            });
        }
        mix.push(Message::JobDone {
            job,
            sim_time: 12_345.6,
        });
        mix.push(Message::Heartbeat {
            node: NodeId(1),
            seq: 7,
        });
    }
    mix
}

fn net_workload(run: &Run, sizes: NetSizes) -> Outcome {
    let mut out = if run.traced {
        layers::blank()
    } else {
        Outcome::default()
    };
    out.params = vec![
        ("nodes", sizes.nodes.to_string()),
        ("gpus_per_node", "4".into()),
        ("client_connections", sizes.conns.to_string()),
        ("loop", "open, seeded Poisson, one generator thread".into()),
        ("rate_per_s", sizes.rate_per_s.to_string()),
        ("window_s", sizes.window_s.to_string()),
        ("gpu_mix", format!("{:?}", sizes.gpu_mix)),
        ("total_iters", format!("{:?}", sizes.iters)),
        ("time_scale", TIME_SCALE.to_string()),
        ("round_wall_ms", (ROUND_WALL_S * 1e3).to_string()),
        ("policies", "accept-all,fifo,consolidated-preferred".into()),
    ];
    let all: Vec<NetPass> = passes(run.seconds, 1, |i| {
        let pass = net_pass(&sizes, pass_seed(run.seed, i));
        let secs = pass.measured_s;
        (pass, secs)
    });
    out.params.push(("passes", all.len().to_string()));
    for (i, pass) in all.iter().enumerate() {
        out.attempted += pass.n as u64;
        out.failed += pass.failed;
        out.limits
            .extend(pass.limits.iter().map(|l| format!("pass {i}: {l}")));
    }

    let each = |f: &dyn Fn(&NetPass) -> f64| all.iter().map(f).collect::<Vec<f64>>();
    let quantile =
        |samples: fn(&NetPass) -> Vec<f64>, p: PerMille| each(&|pass| quantile(&samples(pass), p));
    let accept = |p: &NetPass| p.accept_ms.iter().flatten().copied().collect::<Vec<f64>>();
    let n_min = all.iter().map(|p| p.n).min().unwrap_or(0);
    let tail = pick_tail(n_min).unwrap_or(P50);
    let total: usize = all.iter().map(|p| p.n).sum();

    if !run.traced {
        out.push_slot(
            "setup_s",
            Metric::median_of("setup_s", "s", all.len(), each(&|p| p.setup_s)),
        );
        let accept_p50 =
            Metric::median_of("submit_accept_ms_p50", "ms", total, quantile(accept, P50));
        let accept_tail = Metric::median_of(
            format!("submit_accept_ms_{}", label(tail)),
            "ms",
            total,
            quantile(accept, tail),
        )
        .note(format!("{} of >= {n_min} requests per pass", label(tail)));
        if sizes.jobs_finish {
            out.push_slot(
                "throughput_per_s",
                Metric::median_of(
                    "jobs_done_per_s",
                    "1/s",
                    all.len(),
                    each(&|p| p.e2e_ms.len() as f64 / p.measured_s),
                ),
            );
            out.push(accept_p50);
            out.push(accept_tail);
            out.push(Metric::median_of(
                "launch_wait_ms_p50",
                "ms",
                total,
                quantile(|p| p.launch_wait_ms.clone(), P50),
            ));
            out.push_slot(
                "latency_ms_p50",
                Metric::median_of(
                    "job_e2e_ms_p50",
                    "ms",
                    total,
                    quantile(|p| p.e2e_ms.clone(), P50),
                ),
            );
            out.push_slot(
                "latency_ms_tail",
                Metric::median_of(
                    format!("job_e2e_ms_{}", label(tail)),
                    "ms",
                    total,
                    quantile(|p| p.e2e_ms.clone(), tail),
                )
                .note(format!("{} of >= {n_min} jobs per pass", label(tail))),
            );
        } else {
            out.push_slot(
                "throughput_per_s",
                Metric::median_of(
                    "accepted_per_s",
                    "1/s",
                    all.len(),
                    each(&|p| p.accepted_in_window as f64 / sizes.window_s),
                ),
            );
            out.push_slot("latency_ms_p50", accept_p50);
            out.push_slot("latency_ms_tail", accept_tail);
        }
        out.push_slot(
            "peak_rss_mb",
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
        );
        return out;
    }

    // Per-layer: client-side spans, ack bursts, the scheduler's own
    // report, and codec probes over this workload's message mix.
    let mut send_us = Vec::new();
    for pass in &all {
        let rec = spans_of(pass);
        send_us.extend(
            trace::durations_ms(rec.spans())
                .remove("net.client_send")
                .unwrap_or_default()
                .into_iter()
                .map(|ms| ms * 1e3),
        );
    }
    if let Some(dir) = &run.out_dir {
        let rec = spans_of(&all[0]);
        let path = dir.join(format!("trace-{}.jsonl", sizes.name));
        if let Err(e) = trace::write_jsonl(&path, "job", rec.spans()) {
            out.faults.push(format!("writing {}: {e}", path.display()));
        }
    }
    let send_us = sorted(send_us);
    let send_tail = pick_tail(send_us.len()).unwrap_or(P50);
    set(
        &mut out,
        "net.client_send_us_p50",
        percentile(&send_us, P50),
        send_us.len(),
    );
    set(
        &mut out,
        "net.client_send_us_tail",
        percentile(&send_us, send_tail),
        send_us.len(),
    )
    .note = label(send_tail);
    let batches: Vec<(f64, f64)> = all.iter().map(ack_batches).collect();
    set(
        &mut out,
        "net.ack_batch_size_mean",
        mean(&batches.iter().map(|b| b.0).collect::<Vec<_>>()),
        total,
    );
    set(
        &mut out,
        "net.ack_batch_interval_ms_p50",
        median(&batches.iter().map(|b| b.1).collect::<Vec<_>>()),
        total,
    );
    set(
        &mut out,
        "net.gen_late_ms_p99",
        median(&quantile(|p| p.gen_late_ms.clone(), 990)),
        total,
    );
    let reports: Vec<&NetReport> = all.iter().map(|p| &p.report).collect();
    let rounds: u64 = reports
        .iter()
        .map(|r| r.stats.stage_times.measured_rounds)
        .sum();
    for stage in Stage::ALL {
        let total_s: f64 = reports
            .iter()
            .map(|r| r.stats.stage_times.total(stage))
            .sum();
        set(
            &mut out,
            &format!("core.stage_{}_ms_mean", stage.name()),
            total_s * 1e3 / rounds.max(1) as f64,
            rounds as usize,
        );
    }
    set(
        &mut out,
        "net.round_ms_mean",
        mean(
            &reports
                .iter()
                .map(|r| r.stats.stage_times.mean_round() * 1e3)
                .collect::<Vec<_>>(),
        ),
        rounds as usize,
    );
    set(&mut out, "net.rounds", rounds as f64, all.len());
    let sum = |f: &dyn Fn(&NetPass) -> f64| all.iter().map(f).sum::<f64>();
    set(
        &mut out,
        "net.preemptions_total",
        sum(&|p| {
            p.report
                .stats
                .records
                .iter()
                .map(|r| f64::from(r.preemptions))
                .sum()
        }),
        all.len(),
    );
    set(
        &mut out,
        "net.conns_lost",
        sum(&|p| p.tl.conns_lost as f64),
        all.len(),
    );
    set(
        &mut out,
        "net.failures_detected",
        sum(&|p| f64::from(p.report.failures_detected)),
        all.len(),
    );
    set(
        &mut out,
        "net.stalls_detected",
        sum(&|p| f64::from(p.report.stalls_detected)),
        all.len(),
    );
    let messages = if run.smoke { 10_000 } else { 100_000 };
    let [encode, decode, frame_encode, frame_decode] = codec_probe(&message_mix(&sizes), messages);
    set(&mut out, "runtime.encode_ns_per_msg", encode, messages);
    set(&mut out, "runtime.decode_ns_per_msg", decode, messages);
    set(
        &mut out,
        "net.frame_encode_ns_per_msg",
        frame_encode,
        messages,
    );
    set(
        &mut out,
        "net.frame_decode_ns_per_msg",
        frame_decode,
        messages,
    );
    // The spans are built after the window from timestamps an untraced
    // pass takes too, so tracing adds nothing to the measured path.
    set(&mut out, "trace.overhead_ratio", 0.0, all.len());
    out
}

pub fn net_submit(run: &Run) -> Outcome {
    net_workload(run, submit_sizes(run.smoke))
}

pub fn net_jobs(run: &Run) -> Outcome {
    net_workload(run, jobs_sizes(run.smoke))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let mix = jobs_sizes(false).gpu_mix;
        let a = poisson_schedule(7, 80.0, 5.0, mix, (300.0, 900.0));
        let b = poisson_schedule(7, 80.0, 5.0, mix, (300.0, 900.0));
        let c = poisson_schedule(8, 80.0, 5.0, mix, (300.0, 900.0));
        assert_eq!(format!("{a:?}").as_bytes(), format!("{b:?}").as_bytes());
        assert_ne!(a, c);
        // rate × window requests, due in order, inside the window.
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|r| r.due < Duration::from_secs(5)));
        assert!(a.iter().all(|r| [1, 2, 4, 8].contains(&r.gpus)));
        assert!(a.iter().all(|r| (300.0..900.0).contains(&r.total_iters)));
    }

    #[test]
    fn net_jobs_smoke_completes_every_job_exactly_once() {
        let sizes = NetSizes {
            rate_per_s: 50.0,
            window_s: 0.4,
            ..jobs_sizes(true)
        };
        let pass = net_pass(&sizes, 3);
        assert_eq!(pass.n, 20);
        assert_eq!(pass.failed, 0);
        assert_eq!(pass.e2e_ms.len(), pass.n);
        // Probe jobs aside, every record is one of ours, once.
        let ours: BTreeSet<JobId> = pass.tl.ack.iter().flatten().map(|(_, id)| *id).collect();
        assert_eq!(ours.len(), pass.n);
        let done: Vec<JobId> = pass.report.stats.records.iter().map(|r| r.id).collect();
        let probes = sizes.conns as u64;
        assert_eq!(done.iter().filter(|id| id.0 >= probes).count(), pass.n);
        assert!(done.iter().all(|id| id.0 < probes || ours.contains(id)));
    }
}
