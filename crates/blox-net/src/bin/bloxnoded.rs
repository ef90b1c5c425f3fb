//! `bloxnoded` — the per-node worker-manager daemon of the networked
//! deployment. Connects to a `bloxschedd`, registers its GPUs, and serves
//! launch / preempt commands with emulated training until the scheduler
//! orders a shutdown.
//!
//! ```text
//! bloxnoded --sched 127.0.0.1:PORT [--gpus 4] [--no-reconnect]
//! ```

use blox_net::node::{run_node, NodeConfig};

fn main() {
    let mut sched: Option<String> = None;
    let mut gpus = 4u32;
    let mut reconnect = true;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--sched" => sched = Some(it.next().expect("missing value for --sched")),
            "--gpus" => {
                gpus = it
                    .next()
                    .expect("missing value for --gpus")
                    .parse()
                    .expect("--gpus u32")
            }
            "--no-reconnect" => reconnect = false,
            other => panic!("unknown flag {other}"),
        }
    }
    let sched = sched
        .expect("--sched ADDR is required")
        .parse()
        .expect("--sched must be a socket address");
    println!("bloxnoded: serving {gpus} GPUs for scheduler {sched}");
    run_node(&NodeConfig::new(sched, gpus, reconnect)).expect("node daemon");
    println!("bloxnoded: shut down");
}
