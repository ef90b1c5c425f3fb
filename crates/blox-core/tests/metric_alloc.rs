//! The simulator pushes two or three metrics per running job per round;
//! once a key exists, a push must not touch the allocator. A counting
//! global allocator (per thread, so the test harness's own threads do not
//! count) pins that. Kept in its own test binary because the allocator is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use blox_core::ids::JobId;
use blox_core::job::Job;
use blox_core::profile::JobProfile;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn pushing_existing_simulator_keys_allocates_nothing() {
    let mut job = Job::new(JobId(1), 0.0, 1, 100.0, JobProfile::synthetic("m", 1.0));
    let keys = ["loss", "iter_time", "goodput"];
    for key in keys {
        job.push_metric(key, 0.0);
    }
    let n = allocations_during(|| {
        for i in 0..1000 {
            job.push_metric(keys[i % keys.len()], i as f64);
        }
    });
    assert_eq!(n, 0, "1000 pushes of existing keys allocated {n} times");
    assert_eq!(job.metric("loss"), Some(999.0));
    // The counter is live: a new owned key does allocate.
    assert!(allocations_during(|| job.push_metric("grad_norm", 1.0)) > 0);
}
