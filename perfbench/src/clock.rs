//! CPU-time clocks.
//!
//! Throughput and the learner's tail latency are measured in CPU time
//! rather than wall time: on a kernel built with
//! `CONFIG_PARAVIRT_TIME_ACCOUNTING=y`, time the hypervisor steals from
//! the guest is not charged to the task, so these clocks hold steady on a
//! noisy shared host where wall-clock tails do not.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux CPU clocks through the 64-bit timespec layout");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// CPU time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout on
    // 64-bit Linux (checked at compile time above), and both clock ids
    // are constants every Linux kernel accepts.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by all threads of this process.
pub fn process_cpu() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}
