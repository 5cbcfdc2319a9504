//! Keep the client and the server off each other's CPU.
//!
//! The load shape is one closed-loop client and a server that "needs the other
//! core".  Left to the scheduler, whether a hand-off between the two crosses
//! CPUs is decided run by run (measured at this commit, identical code: 0.187 ms
//! per round trip in most runs, 0.097 ms in the one in ten the scheduler placed
//! well).  So the placement is fixed: the client thread runs on the lowest CPU
//! the process is allowed on, and every thread of the system under test on all
//! the others — a thread inherits the affinity of the thread that spawns it, so
//! `sut.rs` and `layers.rs` enter [`server_side`] around the constructors that
//! spawn (service pool, acceptor) and come back with [`client_side`].  The
//! server keeps every CPU but one, so its own parallelism still registers.  On
//! a machine with a single CPU both sides share it.  See README, "Load shape".

use std::sync::OnceLock;

// `std` links libc; these are its `sched_{get,set}affinity(2)` wrappers.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the CPU mask: room for 1024 CPUs, the kernel's `CPU_SETSIZE`.
const WORDS: usize = 16;
type Mask = [u64; WORDS];

/// The two sides' masks, from the CPUs the process was allowed on at its first
/// call here (so an outer `taskset` is honoured); `None` if they cannot be read.
fn sides() -> Option<(Mask, Mask)> {
    static SIDES: OnceLock<Option<(Mask, Mask)>> = OnceLock::new();
    *SIDES.get_or_init(|| {
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` is a live, writable buffer of exactly the size passed.
        let read =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
        if read != 0 {
            return None;
        }
        let (word, bits) = allowed.iter().enumerate().find(|(_, bits)| **bits != 0)?;
        let mut client = [0u64; WORDS];
        client[word] = 1 << bits.trailing_zeros();
        let mut server = allowed;
        server[word] &= !client[word];
        let alone = server.iter().all(|bits| *bits == 0);
        Some((client, if alone { client } else { server }))
    })
}

fn enter(mask: Option<Mask>) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the size passed.
    mask.is_some_and(|mask| unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
    })
}

/// Move the calling thread to the client's CPU.  `false` when the mask could
/// not be read or set — the run then goes on wherever the scheduler puts it,
/// and `main` says so.
pub fn client_side() -> bool {
    enter(sides().map(|(client, _)| client))
}

/// Move the calling thread to the server's CPUs, so that the threads it spawns
/// start there.
pub fn server_side() -> bool {
    enter(sides().map(|(_, server)| server))
}
