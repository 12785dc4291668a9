//! Core rotation for single-threaded timed work.
//!
//! On a shared virtual machine the cores slow down independently of each
//! other: contention from other guests hits one core for tens of seconds
//! and moves on. A single-threaded run that stays on one core reports that
//! core's state, so runs differ by which core the scheduler happened to
//! pick. The timed units of a run therefore rotate over every core the
//! process may use, and `trace::core_balanced_fps` averages each slot's
//! cost over the cores.

use std::mem::size_of_val;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Mask words: room for 1024 cores.
const WORDS: usize = 16;

/// The cores the calling thread may run on.
pub struct Cores {
    allowed: [u64; WORDS],
    ids: Vec<usize>,
}

impl Cores {
    /// The calling thread's allowed cores; none when the query fails, in
    /// which case pinning does nothing.
    pub fn allowed() -> Cores {
        let mut allowed = [0u64; WORDS];
        // SAFETY: pid 0 names the calling thread, and the kernel writes at
        // most `size_of_val(&allowed)` bytes into this buffer, which we own.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) };
        let ids = if rc == 0 {
            (0..WORDS * 64)
                .filter(|&i| allowed[i / 64] >> (i % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Cores { allowed, ids }
    }

    fn set(&self, mask: &[u64; WORDS]) -> bool {
        // SAFETY: pid 0 names the calling thread, and the kernel reads
        // `size_of_val(mask)` bytes from a buffer borrowed across the call.
        unsafe { sched_setaffinity(0, size_of_val(mask), mask.as_ptr()) == 0 }
    }

    /// Pins the calling thread to the `k`-th allowed core (cyclically) and
    /// returns its id; 0 when the thread could not be pinned.
    pub fn pin(&self, k: usize) -> usize {
        let Some(&id) = self.ids.get(k % self.ids.len().max(1)) else {
            return 0;
        };
        let mut mask = [0u64; WORDS];
        mask[id / 64] = 1 << (id % 64);
        if self.set(&mask) {
            id
        } else {
            0
        }
    }

    /// Lets the calling thread, and threads it spawns later, use every
    /// allowed core again.
    pub fn release(&self) {
        if !self.ids.is_empty() {
            self.set(&self.allowed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_rotates_and_release_restores() {
        let cores = Cores::allowed();
        assert!(!cores.ids.is_empty(), "affinity query failed");
        for k in 0..cores.ids.len() * 2 {
            let want = cores.ids[k % cores.ids.len()];
            assert_eq!(cores.pin(k), want);
            assert_eq!(Cores::allowed().ids, vec![want]);
        }
        cores.release();
        assert_eq!(Cores::allowed().ids, cores.ids);
    }
}
