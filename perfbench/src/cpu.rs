//! Which CPU the benchmark's own thread starts a measurement on.
//!
//! The vCPUs of a shared VM need not run at the same speed: on the 2-vCPU
//! VM this benchmark was tuned on, one vCPU ran the same single-thread
//! set-up 1.7–2.5 times slower than the other. A thread tends to stay on
//! the CPU it started on, so which vCPU a run happened to land on would
//! decide its figures. Repeated measurements therefore start on each
//! allowed CPU in turn, and the caller keeps the fastest CPU's figure.
//! The restriction is lifted as soon as the thread has moved, so every
//! thread or process it starts afterwards (assist helpers, the batch
//! pool, the daemon) may run on any CPU, as it would without the
//! benchmark.

/// Bytes of a `cpu_set_t`: 1024 CPUs.
const SET_BYTES: usize = 128;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// The CPUs the calling thread may run on, from its affinity mask at
/// start-up.
#[derive(Debug, Clone)]
pub struct Cpus {
    mask: [u8; SET_BYTES],
    ids: Vec<usize>,
}

impl Cpus {
    /// The calling thread's current affinity (CPU 0 alone when it cannot
    /// be read: then [`Cpus::start_on`] does nothing).
    pub fn allowed() -> Cpus {
        let mut mask = [0u8; SET_BYTES];
        #[cfg(target_os = "linux")]
        // SAFETY: `mask` is a writable buffer of the size passed.
        let ok = unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) } == 0;
        #[cfg(not(target_os = "linux"))]
        let ok = false;
        let ids: Vec<usize> = (0..SET_BYTES * 8)
            .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
            .collect();
        if !ok || ids.is_empty() {
            return Cpus {
                mask,
                ids: vec![0],
            };
        }
        Cpus { mask, ids }
    }

    /// The CPU turn `i` starts on.
    pub fn turn(&self, i: usize) -> usize {
        self.ids[i % self.ids.len()]
    }

    /// Moves the calling thread onto the CPU of turn `i`, then allows it
    /// every CPU again; the thread stays where it was moved until the
    /// scheduler has a reason to move it. Best effort: a refused call
    /// leaves the thread where it was.
    pub fn start_on(&self, i: usize) {
        if self.ids.len() < 2 {
            return;
        }
        let cpu = self.turn(i);
        let mut one = [0u8; SET_BYTES];
        one[cpu / 8] |= 1 << (cpu % 8);
        #[cfg(target_os = "linux")]
        // SAFETY: both masks are readable buffers of the size passed; pid
        // 0 is the calling thread.
        unsafe {
            if sched_setaffinity(0, SET_BYTES, one.as_ptr()) == 0 {
                sched_setaffinity(0, SET_BYTES, self.mask.as_ptr());
            }
        }
    }

    /// The fastest CPU's figure: for each CPU, the median of the samples
    /// taken in its turns (`samples[i]` in turn `i`); the smallest of those
    /// medians. `None` for no samples.
    pub fn fastest_median(&self, samples: &[f64]) -> Option<f64> {
        (0..self.ids.len().min(samples.len()))
            .filter_map(|first| {
                let own: Vec<f64> = samples
                    .iter()
                    .skip(first)
                    .step_by(self.ids.len())
                    .copied()
                    .collect();
                crate::stats::median(&own)
            })
            .min_by(f64::total_cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two() -> Cpus {
        Cpus {
            mask: [0b11; SET_BYTES],
            ids: vec![0, 1],
        }
    }

    #[test]
    fn turns_alternate_over_the_allowed_cpus() {
        let cpus = Cpus {
            mask: [0; SET_BYTES],
            ids: vec![4, 5],
        };
        assert_eq!(
            (0..4).map(|i| cpus.turn(i)).collect::<Vec<_>>(),
            [4, 5, 4, 5]
        );
    }

    #[test]
    fn the_fastest_cpus_median_is_kept() {
        // Turns alternate: CPU 0 saw 1, 3, 2 (median 2), CPU 1 saw 9, 8.
        assert_eq!(two().fastest_median(&[1.0, 9.0, 3.0, 8.0, 2.0]), Some(2.0));
        assert_eq!(two().fastest_median(&[5.0]), Some(5.0));
        assert_eq!(two().fastest_median(&[]), None);
    }

    #[test]
    fn the_calling_thread_keeps_every_cpu_after_a_turn() {
        let cpus = Cpus::allowed();
        cpus.start_on(1);
        let after = Cpus::allowed();
        assert_eq!(after.ids, cpus.ids);
    }
}
