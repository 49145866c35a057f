//! The stage kernel, seeded payloads and the single-threaded reference.
//!
//! Stage work is a fixed number of 64-bit mix rounds, not a timed spin:
//! the work is identical on every commit and the output is checkable.
//! Round counts are frozen in [`crate::plan`]; at roughly 2.9 ns per
//! round on the sizing host, 350 / 1 750 / 7 000 rounds are the ~1 / 5 /
//! 20 µs stages the workloads are named for.

/// Distinguishes stage 2's input from stage 1's output so swapping the
/// stages changes the checksum.
const STAGE2_SALT: u64 = 0xA076_1D64_78BD_642F;

/// `rounds` serially dependent multiply-xor-rotate rounds.
#[inline(never)]
pub fn mix(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = x.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15;
    }
    x
}

/// What stage 2 computes from stage 1's output.
#[inline]
pub fn stage2(x: u64, rounds: u32) -> u64 {
    mix(x ^ STAGE2_SALT, rounds)
}

/// SplitMix64: the seed feeds payloads (and, via `ArrivalSchedule`,
/// arrival times) and nothing else.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `jobs` payloads for repetition `rep` of a run seeded with `seed`.
pub fn payloads(seed: u64, rep: u64, jobs: usize) -> Vec<u64> {
    let mut rng = SplitMix::new(seed ^ rep.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    (0..jobs).map(|_| rng.next_u64()).collect()
}

/// What the sink adds to its checksum for one payload.
pub fn job_result(payload: u64, rounds1: u32, rounds2: u32) -> u64 {
    stage2(mix(payload, rounds1), rounds2)
}

/// The expected sink checksum: every job run through both stages in a
/// plain loop on the calling thread. Doubles as the inline baseline
/// (`apps.inline_cpu_us_per_job`).
pub fn reference_checksum(payloads: &[u64], rounds1: u32, rounds2: u32) -> u64 {
    payloads.iter().fold(0u64, |sum, &p| {
        sum.wrapping_add(job_result(p, rounds1, rounds2))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_payloads_and_reps_differ() {
        assert_eq!(payloads(7, 0, 16), payloads(7, 0, 16));
        assert_ne!(payloads(7, 0, 16), payloads(7, 1, 16));
        assert_ne!(payloads(7, 0, 16), payloads(8, 0, 16));
    }

    #[test]
    fn checksum_is_order_independent_and_stage_sensitive() {
        let mut p = payloads(1, 0, 64);
        let forward = reference_checksum(&p, 5, 9);
        p.reverse();
        assert_eq!(forward, reference_checksum(&p, 5, 9));
        assert_ne!(forward, reference_checksum(&p, 9, 5));
        assert_ne!(mix(1, 3), mix(1, 4));
    }
}
