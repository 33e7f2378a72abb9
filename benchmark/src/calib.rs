//! How fast is the box right now?
//!
//! The reference box is a shared two-vCPU guest whose speed shifts by
//! a factor of up to 1.8 for minutes at a time while CPU time keeps
//! tracking wall time: the same campaign at the same seed takes 0.13 s,
//! 0.17 s or 0.25 s depending on the minute, so a bare wall-clock rate
//! says more about the neighbours than about the program. Every timed
//! step of the untraced pass is therefore bracketed by this fixed
//! calibration loop, and its time is scaled by how long the loop took
//! against [`NOMINAL_SECS`]: a reported second is a second of a box
//! that runs the loop at its nominal speed.
//!
//! The loop belongs to the benchmark, not to the program, so no change
//! to the program moves it. It is half dependent integer arithmetic and
//! half what the program's own loops are made of (data-dependent
//! branches, table reads, small allocations, an ordered map, number
//! formatting); over five minutes of one fixed deep-chain campaign that
//! mix cut the spread of ten-second medians from 13 % to 1.4 %, where
//! arithmetic alone left 7 % and the mixed half alone 4 %.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one calibration takes on the reference box in its usual
/// state, between two rounds (two halves of a little over 2 ms).
pub const NOMINAL_SECS: f64 = 0.0045;

const ALU_STEPS: u64 = 1_400_000;
const MIX_STEPS: u64 = 38_000;
/// 1 MiB of `u32`s: larger than L1, well inside L2.
const TABLE_LEN: usize = 1 << 18;

pub struct Calibrator {
    table: Vec<u32>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            table: (0..TABLE_LEN as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        }
    }

    /// Run the loop once; returns the seconds it took.
    pub fn secs(&self) -> f64 {
        let t = Instant::now();
        black_box(alu(black_box(ALU_STEPS)));
        black_box(mix(black_box(MIX_STEPS), &self.table));
        t.elapsed().as_secs_f64()
    }
}

/// The box's speed, as a multiple of the nominal speed (above 1 is a
/// faster box), from how long a calibration next to the step took; for
/// a long step, the mean of the one before and the one after. A step's
/// seconds times this are the seconds a nominal box would have taken.
pub fn speed(calibration_secs: f64) -> f64 {
    NOMINAL_SECS / calibration_secs
}

/// SplitMix64 finalizers in a dependent chain.
fn alu(steps: u64) -> u64 {
    let (mut z, mut acc) = (0x1234_5678u64, 0u64);
    for i in 0..steps {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z ^ i;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc = acc.wrapping_add(x ^ (x >> 31));
    }
    acc
}

/// A toy interpreter: each step reads the table and, on what it finds,
/// allocates into a map, looks the map up, reads the table again,
/// formats a number, or rotates the accumulator.
fn mix(steps: u64, table: &[u32]) -> u64 {
    let (mut z, mut acc) = (0x9876_5432u64, 0u64);
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for i in 0..steps {
        z = (z ^ (z >> 12))
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(i);
        let idx = (z >> 20) as usize % table.len();
        let v = u64::from(table[idx]);
        match v % 7 {
            0 => {
                let mut bytes = Vec::with_capacity(16 + (v % 48) as usize);
                bytes.extend_from_slice(&z.to_le_bytes());
                map.insert(z % 512, bytes);
            }
            1 | 2 => {
                if let Some(bytes) = map.get(&(z % 512)) {
                    acc = acc.wrapping_add(bytes.len() as u64 + u64::from(bytes[0]));
                }
            }
            3 => acc ^= u64::from(table[(idx + v as usize) % table.len()]),
            4 => acc = acc.wrapping_add(format!("{:x}", z & 0xffff).len() as u64),
            _ => acc = acc.rotate_left((v % 13) as u32) ^ z,
        }
    }
    acc.wrapping_add(map.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_does_the_same_work_every_time() {
        let cal = Calibrator::new();
        assert_eq!(alu(1000), alu(1000));
        assert_ne!(alu(1000), alu(1001));
        assert_eq!(mix(1000, &cal.table), mix(1000, &cal.table));
        assert_ne!(mix(1000, &cal.table), mix(2000, &cal.table));
    }

    #[test]
    fn the_speed_is_nominal_over_measured() {
        assert_eq!(speed(NOMINAL_SECS), 1.0);
        assert_eq!(speed(2.0 * NOMINAL_SECS), 0.5);
        assert!(Calibrator::new().secs() > 0.0);
    }
}
