//! Host-speed calibration: a fixed kernel whose run time tracks how fast
//! the host runs the benchmark's kind of work at the moment.
//!
//! The VM the benchmark was tuned on changes speed by up to 1.8× over
//! minutes to hours, with no steal time visible to the guest, and every
//! workload moves with it. The kernel imitates their mix (intern small
//! integer sets through a hash map, sort packed keys, write and parse
//! decimal text) over a working set of tens of MB, well beyond the
//! last-level cache. Across a 1.8× slowdown its time moved with each
//! workload's within about 5%. It uses none of the repository's code, so
//! a change to the program never moves it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::gen::XorShift;

/// Sets drawn and interned per run.
const DRAWS: usize = 1_000_000;

/// Run the kernel once; returns its wall time in seconds.
pub fn kernel() -> f64 {
    let start = Instant::now();
    let mut rng = XorShift::new(0x9E37_79B9_7F4A_7C15);
    let pool: Vec<Vec<u32>> = (0..DRAWS / 2)
        .map(|_| {
            let len = 1 + (rng.next() % 16) as usize;
            (0..len).map(|_| (rng.next() % 50_000) as u32).collect()
        })
        .collect();
    let mut intern: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut ids = Vec::with_capacity(DRAWS);
    for _ in 0..DRAWS {
        let set = &pool[(rng.next() % pool.len() as u64) as usize];
        let next = intern.len() as u32;
        ids.push(*intern.entry(set.clone()).or_insert(next));
    }
    let mut keys: Vec<u64> = ids
        .iter()
        .map(|&id| u64::from(id) << 32 | (rng.next() & 0xffff_ffff))
        .collect();
    keys.sort_unstable();
    let mut text = String::new();
    for k in keys.iter().step_by(3) {
        text.push_str(&k.to_string());
        text.push(',');
    }
    let folded = text
        .split(',')
        .filter_map(|t| t.parse::<u64>().ok())
        .fold(0u64, |a, b| a ^ b);
    black_box((folded, intern.len()));
    start.elapsed().as_secs_f64()
}
