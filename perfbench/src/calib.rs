//! Floors that move nothing: the cost of the primitives the threaded hot
//! path is built from. Each bounds what the matching suspect in the
//! threaded executor can save — relaxing `SeqCst` loads can save at most
//! `calib.load_seqcst_ns − calib.load_acquire_ns` per load, and removing a
//! clock read at most `calib.now_ns`.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use pim_stm::threaded::wall_clock_nanos;

use crate::{median_time, Outcome};

const OPS: u64 = 2_000_000;
const REPS: usize = 5;

/// Median nanoseconds per call of `op`, over `REPS` loops of `OPS` calls.
fn ns_per_op(mut op: impl FnMut(u64) -> u64) -> f64 {
    let mut sink = 0u64;
    let seconds = median_time(REPS, || {
        for i in 0..OPS {
            sink = sink.wrapping_add(op(black_box(i)));
        }
    });
    black_box(sink);
    seconds * 1e9 / OPS as f64
}

pub fn measure(outcome: &mut Outcome) {
    let cell = AtomicU64::new(1);
    let cell = black_box(&cell);
    outcome.layer("calib.load_seqcst_ns", ns_per_op(|_| cell.load(Ordering::SeqCst)));
    outcome.layer("calib.load_acquire_ns", ns_per_op(|_| cell.load(Ordering::Acquire)));
    outcome.layer(
        "calib.cas_ns",
        ns_per_op(|i| match cell.compare_exchange(i, i + 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(v) | Err(v) => v,
        }),
    );
    outcome.layer("calib.now_ns", ns_per_op(|_| wall_clock_nanos()));
}
