//! Calibrated seconds: a host timing divided by how fast the host was
//! while it was taken.
//!
//! The sandbox's CPU is a hardware thread of a core it shares with
//! strangers. When the sibling thread is busy the program gets half to two
//! thirds of the core's execution units, for milliseconds or minutes at a
//! time, and runs 10–50 % slower with the CPU never taken away. A fixed
//! loop that is bound by the same execution units slows by the same factor,
//! so `time × SLICE_REF_S / loop_time` cancels it, provided the loop is
//! timed *while* the measured code runs: the factor changes faster than a
//! rep lasts. A sampler thread therefore runs one short slice of the loop
//! every [`PERIOD`], all through the run, and an interval is calibrated by
//! the mean of the slices that ran inside it.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::host::thread_cpu_s;

/// Iterations of one slice. Constant forever, like the loop body: changing
/// either redefines every calibrated second in `history.jsonl`.
pub const SLICE_ITERS: u64 = 250_000;

/// The sampler sleeps this long between slices: about 1 % of the CPU, and
/// eight slices inside the shortest rep (Water's 0.4 s).
pub const PERIOD: Duration = Duration::from_millis(50);

/// How long a slice took on the machine that defined the benchmark with its
/// core to itself, so a calibrated second there is a raw second of a quiet
/// host. Chosen once; see README.md.
pub const SLICE_REF_S: f64 = 0.00058;

/// A rep in which the process had the CPU for less than this share of the
/// call is disturbed: the host ran something else in between.
pub const UNDISTURBED_OCCUPANCY: f64 = 0.95;

/// The fixed work: four independent chains of shifts and xors. Four, so
/// that the loop is bound by the core's execution units as the program is
/// (a single dependent chain leaves most of them idle and does not notice a
/// busy sibling thread). It touches no memory and cannot be folded; each
/// chain has shift counts of its own, which keeps the compiler from packing
/// two chains into one vector register and halving the work issued.
fn fixed_slice() -> u64 {
    let [mut a, mut b, mut c, mut d]: [u64; 4] = black_box([1, 2, 3, 4]);
    for _ in 0..SLICE_ITERS {
        a ^= a << 13;
        a ^= a >> 7;
        a ^= a << 17;
        b ^= b << 11;
        b ^= b >> 5;
        b ^= b << 19;
        c ^= c << 9;
        c ^= c >> 3;
        c ^= c << 21;
        d ^= d << 15;
        d ^= d >> 1;
        d ^= d << 23;
    }
    black_box(a ^ b ^ c ^ d)
}

/// Run one slice; the CPU seconds it took. CPU seconds, so that a slice the
/// scheduler interrupts reads no longer than one it does not.
pub fn slice_s() -> f64 {
    let t = thread_cpu_s();
    fixed_slice();
    thread_cpu_s() - t
}

/// The slices taken so far: when each ended and how long it took.
type Slices = Arc<Mutex<Vec<(Instant, f64)>>>;

/// The thread that takes a slice every [`PERIOD`] until dropped. It is
/// spawned by the pinned harness thread and inherits its one CPU.
pub struct Sampler {
    slices: Slices,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Take a first slice, then start sampling.
    pub fn start() -> Sampler {
        let slices: Slices = Arc::new(Mutex::new(vec![(Instant::now(), slice_s())]));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (slices, stop) = (Arc::clone(&slices), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    let s = slice_s();
                    slices.lock().expect("no holder panics").push((Instant::now(), s));
                }
            })
        };
        Sampler { slices, stop, thread: Some(thread) }
    }

    /// Mean time of the slices that ran between `from` and `to`, with the
    /// two periods before `from` so that the shortest interval holds one.
    /// `None` if the sampler did not get to run: such an interval cannot be
    /// calibrated and must not be reported.
    pub fn mean_between(&self, from: Instant, to: Instant) -> Option<f64> {
        let from = from.checked_sub(2 * PERIOD).unwrap_or(from);
        let slices = self.slices.lock().expect("no holder panics");
        let inside: Vec<f64> =
            slices.iter().filter(|(at, _)| (from..=to).contains(at)).map(|(_, s)| *s).collect();
        (!inside.is_empty()).then(|| inside.iter().sum::<f64>() / inside.len() as f64)
    }

    /// Every slice time of the run so far.
    pub fn all(&self) -> Vec<f64> {
        self.slices.lock().expect("no holder panics").iter().map(|(_, s)| *s).collect()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The sampler's body cannot panic short of a failed clock read,
            // which has already been reported on standard error.
            let _ = thread.join();
        }
    }
}

/// `seconds` the program ran, in calibrated seconds, given the mean slice
/// time while it ran.
pub fn normalise(seconds: f64, slice_s: f64) -> f64 {
    seconds * SLICE_REF_S / slice_s
}

/// The share of `wall_s` in which a pinned process that consumed `cpu_s`
/// of CPU actually ran. Clock granularity can put the ratio a hair above
/// one; a process confined to one CPU cannot have run more than all of the
/// time.
pub fn occupancy(cpu_s: f64, wall_s: f64) -> f64 {
    (cpu_s / wall_s).min(1.0)
}
