//! Host-speed calibration.
//!
//! A shared host changes speed under the benchmark: other tenants take
//! cores, caches and memory bandwidth for seconds to minutes at a time,
//! and a run's raw throughput moves with them by up to half. The
//! calibrator is a fixed piece of work that shares no code with the
//! simulator: a miniature event loop (see `Lane`) that spends its time
//! the way the simulator does — queue operations, small allocations,
//! message queues and scattered table updates. It is timed right before
//! and right after every episode's window, so it sees the same host
//! regime as the window: once on one thread, for the speed of a core
//! in CPU time, and — for a multi-threaded workload — once more on as
//! many threads as the workload runs, side by side, for the wall time
//! the host grants that many threads at once. Host times are divided
//! by the matching slowdown against [`REFERENCE_S`]: they read as
//! seconds of the reference host, which a change to the simulator
//! moves and a change of host regime does not.

use crate::host;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// Events pending in the loop.
const HELD: u32 = 2048;
/// Message queues the events feed (one per simulated node).
const QUEUES: usize = 64;
/// Table slots (8 bytes each: 2 MiB per lane, which `peak_rss_mb`
/// includes).
const TABLE: usize = 1 << 18;
/// Events handled per calibration.
const STEPS: usize = 20_000;
/// Wall and CPU seconds one lane's calibration takes on the reference
/// host (the 2-vCPU Xeon this benchmark was written on, in its fast
/// regime). Only a scale: it makes calibrated single-threaded figures
/// read like raw ones there. Several lanes side by side take longer on
/// a host without that many free cores, so multi-threaded calibrated
/// figures read higher than raw ones.
pub const REFERENCE_S: f64 = 4.0e-3;

/// One lane's calibration state: a miniature event loop — a
/// binary-heap event queue whose handlers allocate a small message,
/// queue it at one node, take the oldest message off another and
/// update a slot of a table larger than the L2 cache. It frees every
/// message before it returns, so between calibrations it holds no
/// small allocations amid the simulator's.
struct Lane {
    events: BinaryHeap<Reverse<(u64, u32)>>,
    queues: Vec<VecDeque<Vec<u8>>>,
    table: Vec<u64>,
    x: u64,
}

impl Lane {
    fn new(seed: u64) -> Self {
        Lane {
            events: BinaryHeap::with_capacity(HELD as usize + 1),
            queues: (0..QUEUES).map(|_| VecDeque::new()).collect(),
            table: vec![0; TABLE],
            x: (seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    fn next(&mut self) -> u64 {
        // xorshift64
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    fn work(&mut self) -> u64 {
        self.events.clear();
        for id in 0..HELD {
            let t = self.next() >> 44;
            self.events.push(Reverse((t, id)));
        }
        let mut acc = 0u64;
        for _ in 0..STEPS {
            let Some(Reverse((t, id))) = self.events.pop() else {
                break;
            };
            let r = self.next();
            let len = 16 + (r as usize & 47);
            self.queues[id as usize % QUEUES].push_back(vec![r as u8; len]);
            if let Some(m) = self.queues[(r >> 8) as usize % QUEUES].pop_front() {
                acc = acc.wrapping_add(m.len() as u64);
            }
            let slot = (r >> 20) as usize % TABLE;
            self.table[slot] = self.table[slot].wrapping_add(t ^ acc);
            self.events.push(Reverse((t + (r & 0xfff), id)));
        }
        for q in &mut self.queues {
            q.clear();
        }
        black_box(acc)
    }
}

/// Calibrates on a fixed number of lanes: the first on the calling
/// thread — the core the workload's own thread runs on, whose speed can
/// differ from the other cores' — and the rest on helper threads that
/// live as long as the calibrator, so no calibration spawns a thread.
pub struct Calibrator {
    lane: Lane,
    helpers: Vec<Helper>,
}

/// A helper thread running its lane on request.
struct Helper {
    go: Option<mpsc::Sender<()>>,
    done: mpsc::Receiver<()>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Helper {
    fn new(seed: u64) -> Self {
        let (go, wait) = mpsc::channel::<()>();
        let (finished, done) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let mut lane = Lane::new(seed);
            while wait.recv().is_ok() {
                lane.work();
                if finished.send(()).is_err() {
                    break;
                }
            }
        });
        Helper {
            go: Some(go),
            done,
            thread: Some(thread),
        }
    }
}

/// One calibration's wall and process-CPU seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cal {
    /// Wall seconds until every lane, run side by side, finished.
    pub wall_s: f64,
    /// Process CPU seconds of one lane run alone.
    pub cpu_s: f64,
}

impl Cal {
    /// Mean of two calibrations.
    pub fn mean(a: Cal, b: Cal) -> Cal {
        Cal {
            wall_s: (a.wall_s + b.wall_s) / 2.0,
            cpu_s: (a.cpu_s + b.cpu_s) / 2.0,
        }
    }

    /// Host slowdown in wall time against the reference.
    pub fn wall_factor(&self) -> f64 {
        self.wall_s / REFERENCE_S
    }

    /// Core slowdown in CPU time against the reference.
    pub fn cpu_factor(&self) -> f64 {
        self.cpu_s / REFERENCE_S
    }
}

impl Calibrator {
    /// A calibrator running `threads` lanes side by side.
    pub fn new(threads: usize) -> Self {
        Calibrator {
            lane: Lane::new(0),
            helpers: (1..threads.max(1) as u64).map(Helper::new).collect(),
        }
    }

    /// Time one calibration: the calling thread's lane alone, then
    /// (with helpers) every lane side by side.
    pub fn measure(&mut self) -> Cal {
        let c0 = host::cpu_seconds();
        let t0 = Instant::now();
        self.lane.work();
        let mut cal = Cal {
            wall_s: host::secs(t0),
            cpu_s: host::cpu_seconds() - c0,
        };
        if !self.helpers.is_empty() {
            let t1 = Instant::now();
            for h in &self.helpers {
                h.go.as_ref().map(|g| g.send(()));
            }
            self.lane.work();
            for h in &self.helpers {
                let _ = h.done.recv();
            }
            cal.wall_s = host::secs(t1);
        }
        cal
    }
}

impl Drop for Calibrator {
    /// Stops every helper and waits until it has ended.
    fn drop(&mut self) {
        for h in &mut self.helpers {
            h.go = None;
            if let Some(t) = h.thread.take() {
                let _ = t.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrations_are_positive_and_helpers_stop() {
        for threads in [1, 2] {
            let mut c = Calibrator::new(threads);
            let a = c.measure();
            let b = c.measure();
            let m = Cal::mean(a, b);
            assert!(m.wall_factor() > 0.0 && m.wall_factor().is_finite());
            assert!(m.cpu_factor() > 0.0 && m.cpu_factor().is_finite());
            drop(c); // joins every helper thread
        }
    }
}
