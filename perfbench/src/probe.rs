//! Timing of calls into the simulator's public functions, from the
//! outside. Off in timed runs (one branch per call); on in the traced
//! run, where each call is bracketed by two clock reads.

use std::time::Instant;

/// The public entry points a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Cluster::run_for` / `run_until`.
    Run,
    /// `Cluster::send_message`.
    Send,
    /// `Cluster::pop_message`.
    Pop,
    /// `Cluster::record_write` and `file_write`.
    Write,
    /// `Cluster::record_try_read`.
    Read,
    /// `Cluster::sock_send`.
    SockSend,
    /// `Cluster::sock_recv`.
    SockRecv,
    /// `Cluster::spawn_remote`.
    Spawn,
    /// `Cluster::collect_remote`.
    Collect,
    /// `MultiSegment::run_until`.
    PdesRun,
    /// `MultiSegment::send_global`.
    SendGlobal,
    /// `MultiSegment::pop_global`.
    PopGlobal,
}

const CALLS: usize = 12;

/// Per-call tallies: count and total host nanoseconds, plus every
/// sample for the step calls whose distribution is reported.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Calls timed.
    pub n: u64,
    /// Host nanoseconds inside them.
    pub total_ns: u64,
    /// Per-call samples (kept for [`Call::Run`] only).
    pub samples: Vec<u64>,
}

impl Tally {
    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.n as f64)
    }
}

/// Call timer for one run.
#[derive(Debug, Default)]
pub struct Probe {
    on: bool,
    tallies: [Tally; CALLS],
}

impl Probe {
    /// A probe that times nothing.
    pub fn off() -> Self {
        Probe::default()
    }

    /// A probe that times every call.
    pub fn on() -> Self {
        Probe {
            on: true,
            ..Probe::default()
        }
    }

    /// Whether calls are being timed.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f`, timing it as `call` when the probe is on.
    #[inline]
    pub fn time<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        let tally = &mut self.tallies[call as usize];
        tally.n += 1;
        tally.total_ns += ns;
        if call == Call::Run {
            tally.samples.push(ns);
        }
        r
    }

    /// The tally of one call.
    pub fn tally(&self, call: Call) -> &Tally {
        &self.tallies[call as usize]
    }
}
