//! The repository benchmark for the AmpNet simulator.
//!
//! `cargo run --release -- --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload in this process and prints, as its
//! last line, one JSON object: whether the outputs passed their
//! checks, operations attempted and failed, and every metric by name
//! with its unit — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `README.md`.

pub mod a2a;
pub mod alloc;
pub mod calib;
pub mod churn;
pub mod common;
pub mod host;
pub mod pdes;
pub mod probe;
pub mod report;
pub mod runner;
pub mod stats;
pub mod units;

use report::Outcome;

/// Workload size: the benchmark's own, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The published workload.
    Full,
    /// A few steps of it, for the self-test.
    Tiny,
}

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["a2a-small", "pdes-storm", "services-churn"];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced (per-layer) run instead of a timed one.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
}

/// Run one workload; `None` for an unknown workload name.
pub fn run(o: &Opts) -> Option<Outcome> {
    let tiny = o.size == Size::Tiny;
    Some(match o.workload.as_str() {
        "a2a-small" => go(&a2a::A2a::new(o.seed, if tiny { 20 } else { 2000 }), o),
        "pdes-storm" => go(
            &pdes::Pdes::new(o.seed, if tiny { 2 } else { 12 }, pdes_threads()),
            o,
        ),
        "services-churn" => go(&churn::Churn::new(o.seed, if tiny { 1 } else { 3 }), o),
        _ => return None,
    })
}

fn go<B: runner::Bench>(b: &B, o: &Opts) -> Outcome {
    if o.trace {
        runner::traced(b, o.seconds)
    } else {
        runner::timed(b, o.seconds)
    }
}

/// Worker threads `pdes-storm` runs with: one per core, at most one per
/// segment. `MultiSegment` clamps its pool to the segment count, so
/// this is the count the engine is granted, never more than the host
/// has.
pub fn pdes_threads() -> usize {
    host::nproc().min(pdes::SEGMENTS as usize)
}
