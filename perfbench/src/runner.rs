//! The run loops shared by every workload.
//!
//! A timed run repeats *episodes* until `--seconds` have passed. An
//! episode builds and boots the system (the set-up sample), then
//! drives the workload's fixed, seed-derived schedule through it (the
//! timed window). Every episode of a run replays the same inputs, so
//! every one must produce the same simulated digest: a built-in
//! determinism check. Host figures are calibrated medians over
//! episodes (see [`crate::calib`]).
//!
//! The traced run is separate. It times episodes with tracing off and
//! on (the difference is the tracing overhead), reads the layer
//! counters from a traced episode, measures unit costs in isolation and
//! balances the layers against the measured busy time.

use crate::calib::{Cal, Calibrator};
use crate::host;
use crate::probe::Probe;
use crate::report::{Outcome, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile, ratio};
use crate::units;
use ampnet_packet::MicroPacket;
use std::time::Instant;

/// At least this many episodes in every timed run, so medians exist.
const MIN_EPISODES: usize = 3;

/// What one episode's timed window produced.
#[derive(Debug, Default, Clone)]
pub struct Episode {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused, shed or lost.
    pub failed: u64,
    /// Application messages delivered or service operations completed
    /// (the numerator of `msgs_per_s` and `cpu_us_per_msg`).
    pub msgs: u64,
    /// Simulated payload goodput.
    pub goodput_mbps: f64,
    /// Median simulated failure-to-ring-live time over roster episodes.
    pub reconverge_p50_us: f64,
    /// Digest of everything simulated.
    pub digest: u64,
    /// Simulation events processed in the window.
    pub events: u64,
    /// Output-check violations.
    pub problems: Vec<String>,
}

/// Counts from a traced episode that the ledger multiplies by the
/// isolated unit costs.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Simulation events.
    pub events: f64,
    /// Frames serialized into the arena (one per inserted frame).
    pub frames: f64,
    /// Frame hops (each parsed at the receiving node).
    pub hops: f64,
    /// Datagrams handed to `MsgTx::send`.
    pub msgs_sent: f64,
    /// Message fragments fed to `MsgRx::on_packet`.
    pub fragments: f64,
    /// Ring solves (one per roster episode).
    pub solves: f64,
    /// Worker threads the simulation work is spread over (1 = serial).
    pub share: f64,
    /// Coordinator-side rows measured per call: `(what, ns, count)`.
    pub calls: Vec<(&'static str, f64, f64)>,
}

/// One benchmark workload.
pub trait Bench {
    /// The booted system.
    type State;

    /// Build and boot: everything before the first timed step.
    fn setup(&self) -> Self::State;

    /// Switch on the simulator's own counters for a traced episode.
    fn enable_tracing(&self, st: &mut Self::State);

    /// Drive the schedule: the timed window.
    fn drive(&self, st: &mut Self::State, probe: &mut Probe) -> Episode;

    /// Per-layer values read from a traced episode's state, and the
    /// counts the ledger needs.
    fn layers(&self, st: &Self::State, ep: &Episode, probe: &Probe, out: &mut Values) -> Counts;

    /// The packets this workload puts on the wire, for the isolated
    /// packet and message-layer costs.
    fn packet_mix(&self) -> Vec<MicroPacket>;

    /// Message payload sizes this workload sends, for the isolated
    /// `MsgTx::send`/`MsgRx::on_packet` costs.
    fn message_sizes(&self) -> Vec<usize>;

    /// Threads the simulation runs on (the calibrator runs as many).
    fn threads(&self) -> usize {
        1
    }

    /// Plants whose largest ring the isolated solver timing uses.
    fn plants(&self, st: &Self::State) -> Vec<ampnet_core::Plant>;

    /// Workload-specific traced measurements (after the common ones).
    /// `digest` is the traced episode's, for cross-mode comparison.
    fn extra(
        &self,
        _untraced_s: f64,
        _digest: u64,
        _out: &mut Values,
        _problems: &mut Vec<String>,
    ) {
    }
}

/// One untraced episode's host figures.
struct Sample {
    setup_s: f64,
    window_s: f64,
    cpu_s: f64,
    /// Host speed right after set-up.
    setup_cal: Cal,
    /// Host speed around the window: calibrations just before and just
    /// after it, averaged.
    cal: Cal,
    ep: Episode,
}

/// Untraced episodes until `seconds` have passed (at least `min`).
fn timed_episodes<B: Bench>(b: &B, seconds: f64, min: usize) -> Vec<Sample> {
    let start = Instant::now();
    let mut cal = Calibrator::new(b.threads());
    cal.measure(); // fault the calibrator's pages in

    let mut out = Vec::new();
    while out.len() < min || host::secs(start) < seconds {
        let t0 = Instant::now();
        let mut st = b.setup();
        let setup_s = host::secs(t0);
        let before = cal.measure();
        let c0 = host::cpu_seconds();
        let t1 = Instant::now();
        let ep = b.drive(&mut st, &mut Probe::off());
        let window_s = host::secs(t1);
        let cpu_s = host::cpu_seconds() - c0;
        let after = cal.measure();
        drop(st);
        out.push(Sample {
            setup_s,
            window_s,
            cpu_s,
            setup_cal: before,
            cal: Cal::mean(before, after),
            ep,
        });
    }
    out
}

/// Checks every episode passed and all agree on the digest.
fn check_episodes(eps: &[Sample], problems: &mut Vec<String>) {
    for (i, s) in eps.iter().enumerate() {
        for p in &s.ep.problems {
            problems.push(format!("episode {i}: {p}"));
        }
    }
    if let Some(first) = eps.first().map(|s| &s.ep) {
        for (i, s) in eps.iter().enumerate().skip(1) {
            let ep = &s.ep;
            if ep.digest != first.digest || ep.msgs != first.msgs || ep.failed != first.failed {
                problems.push(format!(
                    "episode {i} diverged from episode 0 on identical inputs: digest {:#018x} vs {:#018x}",
                    ep.digest, first.digest
                ));
            }
        }
    }
}

/// A timed run: every end-to-end metric, tracing off.
///
/// Host times are calibrated (see [`crate::calib`]): each episode's
/// window, CPU time and set-up time are divided by the host slowdown
/// the calibrator measured around them, and the run reports the median
/// over episodes.
pub fn timed<B: Bench>(b: &B, seconds: f64) -> Outcome {
    let eps = timed_episodes(b, seconds, MIN_EPISODES);
    let mut out = Outcome::default();
    check_episodes(&eps, &mut out.problems);
    let msgs = |s: &Sample| s.ep.msgs as f64;
    let setups: Vec<f64> = eps
        .iter()
        .map(|s| s.setup_s / s.setup_cal.wall_factor())
        .collect();
    let rates: Vec<f64> = eps
        .iter()
        .map(|s| msgs(s) / (s.window_s / s.cal.wall_factor()))
        .collect();
    let cpu: Vec<f64> = eps
        .iter()
        .map(|s| ratio(s.cpu_s / s.cal.cpu_factor() * 1e6, msgs(s)))
        .collect();
    let raw_rates: Vec<f64> = eps.iter().map(|s| msgs(s) / s.window_s).collect();
    let slowdown: Vec<f64> = eps.iter().map(|s| s.cal.wall_factor()).collect();
    let first = &eps[0].ep;
    out.digest = first.digest;
    out.attempted = eps.iter().map(|s| s.ep.attempted).sum();
    out.failed = eps.iter().map(|s| s.ep.failed).sum();
    let v = &mut out.values;
    v.set("setup_s", median(&setups));
    v.set("msgs_per_s", median(&rates));
    v.set("cpu_us_per_msg", median(&cpu));
    v.set("peak_rss_mb", host::peak_rss_mb());
    v.set(
        "delivered_ppm",
        ratio(
            (first.attempted - first.failed) as f64 * 1e6,
            first.attempted as f64,
        ),
    );
    v.set("sim_goodput_mbps", first.goodput_mbps);
    v.set("sim_reconverge_p50_us", first.reconverge_p50_us);
    out.notes.push(format!(
        "episode msgs/s raw: min {:.0}  median {:.0}  max {:.0};  calibrated: p25 {:.0}  median {:.0}  p75 {:.0};  host slowdown: min {:.3}  median {:.3}  max {:.3}",
        quantile(&raw_rates, 0.0),
        median(&raw_rates),
        quantile(&raw_rates, 1.0),
        quantile(&rates, 0.25),
        median(&rates),
        quantile(&rates, 0.75),
        quantile(&slowdown, 0.0),
        median(&slowdown),
        quantile(&slowdown, 1.0),
    ));
    out.notes.push(format!(
        "episodes {}  digest {:#018x}  msgs/episode {}  attempted/episode {}  failed/episode {}",
        eps.len(),
        first.digest,
        first.msgs,
        first.attempted,
        first.failed
    ));
    check_catalogue(&out.values, END_TO_END, &mut out.problems);
    out
}

/// The traced run: every per-layer metric.
pub fn traced<B: Bench>(b: &B, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    // 1. Untraced reference episodes (allocations counted on one).
    let plain = timed_episodes(b, seconds / 3.0, 2);
    check_episodes(&plain, &mut out.problems);
    let untraced_s = median(&plain.iter().map(|s| s.window_s).collect::<Vec<_>>());
    let mut st = b.setup();
    let (ep, allocs) = crate::alloc::count(|| b.drive(&mut st, &mut Probe::off()));
    drop(st);
    if ep.digest != plain[0].ep.digest {
        out.problems
            .push("counting allocations changed the simulation".into());
    }

    // 2. Traced episodes: simulator counters on, calls timed.
    let start = Instant::now();
    let mut traced_windows = Vec::new();
    let mut last = None;
    while traced_windows.len() < 2 || host::secs(start) < seconds / 3.0 {
        let mut st = b.setup();
        b.enable_tracing(&mut st);
        let mut probe = Probe::on();
        let t = Instant::now();
        let tep = b.drive(&mut st, &mut probe);
        traced_windows.push(host::secs(t));
        if tep.digest != ep.digest {
            out.problems.push(format!(
                "tracing changed the simulation: digest {:#018x} vs {:#018x}",
                tep.digest, ep.digest
            ));
        }
        out.problems.extend(tep.problems.iter().cloned());
        last = Some((st, tep, probe));
    }
    let traced_s = median(&traced_windows);
    let (st, tep, probe) = last.expect("at least one traced episode");
    let v = &mut out.values;
    let counts = b.layers(&st, &tep, &probe, v);
    v.set("alloc.per_msg", ratio(allocs as f64, ep.msgs as f64));
    v.set(
        "sim.events_per_msg",
        ratio(tep.events as f64, tep.msgs as f64),
    );
    v.set(
        "sim.host_ns_per_event",
        ratio(untraced_s * 1e9, tep.events as f64),
    );
    v.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);

    for (name, what) in [
        ("ring.would_drop", "MACs would have dropped frames"),
        ("dk.lost_updates", "failover lost committed updates"),
    ] {
        if v.get(name) != 0.0 {
            out.problems
                .push(format!("{what}: {name} = {}", v.get(name)));
        }
    }

    // 3. Unit costs in isolation.
    let mix = b.packet_mix();
    let mut unit = Values::default();
    unit.set("sim.queue_ns_per_op", units::queue_ns_per_op());
    unit.set("packet.encode_ns", units::encode_ns(&mix));
    unit.set("packet.parse_ns", units::parse_ns(&mix));
    let (tx, rx) = units::msg_ns(&b.message_sizes());
    unit.set("services.msgtx_ns", tx);
    unit.set("services.msgrx_ns", rx);
    unit.set("topo.solve_us", units::solve_us(&b.plants(&st)));
    drop(st);
    for (name, val) in unit.entries() {
        v.set(name, val);
    }

    // 4. Workload-specific extras (the serial PDES leg).
    b.extra(untraced_s, tep.digest, v, &mut out.problems);

    // 5. The ledger: busy time against the sum of unit cost × count.
    let ledger = ledger_rows(&counts, &unit);
    let mut explained_ns = 0.0;
    out.notes.push(format!(
        "ledger (busy {:.3} ms per episode, untraced median):",
        untraced_s * 1e3
    ));
    for (what, ns, count) in &ledger {
        let total = ns * count;
        explained_ns += total;
        out.notes.push(format!(
            "  {what:<28} {ns:>10.1} ns x {count:>12.0} = {:>9.3} ms ({:>5.1}%)",
            total / 1e6,
            total / (untraced_s * 1e9) * 100.0
        ));
    }
    v.set(
        "ledger.unexplained_pct",
        (1.0 - explained_ns / (untraced_s * 1e9)) * 100.0,
    );
    out.digest = tep.digest;
    out.attempted = tep.attempted;
    out.failed = tep.failed;
    check_catalogue(&out.values, PER_LAYER, &mut out.problems);
    out
}

/// `(what, unit ns, count)` rows: isolated unit cost times traced
/// count, simulation work divided over the worker threads.
fn ledger_rows(c: &Counts, unit: &Values) -> Vec<(&'static str, f64, f64)> {
    let share = c.share.max(1.0);
    let mut rows = vec![
        (
            "sim: EventQueue op",
            unit.get("sim.queue_ns_per_op"),
            2.0 * c.events / share,
        ),
        (
            "packet: FrameArena::insert",
            unit.get("packet.encode_ns"),
            c.frames / share,
        ),
        (
            "packet: FrameView::parse",
            unit.get("packet.parse_ns"),
            c.hops / share,
        ),
        (
            "services: MsgTx::send",
            unit.get("services.msgtx_ns"),
            c.msgs_sent / share,
        ),
        (
            "services: MsgRx::on_packet",
            unit.get("services.msgrx_ns"),
            c.fragments / share,
        ),
        (
            "topo: largest_ring",
            unit.get("topo.solve_us") * 1e3,
            c.solves / share,
        ),
    ];
    rows.extend(c.calls.iter().cloned());
    rows
}

/// Every metric of the catalogue must be a finite number.
fn check_catalogue(v: &Values, cat: &[(&str, &str)], problems: &mut Vec<String>) {
    for (name, _) in cat {
        if !v.get(name).is_finite() {
            problems.push(format!("metric {name} is not a finite number"));
        }
    }
}
