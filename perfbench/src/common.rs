//! Pieces every workload shares: seeded plant draws, roster figures
//! and the reading of the simulator's own counters.

use crate::report::Values;
use crate::runner::{Counts, Episode};
use crate::stats::{median, ratio};
use ampnet_core::{Cluster, MetricsSnapshot, RosterEvent, RosterReason, SimDuration};
use ampnet_packet::BROADCAST;
use ampnet_sim::SimRng;
use ampnet_telemetry::SnapValue;
use std::collections::{BTreeMap, VecDeque};

/// Fiber run of every node–switch link, drawn from the seed in
/// [95, 105) m: the plant is one of the seeded inputs, so seeds differ
/// in ring-tour time as real installations do.
pub fn fiber_m(rng: &mut SimRng) -> f64 {
    95.0 + 10.0 * rng.f64()
}

/// Run until the boot roster episode brings the ring up.
pub fn boot(c: &mut Cluster) {
    for _ in 0..500 {
        if c.ring_up() {
            return;
        }
        c.run_for(SimDuration::from_micros(100));
    }
}

/// Median simulated failure-to-ring-live time over roster episodes,
/// boot included (power-on to ring live), in µs.
pub fn reconverge_p50_us(history: &[RosterEvent]) -> f64 {
    let t: Vec<f64> = history
        .iter()
        .map(|e| e.outcome.recovery_time().as_micros_f64())
        .collect();
    median(&t)
}

/// Roster-protocol figures over every episode, boot included.
pub fn roster_layers(history: &[RosterEvent], out: &mut Values) {
    let col = |f: &dyn Fn(&RosterEvent) -> f64| -> Vec<f64> { history.iter().map(f).collect() };
    out.set("roster.episodes", history.len() as f64);
    out.set(
        "roster.detect_us",
        median(&col(&|e| e.outcome.detect_time.as_micros_f64())),
    );
    out.set(
        "roster.explore_us",
        median(&col(&|e| e.outcome.explore_time.as_micros_f64())),
    );
    out.set(
        "roster.commit_us",
        median(&col(&|e| e.outcome.commit_time.as_micros_f64())),
    );
    out.set(
        "roster.tours_per_episode",
        median(&col(&|e| e.outcome.recovery_in_tours())),
    );
    out.set(
        "roster.failed_probes",
        history.iter().map(|e| e.outcome.failed_probes).sum::<u64>() as f64,
    );
}

fn gauges<'a>(snap: &'a MetricsSnapshot, name: &'a str) -> impl Iterator<Item = i64> + 'a {
    snap.entries
        .iter()
        .filter(move |e| e.def.name == name)
        .map(|e| match e.value {
            SnapValue::Gauge(g) => g,
            _ => 0,
        })
}

/// Largest value of a per-node gauge.
pub fn gauge_max(snap: &MetricsSnapshot, name: &str) -> f64 {
    gauges(snap, name).max().unwrap_or(0) as f64
}

/// Sum of a per-node gauge.
pub fn gauge_sum(snap: &MetricsSnapshot, name: &str) -> f64 {
    gauges(snap, name).sum::<i64>() as f64
}

/// Counter total across nodes.
pub fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counter_total(name) as f64
}

/// Ring, transport and cache figures from a cluster-wide snapshot.
/// `highwater` is the largest transit-register high-water mark.
pub fn snapshot_layers(snap: &MetricsSnapshot, highwater: f64, out: &mut Values) {
    let inserted = counter(snap, "mac_inserted");
    let forwarded = counter(snap, "mac_forwarded");
    out.set("ring.hops_per_frame", ratio(inserted + forwarded, inserted));
    out.set("ring.transit_highwater_bytes", highwater);
    out.set("ring.backoffs", gauge_sum(snap, "mac_backoffs"));
    out.set("ring.would_drop", gauge_sum(snap, "mac_would_drop"));
    out.set(
        "core.replays",
        counter(snap, "transport_replayed_broadcasts")
            + counter(snap, "transport_replayed_unicasts"),
    );
    out.set(
        "core.stale_frames_released",
        counter(snap, "transport_stale_frames_released"),
    );
    out.set(
        "services.fragments_per_msg",
        ratio(
            counter(snap, "services_msg_fragments"),
            counter(snap, "services_msgs_sent"),
        ),
    );
    out.set("cache.atomics", counter(snap, "cache_atomics_executed"));
}

/// Ledger counts of one single-threaded cluster episode; `history`
/// gives the ring solves run inside the window (every episode after
/// boot).
pub fn cluster_counts(snap: &MetricsSnapshot, ep: &Episode, history: &[RosterEvent]) -> Counts {
    let frames = counter(snap, "mac_inserted");
    Counts {
        events: ep.events as f64,
        frames,
        hops: frames + counter(snap, "mac_forwarded"),
        msgs_sent: counter(snap, "services_msgs_sent"),
        fragments: counter(snap, "services_msg_fragments"),
        solves: history
            .iter()
            .filter(|e| e.reason != RosterReason::Boot)
            .count() as f64,
        share: 1.0,
        calls: Vec::new(),
    }
}

/// Per-call run-step figures from the probe's samples.
pub fn run_layers(probe: &crate::probe::Probe, out: &mut Values) {
    let t = probe.tally(crate::probe::Call::Run);
    let us: Vec<f64> = t.samples.iter().map(|&ns| ns as f64 / 1e3).collect();
    out.set("core.run_busy_s", t.total_ns as f64 / 1e9);
    out.set("core.run_p50_us", crate::stats::quantile(&us, 0.5));
    out.set("core.run_p99_us", crate::stats::quantile(&us, 0.99));
}

/// A MAC event read back from the flight recorder's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mac {
    /// Own frame inserted: destination (255 = broadcast).
    Insert(u8),
    /// Frame delivered to the host: source.
    Deliver(u8),
    /// Own frame stripped after a full tour.
    Strip,
    /// Ring went down (a roster episode began).
    RingDown,
}

/// `(sim ns, node, event)` for every MAC event of a flight dump, in
/// time order, and the number of events lost to wraparound.
pub fn flight_events(dump: &str) -> (Vec<(u64, u8, Mac)>, u64) {
    let mut lines = dump.lines();
    let dropped = lines
        .next()
        .and_then(|h| h.split(", ").nth(1))
        .and_then(|d| d.split_whitespace().next())
        .and_then(|d| d.parse().ok())
        .unwrap_or(0);
    let mut out = Vec::new();
    for line in lines {
        let Some((at, rest)) = line.trim_start_matches('[').split_once(" ns] node ") else {
            continue;
        };
        let t: Vec<&str> = rest.split_whitespace().collect();
        let (Ok(at), Some(node)) = (at.trim().parse::<u64>(), t.first()) else {
            continue;
        };
        let node = node.parse::<u8>().unwrap_or(u8::MAX);
        let arg = || t.get(5).and_then(|a| a.parse::<u8>().ok());
        let ev = match (t.get(2).copied(), t.get(3).copied()) {
            (Some("insert"), Some("->")) => arg().map(Mac::Insert),
            (Some("deliver"), Some("<-")) => arg().map(Mac::Deliver),
            (Some("strip"), _) => Some(Mac::Strip),
            (Some("ring"), Some("down,")) => Some(Mac::RingDown),
            _ => None,
        };
        if let Some(ev) = ev {
            out.push((at, node, ev));
        }
    }
    (out, dropped)
}

/// Simulated ring-tour samples in ns: insert to strip for broadcast
/// frames, and — when `unicast` — insert to delivery for unicast
/// frames (removed at their destination). Frames are paired first in,
/// first out per source (and destination); pairing restarts when the
/// ring goes down, since a roster episode releases or replays frames.
pub fn tour_samples(events: &[(u64, u8, Mac)], unicast: bool) -> Vec<f64> {
    let mut bcast: BTreeMap<u8, VecDeque<u64>> = BTreeMap::new();
    let mut ucast: BTreeMap<(u8, u8), VecDeque<u64>> = BTreeMap::new();
    let mut out = Vec::new();
    for &(at, node, ev) in events {
        match ev {
            Mac::RingDown => {
                bcast.clear();
                ucast.clear();
            }
            Mac::Insert(BROADCAST) => bcast.entry(node).or_default().push_back(at),
            Mac::Insert(dst) => ucast.entry((node, dst)).or_default().push_back(at),
            Mac::Strip => {
                if let Some(t) = bcast.get_mut(&node).and_then(VecDeque::pop_front) {
                    out.push((at - t) as f64);
                }
            }
            Mac::Deliver(src) if unicast => {
                if let Some(t) = ucast.get_mut(&(src, node)).and_then(VecDeque::pop_front) {
                    out.push((at - t) as f64);
                }
            }
            Mac::Deliver(_) => {}
        }
    }
    out
}

/// Medium-access wait samples in ns: from each send call's simulated
/// instant to its frame's insertion, paired first in, first out per
/// `(src, dst)`. Valid when every send is one single-frame unicast.
pub fn access_samples(events: &[(u64, u8, Mac)], sends: &[(u64, u8, u8)]) -> Vec<f64> {
    let mut queued: BTreeMap<(u8, u8), VecDeque<u64>> = BTreeMap::new();
    for &(at, s, d) in sends {
        queued.entry((s, d)).or_default().push_back(at);
    }
    let mut out = Vec::new();
    for &(at, node, ev) in events {
        if let Mac::Insert(dst) = ev {
            if let Some(t) = queued.get_mut(&(node, dst)).and_then(VecDeque::pop_front) {
                out.push(at.saturating_sub(t) as f64);
            }
        }
    }
    out
}

/// Set the ring tour and access-wait percentiles from samples.
pub fn set_ring_latency(tours: &[f64], access: &[f64], out: &mut Values) {
    use crate::stats::quantile;
    out.set("ring.tour_p50_ns", quantile(tours, 0.5));
    out.set("ring.tour_p99_ns", quantile(tours, 0.99));
    out.set("ring.access_wait_p50_ns", quantile(access, 0.5));
    out.set("ring.access_wait_p99_ns", quantile(access, 0.99));
}
