//! Metric catalogues and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares;
//! the self-test checks that the two agree.

use std::collections::BTreeMap;

/// End-to-end metrics (timed runs, tracing off): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("msgs_per_s", "1/s"),
    ("cpu_us_per_msg", "us"),
    ("peak_rss_mb", "MiB"),
    ("delivered_ppm", "ppm"),
    ("sim_goodput_mbps", "Mbit/s"),
    ("sim_reconverge_p50_us", "us"),
];

/// Per-layer metrics (traced run): name and unit. A layer the
/// workload does not call reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events_per_msg", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.queue_ns_per_op", "ns"),
    ("packet.encode_ns", "ns"),
    ("packet.parse_ns", "ns"),
    ("packet.arena_reuse_ratio", "ratio"),
    ("alloc.per_msg", "count"),
    ("services.send_ns", "ns"),
    ("services.pop_ns", "ns"),
    ("services.fragments_per_msg", "count"),
    ("services.msgtx_ns", "ns"),
    ("services.msgrx_ns", "ns"),
    ("ring.hops_per_frame", "count"),
    ("ring.access_wait_p50_ns", "ns"),
    ("ring.access_wait_p99_ns", "ns"),
    ("ring.tour_p50_ns", "ns"),
    ("ring.tour_p99_ns", "ns"),
    ("ring.transit_highwater_bytes", "bytes"),
    ("ring.backoffs", "count"),
    ("ring.would_drop", "count"),
    ("core.run_busy_s", "s"),
    ("core.run_p50_us", "us"),
    ("core.run_p99_us", "us"),
    ("core.replays", "count"),
    ("core.stale_frames_released", "count"),
    ("pdes.threads", "count"),
    ("pdes.run_busy_s", "s"),
    ("pdes.serial_run_s", "s"),
    ("pdes.speedup", "ratio"),
    ("pdes.efficiency", "ratio"),
    ("pdes.sync_s", "s"),
    ("pdes.slices", "count"),
    ("pdes.events_per_slice", "count"),
    ("pdes.worker_wakes_per_slice", "count"),
    ("pdes.barriers_elided_ratio", "ratio"),
    ("pdes.exchanges_skipped_ratio", "ratio"),
    ("pdes.quiescent_ratio", "ratio"),
    ("pdes.dirty_bridge_ratio", "ratio"),
    ("pdes.send_global_ns", "ns"),
    ("pdes.pop_global_ns", "ns"),
    ("cache.write_ns", "ns"),
    ("cache.read_ns", "ns"),
    ("cache.read_busy_ratio", "ratio"),
    ("cache.updates_per_write", "count"),
    ("cache.atomics", "count"),
    ("services.sock_send_ns", "ns"),
    ("services.sock_recv_ns", "ns"),
    ("services.spawn_ns", "ns"),
    ("services.collect_ns", "ns"),
    ("roster.episodes", "count"),
    ("roster.detect_us", "us"),
    ("roster.explore_us", "us"),
    ("roster.commit_us", "us"),
    ("roster.tours_per_episode", "count"),
    ("roster.failed_probes", "count"),
    ("topo.solve_us", "us"),
    ("dk.resumes", "count"),
    ("dk.lost_updates", "count"),
    ("ledger.unexplained_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Named values being collected for one output line.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set one value; `name` must be in a catalogue.
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is in no catalogue"
        );
        self.0.insert(name, v);
    }

    /// Every value set so far, by name.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }

    /// A value, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output-check violations; empty means correct.
    pub problems: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused, shed or lost.
    pub failed: u64,
    /// Metric values.
    pub values: Values,
    /// Digest of the simulated run (equal across the run's episodes).
    pub digest: u64,
    /// Lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The last output line. A run that failed its checks reports the
    /// failure and no metrics.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> String {
        let mut metrics = Vec::new();
        if self.correct() {
            for (name, unit) in catalogue {
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.values.get(name))
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON, with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
