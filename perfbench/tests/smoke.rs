//! Self-test: every workload at a tiny size, every named metric, every
//! output check; determinism across runs; `BENCHMARK.json` agreeing
//! with the catalogues; and the known defect the storm steers around.

use ampnet_core::{ClusterConfig, GlobalAddr, MultiSegment, SimDuration};
use ampnet_perfbench::churn::Churn;
use ampnet_perfbench::report::{END_TO_END, PER_LAYER};
use ampnet_perfbench::runner;
use ampnet_perfbench::{run, Opts, Size, WORKLOADS};

fn tiny(workload: &str, seed: u64, trace: bool) -> ampnet_perfbench::report::Outcome {
    let o = Opts {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    };
    run(&o).expect("known workload")
}

/// The metric object of a result line, as `(name, value, unit)`.
fn metrics(line: &str) -> Vec<(String, f64, String)> {
    let body = line.split_once("\"metrics\": {").expect("metrics key").1;
    body.split("}, ")
        .filter_map(|m| {
            let (name, rest) = m.trim_start_matches('"').split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            let unit = unit.trim_end_matches(['}', '"']);
            Some((name.to_string(), value.parse().ok()?, unit.to_string()))
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for w in WORKLOADS {
        for (trace, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = tiny(w, 7, trace);
            assert!(out.correct(), "{w} trace={trace}: {:?}", out.problems);
            assert!(out.attempted > 0, "{w}: nothing attempted");
            let line = out.result_line(catalogue);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            let got = metrics(&line);
            assert_eq!(got.len(), catalogue.len(), "{w} trace={trace}: {line}");
            for ((name, unit), (g_name, value, g_unit)) in catalogue.iter().zip(&got) {
                assert_eq!((*name, *unit), (g_name.as_str(), g_unit.as_str()));
                assert!(value.is_finite(), "{w}: {name} = {value}");
                if !trace {
                    assert!(*value > 0.0, "{w}: end-to-end metric {name} reads {value}");
                }
            }
        }
    }
}

#[test]
fn same_seed_is_bit_identical_and_another_seed_is_not() {
    let sim = ["delivered_ppm", "sim_goodput_mbps", "sim_reconverge_p50_us"];
    for w in WORKLOADS {
        let a = tiny(w, 11, false);
        let b = tiny(w, 11, false);
        let c = tiny(w, 12, false);
        assert_eq!(a.digest, b.digest, "{w}: same seed, different digest");
        assert_ne!(
            a.digest, c.digest,
            "{w}: the seed does not reach the simulation"
        );
        for m in sim {
            assert_eq!(
                a.values.get(m).to_bits(),
                b.values.get(m).to_bits(),
                "{w}: {m} differs between same-seed runs"
            );
        }
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "{w}");
    }
}

#[test]
fn a_failed_check_reports_no_metrics() {
    let mut out = tiny("a2a-small", 3, false);
    out.problems.push("synthetic".into());
    let line = out.result_line(END_TO_END);
    assert!(line.starts_with("{\"correct\": false"), "{line}");
    assert!(line.ends_with("\"metrics\": {}}"), "{line}");
}

#[test]
fn benchmark_json_declares_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "workload {w} undeclared"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&decl), "{name} [{unit}] undeclared");
    }
    let declared = json.matches("\"unit\": ").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len(),
        "extra metrics declared"
    );
}

/// Pins the defect `pdes-storm` steers around (see
/// `pdes::ROUTER_ENDPOINT_DEFECT`). If this fails, the defect is fixed:
/// let the storm address router nodes again and delete this test.
#[test]
fn known_defect_crossing_to_ingress_router_is_lost() {
    let ga = |segment, node| GlobalAddr { segment, node };
    let mut net = MultiSegment::new(vec![ClusterConfig::small(4), ClusterConfig::small(4)]);
    net.add_bridge(ga(0, 3), ga(1, 0), SimDuration::from_micros(5));
    let slice = SimDuration::from_micros(5);
    net.run_until(net.segment(0).now() + SimDuration::from_millis(2), slice);
    net.send_global(ga(0, 1), ga(1, 0), b"to the router");
    net.send_global(ga(0, 1), ga(1, 2), b"past the router");
    net.run_until(net.segment(0).now() + SimDuration::from_millis(2), slice);
    assert!(
        net.pop_global(ga(1, 2)).is_some(),
        "control datagram must arrive"
    );
    assert!(
        net.pop_global(ga(1, 0)).is_none() && net.unroutable == 0,
        "fixed: {}",
        ampnet_perfbench::pdes::ROUTER_ENDPOINT_DEFECT
    );
}

/// Pins the defects `services-churn` steers around (see
/// `churn::RING_DOWN_DEFECTS`): clients that keep issuing requests and
/// collecting tasks while the ring is down see a subscriber's topic go
/// back to an older version (seed 13) and replicas of the task table
/// diverge for good (seed 20). If this fails, the defects are fixed:
/// drop the hold from `services-churn` and delete this test.
#[test]
fn known_defect_requests_while_ring_is_down_break_replicas() {
    for (seed, symptom) in [(13, "went back"), (20, "state-conservation")] {
        let out = runner::timed(&Churn::unheld(seed, 3), 0.0);
        assert!(
            out.problems.iter().any(|p| p.contains(symptom)),
            "seed {seed}: no {symptom:?} in {:?}; fixed: {}",
            out.problems,
            ampnet_perfbench::churn::RING_DOWN_DEFECTS
        );
    }
}
