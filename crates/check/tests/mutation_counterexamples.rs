//! Mutation self-tests: deliberately broken protocol variants must
//! each produce a counterexample with a printed shortest trace.
//!
//! These are the checker's own regression suite — if a mutant stops
//! failing, either the mutant stopped modeling the bug or the checker
//! went blind, and both are defects.

use ampnet_check::models::{arena, gate, planner, semaphore, seqlock};
use ampnet_check::Counterexample;

const BUDGET: usize = 2_000_000;

/// Every mutant counterexample must be a genuine rendered trace.
fn assert_trace(cx: &Counterexample, min_steps: usize) {
    let rendered = cx.render();
    println!("{rendered}");
    assert!(
        cx.steps.len() > min_steps,
        "trace has {} steps, expected more than {min_steps}",
        cx.steps.len()
    );
    assert!(rendered.contains("=== counterexample:"));
    assert!(rendered.contains("violation:"));
}

#[test]
fn single_counter_seqlock_tears() {
    let report = seqlock::check_seqlock_single_counter(BUDGET);
    println!("{}", report.summary("seqlock/single-counter"));
    let cx = report.violation.expect("mutant must be caught");
    assert_eq!(cx.property, "no-torn-read");
    assert_trace(&cx, 3);
}

#[test]
fn split_test_then_set_breaks_mutual_exclusion() {
    let report = semaphore::check_semaphore_split_tas(BUDGET);
    println!("{}", report.summary("semaphore/split-tas"));
    let cx = report.violation.expect("mutant must be caught");
    assert_eq!(cx.property, "mutual-exclusion");
    assert_trace(&cx, 5);
}

#[test]
fn deliver_also_forwards_panics_on_stale_ref() {
    let report = arena::check_arena_deliver_forwards(BUDGET);
    println!("{}", report.summary("arena/deliver-forwards"));
    let cx = report.violation.expect("mutant must be caught");
    assert!(
        cx.reason.contains("stale FrameRef"),
        "the real arena's generation check must fire: {}",
        cx.reason
    );
    assert_trace(&cx, 2);
}

#[test]
fn crossing_clamp_dropped_delivers_late() {
    let report = planner::check_planner_ignores_crossings(BUDGET);
    println!("{}", report.summary("planner/ignore-crossings"));
    let cx = report.violation.expect("mutant must be caught");
    assert_eq!(cx.property, "crossing-delivered-at-maturity");
    assert_trace(&cx, 2);
}

#[test]
fn missing_generation_bump_aliases_silently() {
    let report = arena::check_arena_no_gen_bump(BUDGET);
    println!("{}", report.summary("arena/no-gen-bump"));
    let cx = report.violation.expect("mutant must be caught");
    assert_eq!(
        cx.property, "frames-intact",
        "no panic fires — only the checker sees the aliasing"
    );
    assert_trace(&cx, 3);
}

/// Run one epoch-gate mutant; it must violate `property`.
fn gate_mutant(variant: gate::GateVariant, property: &str, min_steps: usize) {
    let report = gate::check_gate_variant(variant, BUDGET);
    println!("{}", report.summary(&format!("epoch-gate/{variant:?}")));
    let cx = report.violation.expect("mutant must be caught");
    assert_eq!(cx.property, property, "{variant:?}");
    assert_trace(&cx, min_steps);
}

#[test]
fn gate_without_torn_read_retry_runs_a_foreign_step() {
    gate_mutant(gate::GateVariant::NoTornReadRetry, "no-foreign-step", 10);
}

#[test]
fn gate_resetting_done_after_the_bump_loses_a_wake() {
    gate_mutant(gate::GateVariant::LateDoneReset, "no-all-parked", 10);
}

#[test]
fn done_guard_without_unpark_strands_the_coordinator() {
    gate_mutant(gate::GateVariant::DoneGuardNoUnpark, "no-all-parked", 5);
}

#[test]
fn coordinator_park_without_recheck_overlaps_the_exchange() {
    gate_mutant(gate::GateVariant::ParkWithoutRecheck, "exchange-excludes-helpers", 5);
}

#[test]
fn single_epoch_bump_pairs_an_epoch_with_the_next_mask() {
    gate_mutant(gate::GateVariant::SingleEpochBump, "no-foreign-step", 10);
}

#[test]
fn pool_without_shutdown_guard_hangs_on_a_coordinator_panic() {
    gate_mutant(gate::GateVariant::NoShutdownGuard, "no-all-parked", 3);
}
