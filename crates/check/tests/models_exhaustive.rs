//! Exhaustive runs of the shipped protocol models.
//!
//! Each test explores the model's full bounded state space (asserting
//! `complete`, i.e. the budget was not hit) and prints the
//! visited-state count so CI logs double as a state-space size record.

use ampnet_check::models::{arena, gate, roster, semaphore, seqlock};

/// Generous budget: every model must finish well under it.
const BUDGET: usize = 2_000_000;

#[test]
fn seqlock_two_counter_no_torn_reads() {
    let report = seqlock::check_seqlock(BUDGET);
    println!("{}", report.summary("seqlock"));
    if let Some(cx) = &report.violation {
        panic!("unexpected violation:\n{}", cx.render());
    }
    assert!(report.passed(), "state space must be fully explored");
    assert!(report.visited > 50, "model is not trivially small");
    // No terminal assertion: the reader polls forever by design, so
    // every state has an enabled ReaderStep.
    assert_eq!(report.terminals, 0, "free-running reader never deadlocks");
}

#[test]
fn semaphore_mutual_exclusion_under_loss() {
    let report = semaphore::check_semaphore(BUDGET);
    println!("{}", report.summary("semaphore"));
    if let Some(cx) = &report.violation {
        panic!("unexpected violation:\n{}", cx.render());
    }
    assert!(report.passed(), "state space must be fully explored");
    assert!(report.visited > 200, "loss + backoff interleavings explored");
    assert!(report.terminals > 0, "all rounds completable");
}

#[test]
fn roster_single_master_and_recovery() {
    let report = roster::check_roster(BUDGET);
    println!("{}", report.summary("roster"));
    if let Some(cx) = &report.violation {
        panic!("unexpected violation:\n{}", cx.render());
    }
    assert!(report.passed(), "state space must be fully explored");
    assert!(report.visited > 100, "token interleavings explored");
    assert!(report.terminals > 0, "every scenario recovers");
}

#[test]
fn roster_recovers_on_torus() {
    let report = roster::check_roster_torus(BUDGET);
    println!("{}", report.summary("roster-torus"));
    if let Some(cx) = &report.violation {
        panic!("unexpected violation:\n{}", cx.render());
    }
    assert!(report.passed(), "state space must be fully explored");
    assert!(report.visited > 100, "token interleavings explored");
    assert!(report.terminals > 0, "every scenario recovers");
}

#[test]
fn roster_recovers_on_clos() {
    let report = roster::check_roster_clos(BUDGET);
    println!("{}", report.summary("roster-clos"));
    if let Some(cx) = &report.violation {
        panic!("unexpected violation:\n{}", cx.render());
    }
    assert!(report.passed(), "state space must be fully explored");
    assert!(report.visited > 100, "token interleavings explored");
    assert!(report.terminals > 0, "every scenario recovers");
}

#[test]
fn arena_ownership_protocol_is_sound() {
    let report = arena::check_arena(BUDGET);
    println!("{}", report.summary("arena"));
    if let Some(cx) = &report.violation {
        panic!("unexpected violation:\n{}", cx.render());
    }
    assert!(report.passed(), "state space must be fully explored");
    assert!(report.visited > 50, "hop interleavings explored");
    assert!(report.terminals > 0, "all frames retire");
}

#[test]
fn epoch_gate_is_race_and_deadlock_free() {
    let report = gate::check_gate(BUDGET);
    println!("{}", report.summary("epoch-gate"));
    if let Some(cx) = &report.violation {
        panic!("unexpected violation:\n{}", cx.render());
    }
    assert!(report.passed(), "state space must be fully explored");
    assert!(report.visited > 10_000, "atomic-step interleavings explored");
    assert!(report.terminals > 0, "every run shuts the pool down");
}
