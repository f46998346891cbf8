//! Exhaustive check of the threaded-PDES epoch gate (`EpochGate` in
//! `ampnet_core::multiseg`), one atomic operation per transition.
//!
//! Under `ParallelMode::Threads(n)` the caller's thread coordinates
//! and advances partition 0 itself, while `n − 1` scoped helpers park
//! on the gate. Unlike the other models this one cannot drive the
//! crate code directly — the gate *is* a handful of atomics plus
//! `park`/`unpark` — so it transcribes the protocol operation by
//! operation, with one transition per load, store, read-modify-write,
//! park or unpark:
//!
//! | engine (`multiseg.rs`)                         | model step          |
//! |------------------------------------------------|---------------------|
//! | `publish`: epoch → odd, `step`, `done = 0`, `busy`, epoch → even | `Publish(0..5)` |
//! | unpark each busy helper                        | `Unpark(i)`         |
//! | advance partition 0, bump quiescent partitions | `Advance`           |
//! | `await_done`: load `done`, else `park()`       | `CheckDone`, `Park` |
//! | boundary exchange                              | `Exchange`          |
//! | `PoolShutdown`: `shutdown`, epoch += 2, unparks| `Shutdown(0..4)`    |
//! | `thread::scope` joins the helpers              | `Join`              |
//! | `await_epoch`: load epoch, else `park()`       | `Wait`, `Park`      |
//! | `serve`: `shutdown`, `busy`, `step`, re-check  | `Shut` … `Recheck`  |
//! | shard run, then `DoneGuard`: `done += 1`, unpark | `Running`, `UnparkCoordinator` |
//!
//! The world is the coordinator plus two helpers over three slices;
//! the adversary picks each slice's busy-helper mask (none, either,
//! both) and may panic the coordinator once while it runs partition 0.
//! Park tokens are sticky, as in `std`: an unpark of a running thread
//! leaves a token its next `park` consumes. The caller's thread may
//! carry a stale token into the run (both initial states are
//! explored). Spurious returns from `park` without a token are not
//! modelled: every wait in the engine re-checks its condition anyway,
//! and a stale token exercises the same path. Interleavings are
//! sequentially consistent; the release/acquire fences around the
//! payload in `publish` and `serve` are the standard seqlock argument
//! for getting the same outcomes under the Rust memory model.
//!
//! Checked properties:
//!
//! * `one-thread-per-shard` (safety) — no helper partition is
//!   advanced by both its helper and the coordinator in one slice.
//! * `no-foreign-step` (safety) — a helper only runs with the `step`
//!   and `busy` mask of the epoch it observed.
//! * `exchange-excludes-helpers` (safety) — the boundary exchange
//!   never starts while a helper is running.
//! * `no-all-parked` (safety) — no reachable state has every thread
//!   blocked (parked, or the coordinator joining parked helpers).
//! * `clean-shutdown` (terminal) — the run only ends with the
//!   coordinator finished and both helpers exited.
//! * `torn-read-retried` and `stale-token-absorbed` (reachability) —
//!   the re-check retry and the coordinator's spurious wake are
//!   genuinely explored.
//!
//! Each [`GateVariant`] mutant breaks one step and must yield a
//! counterexample; `SingleEpochBump` is the gate as first written
//! (one epoch bump after the payload stores), whose torn-read re-check
//! a helper that observed an epoch it was not busy in could pass with
//! the *next* slice's mask.

use crate::model::{FnvHasher, Model, Property, PropertyKind};
use crate::{check, CheckOptions, CheckReport};
use std::hash::{Hash, Hasher};

/// Which gate wiring the model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateVariant {
    /// The engine's protocol.
    Exact,
    /// Mutant: helpers act on `busy`/`step` without re-checking the
    /// epoch.
    NoTornReadRetry,
    /// Mutant: `publish` stores `done = 0` after the even epoch bump.
    LateDoneReset,
    /// Mutant: `DoneGuard` bumps `done` without unparking the
    /// coordinator.
    DoneGuardNoUnpark,
    /// Mutant: the coordinator treats any return from `park` as
    /// completion instead of re-checking `done`.
    ParkWithoutRecheck,
    /// Mutant: one epoch bump after the payload stores, no odd
    /// publication phase.
    SingleEpochBump,
    /// Mutant: the pool is shut down only on the normal exit, not when
    /// the coordinator unwinds.
    NoShutdownGuard,
}

/// Slices per run.
const SLICES: u8 = 3;
/// `advanced` bits: who advanced a helper partition this slice.
const BY_COORDINATOR: u8 = 1;
const BY_HELPER: u8 = 2;

/// Coordinator program counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CoordPc {
    Plan,
    Publish(u8),
    Unpark(u8),
    Advance,
    CheckDone,
    Park,
    Exchange,
    Shutdown(u8),
    Join,
    Finished,
}

/// Helper program counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum HelperPc {
    Wait,
    Park,
    Shut,
    ReadMask,
    ReadStep,
    Recheck,
    Running,
    UnparkCoordinator,
    Exited,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Coordinator {
    pc: CoordPc,
    /// Slices planned so far.
    slice: u8,
    /// Publications so far (the value `step` carries).
    pubs: u8,
    /// This slice's busy-helper mask (bit `i` = helper `i`).
    mask: u8,
    token: bool,
    parked: bool,
    panicked: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Helper {
    pc: HelperPc,
    /// Last epoch completed.
    seen: u8,
    /// Epoch being served.
    cur: u8,
    /// `busy` and `step` as loaded.
    mask: u8,
    step: u8,
    token: bool,
    parked: bool,
}

impl Helper {
    fn blocked(&self) -> bool {
        self.parked || self.pc == HelperPc::Exited
    }
}

/// One explored state of the gate world.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GateState {
    epoch: u8,
    step: u8,
    busy: u8,
    done: u8,
    shutdown: bool,
    coord: Coordinator,
    helpers: [Helper; 2],
    /// Per helper partition, who advanced it this slice.
    advanced: [u8; 2],
    double_advance: bool,
    foreign_step: bool,
    overlap: bool,
}

/// One atomic transition.
#[derive(Debug, Clone)]
pub enum GateAction {
    /// The coordinator plans the next slice with this busy-helper mask.
    Plan(u8),
    /// The coordinator's next operation.
    Coordinator,
    /// Partition 0 panics on the coordinator.
    Panic,
    /// Helper `i`'s next operation.
    Helper(usize),
}

/// One operation of `publish`.
#[derive(Debug, Clone, Copy)]
enum PublishOp {
    EpochBump,
    Step,
    ResetDone,
    Busy,
}

/// The coordinator plus two helpers over [`SLICES`] slices.
#[derive(Debug)]
pub struct GateModel {
    /// Exact protocol or one of the mutants.
    pub variant: GateVariant,
}

impl GateModel {
    fn publish_ops(&self) -> &'static [PublishOp] {
        use PublishOp::*;
        match self.variant {
            GateVariant::SingleEpochBump => &[Step, ResetDone, Busy, EpochBump],
            GateVariant::LateDoneReset => &[EpochBump, Step, Busy, EpochBump, ResetDone],
            _ => &[EpochBump, Step, ResetDone, Busy, EpochBump],
        }
    }

    /// Epoch increments per publication (odd phase, then even).
    fn bumps(&self) -> u8 {
        if self.variant == GateVariant::SingleEpochBump {
            1
        } else {
            2
        }
    }

    fn epoch_ready(&self, e: u8, seen: u8) -> bool {
        e != seen && (self.bumps() == 1 || e.is_multiple_of(2))
    }

    /// Wake `h` if parked, else leave it a token.
    fn unpark_helper(s: &mut GateState, h: usize) {
        let t = &mut s.helpers[h];
        if t.parked {
            t.parked = false;
            t.pc = HelperPc::Wait;
        } else {
            t.token = true;
        }
    }

    fn unpark_coordinator(&self, s: &mut GateState) {
        let c = &mut s.coord;
        if c.parked {
            c.parked = false;
            c.pc = self.after_coordinator_wake();
        } else {
            c.token = true;
        }
    }

    fn after_coordinator_wake(&self) -> CoordPc {
        if self.variant == GateVariant::ParkWithoutRecheck {
            CoordPc::Exchange
        } else {
            CoordPc::CheckDone
        }
    }

    /// First busy helper at or after `from`, as an unpark step.
    fn next_unpark(mask: u8, from: u8) -> CoordPc {
        match (from..2).find(|&i| mask & (1 << i) != 0) {
            Some(i) => CoordPc::Unpark(i),
            None => CoordPc::Advance,
        }
    }

    fn coordinator_step(&self, s: &mut GateState) {
        let c = &mut s.coord;
        match c.pc {
            CoordPc::Plan => {
                debug_assert_eq!(c.slice, SLICES, "planning is the Plan action");
                c.pc = CoordPc::Shutdown(0);
            }
            CoordPc::Publish(k) => {
                let ops = self.publish_ops();
                match ops[k as usize] {
                    PublishOp::EpochBump => s.epoch += 1,
                    PublishOp::Step => s.step = c.pubs,
                    PublishOp::ResetDone => s.done = 0,
                    PublishOp::Busy => s.busy = c.mask,
                }
                c.pc = if (k as usize) + 1 < ops.len() {
                    CoordPc::Publish(k + 1)
                } else {
                    Self::next_unpark(c.mask, 0)
                };
            }
            CoordPc::Unpark(i) => {
                c.pc = Self::next_unpark(c.mask, i + 1);
                Self::unpark_helper(s, i as usize);
            }
            CoordPc::Advance => {
                for i in 0..2 {
                    if c.mask & (1 << i) == 0 {
                        s.advanced[i] |= BY_COORDINATOR;
                        if s.advanced[i] & BY_HELPER != 0 {
                            s.double_advance = true;
                        }
                    }
                }
                c.pc = if c.mask != 0 {
                    CoordPc::CheckDone
                } else {
                    CoordPc::Exchange
                };
            }
            CoordPc::CheckDone => {
                c.pc = if u32::from(s.done) >= c.mask.count_ones() {
                    CoordPc::Exchange
                } else {
                    CoordPc::Park
                };
            }
            CoordPc::Park => {
                if c.token {
                    c.token = false;
                    c.pc = self.after_coordinator_wake();
                } else {
                    c.parked = true;
                }
            }
            CoordPc::Exchange => {
                if s.helpers.iter().any(|h| h.pc == HelperPc::Running) {
                    s.overlap = true;
                }
                c.pc = CoordPc::Plan;
            }
            CoordPc::Shutdown(k) => {
                match k {
                    0 => s.shutdown = true,
                    1 => s.epoch += self.bumps(),
                    _ => Self::unpark_helper(s, k as usize - 2),
                }
                s.coord.pc = if k < 3 {
                    CoordPc::Shutdown(k + 1)
                } else {
                    CoordPc::Join
                };
            }
            CoordPc::Join => c.pc = CoordPc::Finished,
            CoordPc::Finished => unreachable!("finished coordinator has no step"),
        }
    }

    /// After the (possibly skipped) re-check: run if busy, else
    /// record the epoch as completed.
    fn decide(&self, s: &mut GateState, i: usize) {
        let h = &mut s.helpers[i];
        if h.mask & (1 << i) == 0 {
            h.seen = h.cur;
            h.pc = HelperPc::Wait;
            return;
        }
        // The epoch names its publication: `step` and `busy` must be
        // that publication's.
        let publication = h.cur / self.bumps();
        if h.step != publication || s.coord.pubs != publication {
            s.foreign_step = true;
        }
        s.advanced[i] |= BY_HELPER;
        if s.advanced[i] & BY_COORDINATOR != 0 {
            s.double_advance = true;
        }
        h.pc = HelperPc::Running;
    }

    fn helper_step(&self, s: &mut GateState, i: usize) {
        let h = &mut s.helpers[i];
        match h.pc {
            HelperPc::Wait => {
                if self.epoch_ready(s.epoch, h.seen) {
                    h.cur = s.epoch;
                    h.pc = HelperPc::Shut;
                } else {
                    h.pc = HelperPc::Park;
                }
            }
            HelperPc::Park => {
                if h.token {
                    h.token = false;
                    h.pc = HelperPc::Wait;
                } else {
                    h.parked = true;
                }
            }
            HelperPc::Shut => {
                h.pc = if s.shutdown {
                    HelperPc::Exited
                } else {
                    HelperPc::ReadMask
                };
            }
            HelperPc::ReadMask => {
                h.mask = s.busy;
                h.pc = HelperPc::ReadStep;
            }
            HelperPc::ReadStep => {
                h.step = s.step;
                if self.variant == GateVariant::NoTornReadRetry {
                    self.decide(s, i);
                } else {
                    h.pc = HelperPc::Recheck;
                }
            }
            HelperPc::Recheck => {
                if s.epoch != h.cur {
                    h.pc = HelperPc::Wait;
                } else {
                    self.decide(s, i);
                }
            }
            HelperPc::Running => {
                s.done += 1;
                if self.variant == GateVariant::DoneGuardNoUnpark {
                    h.seen = h.cur;
                    h.pc = HelperPc::Wait;
                } else {
                    h.pc = HelperPc::UnparkCoordinator;
                }
            }
            HelperPc::UnparkCoordinator => {
                h.seen = h.cur;
                h.pc = HelperPc::Wait;
                self.unpark_coordinator(s);
            }
            HelperPc::Exited => unreachable!("exited helper has no step"),
        }
    }
}

/// Every thread is blocked: parked, exited, or (the coordinator)
/// joining a helper that has not exited.
fn all_blocked(s: &GateState) -> bool {
    let helpers_done = s.helpers.iter().all(|h| h.pc == HelperPc::Exited);
    let coord_blocked = s.coord.parked || (s.coord.pc == CoordPc::Join && !helpers_done);
    coord_blocked && s.helpers.iter().all(Helper::blocked)
}

impl Model for GateModel {
    type State = GateState;
    type Action = GateAction;

    fn initial_states(&self) -> Vec<GateState> {
        let helper = Helper {
            pc: HelperPc::Wait,
            seen: 0,
            cur: 0,
            mask: 0,
            step: 0,
            token: false,
            parked: false,
        };
        [false, true]
            .into_iter()
            .map(|stale_token| GateState {
                epoch: 0,
                step: 0,
                busy: 0,
                done: 0,
                shutdown: false,
                coord: Coordinator {
                    pc: CoordPc::Plan,
                    slice: 0,
                    pubs: 0,
                    mask: 0,
                    token: stale_token,
                    parked: false,
                    panicked: false,
                },
                helpers: [helper.clone(), helper.clone()],
                advanced: [0; 2],
                double_advance: false,
                foreign_step: false,
                overlap: false,
            })
            .collect()
    }

    fn actions(&self, s: &GateState, out: &mut Vec<GateAction>) {
        let c = &s.coord;
        match c.pc {
            CoordPc::Plan if c.slice < SLICES => {
                out.extend((0..4).map(GateAction::Plan));
            }
            CoordPc::Join if !s.helpers.iter().all(|h| h.pc == HelperPc::Exited) => {}
            CoordPc::Finished => {}
            _ if c.parked => {}
            pc => {
                out.push(GateAction::Coordinator);
                if pc == CoordPc::Advance && !c.panicked {
                    out.push(GateAction::Panic);
                }
            }
        }
        for (i, h) in s.helpers.iter().enumerate() {
            if !h.blocked() {
                out.push(GateAction::Helper(i));
            }
        }
    }

    fn next_state(&self, s: &GateState, action: &GateAction) -> GateState {
        let mut s = s.clone();
        match *action {
            GateAction::Plan(mask) => {
                let c = &mut s.coord;
                c.slice += 1;
                c.mask = mask;
                s.advanced = [0; 2];
                if mask == 0 {
                    c.pc = CoordPc::Advance;
                } else {
                    c.pubs += 1;
                    c.pc = CoordPc::Publish(0);
                }
            }
            GateAction::Coordinator => self.coordinator_step(&mut s),
            GateAction::Panic => {
                s.coord.panicked = true;
                s.coord.pc = if self.variant == GateVariant::NoShutdownGuard {
                    CoordPc::Join
                } else {
                    CoordPc::Shutdown(0)
                };
            }
            GateAction::Helper(i) => self.helper_step(&mut s, i),
        }
        s
    }

    /// Dead-value quotient: what a waiting helper last loaded, and
    /// the coordinator's mask and shard bookkeeping between slices,
    /// are overwritten before they are read again, so they are zeroed
    /// before hashing.
    fn fingerprint(&self, s: &GateState) -> u64 {
        let mut s = s.clone();
        for h in &mut s.helpers {
            if matches!(h.pc, HelperPc::Wait | HelperPc::Park | HelperPc::Exited) {
                (h.cur, h.mask, h.step) = (0, 0, 0);
            }
        }
        if matches!(
            s.coord.pc,
            CoordPc::Plan | CoordPc::Shutdown(_) | CoordPc::Join | CoordPc::Finished
        ) {
            s.coord.mask = 0;
            s.advanced = [0; 2];
        }
        let mut h = FnvHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![
            Property {
                name: "one-thread-per-shard",
                kind: PropertyKind::Always,
                check: |_, s| !s.double_advance,
            },
            Property {
                name: "no-foreign-step",
                kind: PropertyKind::Always,
                check: |_, s| !s.foreign_step,
            },
            Property {
                name: "exchange-excludes-helpers",
                kind: PropertyKind::Always,
                check: |_, s| !s.overlap,
            },
            Property {
                name: "no-all-parked",
                kind: PropertyKind::Always,
                check: |_, s| !all_blocked(s),
            },
            Property {
                name: "clean-shutdown",
                kind: PropertyKind::AlwaysTerminal,
                check: |_, s| {
                    s.coord.pc == CoordPc::Finished
                        && s.helpers.iter().all(|h| h.pc == HelperPc::Exited)
                },
            },
            Property {
                name: "torn-read-retried",
                kind: PropertyKind::Eventually,
                check: |_, s| {
                    s.helpers
                        .iter()
                        .any(|h| h.pc == HelperPc::Recheck && s.epoch != h.cur)
                },
            },
            Property {
                name: "stale-token-absorbed",
                kind: PropertyKind::Eventually,
                check: |_, s| {
                    s.coord.pc == CoordPc::Park
                        && s.coord.token
                        && u32::from(s.done) < s.coord.mask.count_ones()
                },
            },
        ]
    }

    fn format_action(&self, action: &GateAction) -> String {
        match *action {
            GateAction::Plan(mask) => format!("coord: plan slice, busy helpers {mask:#04b}"),
            GateAction::Coordinator => "coord: step".into(),
            GateAction::Panic => "coord: partition 0 panics".into(),
            GateAction::Helper(i) => format!("helper{i}: step"),
        }
    }

    fn format_state(&self, s: &GateState) -> String {
        let helpers: Vec<String> = s
            .helpers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                format!(
                    "h{i}:{:?}{} seen={} cur={}{}",
                    h.pc,
                    if h.parked { "(parked)" } else { "" },
                    h.seen,
                    h.cur,
                    if h.token { " tok" } else { "" }
                )
            })
            .collect();
        format!(
            "epoch={} step={} busy={:#04b} done={}{} | coord:{:?}{} slice={} mask={:#04b}{} | {}",
            s.epoch,
            s.step,
            s.busy,
            s.done,
            if s.shutdown { " SHUTDOWN" } else { "" },
            s.coord.pc,
            if s.coord.parked { "(parked)" } else { "" },
            s.coord.slice,
            s.coord.mask,
            if s.coord.token { " tok" } else { "" },
            helpers.join(" | ")
        )
    }
}

/// Check the engine's gate protocol exhaustively.
pub fn check_gate(max_states: usize) -> CheckReport {
    check_gate_variant(GateVariant::Exact, max_states)
}

/// Check one wiring of the gate (the exact protocol or a mutant).
pub fn check_gate_variant(variant: GateVariant, max_states: usize) -> CheckReport {
    check(&GateModel { variant }, CheckOptions { max_states })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_gate_is_exhaustively_green() {
        let report = check_gate(2_000_000);
        println!("{}", report.summary("epoch-gate"));
        assert!(report.passed(), "{:?}", report.violation.map(|v| v.render()));
        assert!(report.terminals > 0);
    }
}
