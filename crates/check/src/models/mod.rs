//! The shipped protocol models (and their mutation variants).

pub mod arena;
pub mod gate;
pub mod planner;
pub mod roster;
pub mod semaphore;
pub mod seqlock;
