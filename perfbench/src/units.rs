//! Unit costs measured in isolation, outside any cluster: the event
//! wheel, the frame arena and parser, the message layer and the ring
//! solver. Each is the median of several passes.

use crate::stats::median;
use ampnet_packet::{FrameArena, FrameView, MicroPacket};
use ampnet_services::msg::{MsgRx, MsgTx};
use ampnet_sim::{EventQueue, SimRng, SimTime};
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 5;

fn per_op(f: impl Fn() -> (f64, u64)) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let (ns, ops) = f();
            ns / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Host ns per `EventQueue` operation on a hold model: a stable-size
/// wheel where every pop schedules a replacement.
pub fn queue_ns_per_op() -> f64 {
    const PREFILL: u64 = 4096;
    const POPS: u64 = 100_000;
    per_op(|| {
        let mut rng = SimRng::new(0x0EB5);
        let mut q = EventQueue::new();
        for i in 0..PREFILL {
            q.schedule(SimTime(1 + rng.below(4096)), i);
        }
        let t = Instant::now();
        for i in 0..POPS {
            let (at, e) = q.pop().expect("hold model never drains");
            q.schedule(SimTime(at.0 + 1 + rng.below(4096)), black_box(e ^ i));
        }
        (t.elapsed().as_nanos() as f64, 2 * POPS)
    })
}

/// Host ns to serialize one packet of `mix` into a pooled arena slot
/// (`FrameArena::insert`, with the matching release).
pub fn encode_ns(mix: &[MicroPacket]) -> f64 {
    const ROUNDS: usize = 2_000;
    per_op(|| {
        let mut arena = FrameArena::new();
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for p in mix {
                let f = arena.insert(black_box(p));
                arena.release(black_box(f));
            }
        }
        (t.elapsed().as_nanos() as f64, (ROUNDS * mix.len()) as u64)
    })
}

/// Host ns to parse one serialized packet of `mix` (`FrameView::parse`).
pub fn parse_ns(mix: &[MicroPacket]) -> f64 {
    const ROUNDS: usize = 2_000;
    let mut arena = FrameArena::new();
    let words: Vec<Vec<u32>> = mix
        .iter()
        .map(|p| {
            let f = arena.insert(p);
            let w = arena.words(f).to_vec();
            arena.release(f);
            w
        })
        .collect();
    per_op(|| {
        let t = Instant::now();
        let mut sum = 0usize;
        for _ in 0..ROUNDS {
            for w in &words {
                sum += FrameView::parse(black_box(w)).map_or(0, |v| v.words());
            }
        }
        black_box(sum);
        (t.elapsed().as_nanos() as f64, (ROUNDS * words.len()) as u64)
    })
}

/// Host ns per `MsgTx::send` call and per `MsgRx::on_packet` call, over
/// messages of the given payload sizes.
pub fn msg_ns(sizes: &[usize]) -> (f64, f64) {
    const ROUNDS: usize = 200;
    let payloads: Vec<Vec<u8>> = sizes
        .iter()
        .map(|&n| (0..n).map(|i| i as u8).collect())
        .collect();
    let tx = per_op(|| {
        let mut tx = MsgTx::new(0);
        let t = Instant::now();
        let mut n = 0u64;
        for _ in 0..ROUNDS {
            for p in &payloads {
                black_box(tx.send(1, 0, black_box(p)));
                n += 1;
            }
        }
        (t.elapsed().as_nanos() as f64, n)
    });
    let rx = per_op(|| {
        let mut total = 0.0;
        let mut calls = 0u64;
        for _ in 0..ROUNDS {
            // A fresh pair per round keeps datagram ids inside one
            // 16-bit window, as on a live link.
            let mut tx = MsgTx::new(0);
            let mut rx = MsgRx::new();
            let pkts: Vec<MicroPacket> = payloads.iter().flat_map(|p| tx.send(1, 0, p)).collect();
            let t = Instant::now();
            for p in &pkts {
                black_box(rx.on_packet(black_box(p)));
            }
            total += t.elapsed().as_nanos() as f64;
            calls += pkts.len() as u64;
        }
        (total, calls)
    });
    (tx, rx)
}

/// Host µs for one `largest_ring` solve, median over `plants`.
pub fn solve_us(plants: &[ampnet_core::Plant]) -> f64 {
    let samples: Vec<f64> = plants
        .iter()
        .map(|p| {
            per_op(|| {
                let t = Instant::now();
                for _ in 0..20 {
                    black_box(black_box(p).largest_ring());
                }
                (t.elapsed().as_nanos() as f64 / 1e3, 20)
            })
        })
        .collect();
    median(&samples)
}
