//! `a2a-small`: the slide-7/8 simultaneous all-to-all on one 8-node
//! dual-redundant crossbar.
//!
//! Open loop in simulated time: every step, each node sends one
//! smallest-size message (one fragment: a single DMA MicroPacket) to every other
//! node, in a seeded order, whether or not earlier ones have arrived —
//! more than the ring carries, so source queues build. A drain window
//! follows. No faults. Checks: every message delivered exactly once,
//! in per-pair order, intact; the MACs would have dropped nothing.

use crate::common;
use crate::probe::{Call, Probe};
use crate::report::Values;
use crate::runner::{Bench, Counts, Episode};
use crate::stats::ratio;
use ampnet_core::{Cluster, ClusterConfig, Plant, SimDuration};
use ampnet_packet::MicroPacket;
use ampnet_services::msg::MsgTx;
use ampnet_sim::{Fnv64, SimRng};

/// Nodes on the ring.
const NODES: u8 = 8;
/// Payload bytes: step (u16), source, seeded check byte.
const PAYLOAD: usize = 4;
/// Offered-load step: 56 messages per 5 µs (11.2 M msgs/s) is about
/// 1.7× what the ring delivers all-to-all at this size (~6.6 M msgs/s),
/// so source queues grow through the offered window.
const STEP: SimDuration = SimDuration(5_000);
/// Stream the messages ride.
const STREAM: u8 = 0;

/// Messages still undelivered below which the drain steps event by
/// event, so that the goodput span ends at the last delivery itself.
/// Above a 5 µs step's worth of deliveries.
const TAIL: u64 = 64;

/// The workload and its inputs, drawn once from the seed.
pub struct A2a {
    seed: u64,
    fiber_m: f64,
    /// Per step, the sends in issue order: source, destination, payload.
    schedule: Vec<Vec<(u8, u8, [u8; PAYLOAD])>>,
    /// Expected check byte per `(step, src, dst)`, for the sink.
    check: Vec<u8>,
}

/// A booted cluster.
pub struct State {
    cluster: Cluster,
    /// Simulated instant of every send (traced runs only).
    sends: Vec<(u64, u8, u8)>,
}

impl A2a {
    /// `steps` offered steps, inputs drawn from `seed`.
    pub fn new(seed: u64, steps: u16) -> Self {
        let mut rng = SimRng::new(seed).derive("a2a-small");
        let fiber_m = common::fiber_m(&mut rng);
        let mut pairs: Vec<(u8, u8)> = (0..NODES)
            .flat_map(|s| (0..NODES).filter(move |&d| d != s).map(move |d| (s, d)))
            .collect();
        let n = NODES as usize;
        let mut check = vec![0; steps as usize * n * n];
        let schedule = (0..steps)
            .map(|step| {
                rng.shuffle(&mut pairs);
                pairs
                    .iter()
                    .map(|&(src, dst)| {
                        let byte = check_byte(seed, step, src, dst);
                        check[(step as usize * n + src as usize) * n + dst as usize] = byte;
                        let [lo, hi] = step.to_le_bytes();
                        (src, dst, [lo, hi, src, byte])
                    })
                    .collect()
            })
            .collect();
        A2a {
            seed,
            fiber_m,
            schedule,
            check,
        }
    }

    fn expected(&self, step: u16, src: u8, dst: u8) -> Option<u8> {
        let n = NODES as usize;
        let i = (step as usize * n + src as usize) * n + dst as usize;
        self.check.get(i).copied()
    }
}

fn check_byte(seed: u64, step: u16, src: u8, dst: u8) -> u8 {
    let mut f = Fnv64::new();
    f.fold_u64(seed)
        .fold_u64(step as u64)
        .fold_u8(src)
        .fold_u8(dst);
    f.finish() as u8
}

impl Bench for A2a {
    type State = State;

    fn setup(&self) -> State {
        let cfg = ClusterConfig::small(NODES as usize)
            .with_switches(2)
            .with_seed(self.seed)
            .with_fiber(self.fiber_m);
        let mut cluster = Cluster::new(cfg);
        cluster.enable_trace(256);
        common::boot(&mut cluster);
        State {
            cluster,
            sends: Vec::new(),
        }
    }

    fn enable_tracing(&self, st: &mut State) {
        // Room for every insert and delivery of the episode.
        let frames = self.schedule.len() * (NODES as usize * (NODES as usize - 1));
        st.cluster.enable_telemetry(2 * frames + 1024);
        st.sends.reserve(frames);
    }

    fn drive(&self, st: &mut State, probe: &mut Probe) -> Episode {
        let c = &mut st.cluster;
        let n = NODES as usize;
        let events0 = c.events_processed();
        let t0 = c.now();
        let mut ep = Episode::default();
        let mut sink = Sink {
            last_step: vec![-1; n * n],
            hash: Fnv64::new(),
            delivered: 0,
            last_delivery: t0,
        };
        for order in &self.schedule {
            for &(src, dst, ref payload) in order {
                if probe.is_on() {
                    st.sends.push((c.now().0, src, dst));
                }
                probe.time(Call::Send, || c.send_message(src, dst, STREAM, payload));
            }
            probe.time(Call::Run, || c.run_for(STEP));
            sink.pop_all(self, c, probe, &mut ep);
        }
        let sent = self.schedule.len() as u64 * (n * (n - 1)) as u64;
        // Drain window: the backlog empties at ring speed. The last
        // few deliveries are stepped event by event, so the goodput
        // span ends at the instant of the last one.
        let mut idle = 0;
        while sink.delivered < sent && idle < 100_000 {
            if sent - sink.delivered > TAIL {
                probe.time(Call::Run, || c.run_for(STEP));
            } else if let Some(t) = c.next_event_time() {
                probe.time(Call::Run, || c.run_until(t));
            } else {
                break;
            }
            sink.pop_all(self, c, probe, &mut ep);
            idle += 1;
        }
        let delivered = sink.delivered;
        ep.attempted = sent;
        ep.failed = sent - delivered;
        ep.msgs = delivered;
        if delivered != sent {
            ep.problems
                .push(format!("delivered {delivered} of {sent} messages"));
        }
        if c.total_drops() != 0 {
            ep.problems.push(format!(
                "MACs would have dropped {} frames",
                c.total_drops()
            ));
        }
        let span_ns = sink.last_delivery.saturating_since(t0).0 as f64;
        ep.goodput_mbps = ratio(delivered as f64 * PAYLOAD as f64 * 8.0 * 1e3, span_ns);
        ep.reconverge_p50_us = common::reconverge_p50_us(c.roster_history());
        ep.events = c.events_processed() - events0;
        sink.hash
            .fold_u64(c.trace().digest())
            .fold_u64(ep.events)
            .fold_u64(c.now().0);
        ep.digest = sink.hash.finish();
        ep
    }

    fn layers(&self, st: &State, ep: &Episode, probe: &Probe, out: &mut Values) -> Counts {
        let c = &st.cluster;
        let snap = c.metrics_snapshot();
        common::snapshot_layers(
            &snap,
            common::gauge_max(&snap, "mac_transit_highwater_bytes"),
            out,
        );
        common::roster_layers(c.roster_history(), out);
        common::run_layers(probe, out);
        let arena = c.arena().stats();
        out.set(
            "packet.arena_reuse_ratio",
            ratio(arena.reused as f64, arena.acquired as f64),
        );
        out.set("services.send_ns", probe.tally(Call::Send).mean_ns());
        out.set("services.pop_ns", probe.tally(Call::Pop).mean_ns());
        let (events, _) = common::flight_events(&c.flight_dump());
        common::set_ring_latency(
            &common::tour_samples(&events, true),
            &common::access_samples(&events, &st.sends),
            out,
        );
        common::cluster_counts(&snap, ep, c.roster_history())
    }

    fn packet_mix(&self) -> Vec<MicroPacket> {
        MsgTx::new(0).send(1, STREAM, &[0; PAYLOAD])
    }

    fn message_sizes(&self) -> Vec<usize> {
        vec![PAYLOAD]
    }

    fn plants(&self, st: &State) -> Vec<Plant> {
        vec![st.cluster.topology().clone()]
    }
}

/// The receiving side: pops, checks and digests deliveries.
struct Sink {
    /// Last step seen per `(src, dst)` pair (per-pair FIFO check).
    last_step: Vec<i32>,
    hash: Fnv64,
    delivered: u64,
    last_delivery: ampnet_core::SimTime,
}

impl Sink {
    fn pop_all(&mut self, w: &A2a, c: &mut Cluster, probe: &mut Probe, ep: &mut Episode) {
        for node in 0..NODES {
            while let Some(d) = probe.time(Call::Pop, || c.pop_message(node)) {
                self.delivered += 1;
                self.last_delivery = c.now();
                self.hash.fold_u8(node).fold(&d.payload);
                let p = &d.payload;
                let ok = p.len() == PAYLOAD && p[2] == d.src && d.stream == STREAM && {
                    let step = u16::from_le_bytes([p[0], p[1]]);
                    let slot = &mut self.last_step[d.src as usize * NODES as usize + node as usize];
                    let in_order = i32::from(step) > *slot;
                    *slot = i32::from(step);
                    in_order && w.expected(step, d.src, node) == Some(p[3])
                };
                if !ok && ep.problems.len() < 8 {
                    ep.problems
                        .push(format!("bad or reordered delivery at node {node}: {p:?}"));
                }
            }
        }
    }
}
