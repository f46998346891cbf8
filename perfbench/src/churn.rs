//! `services-churn`: the AmpDC services under a periodic fault cycle
//! on one 8-node crossbar (four switches).
//!
//! Open-loop Poisson arrivals, drawn with `ArrivalGen` from the seed,
//! over four classes — pub/sub `record_write` (subscribers poll their
//! local replica with `record_try_read`, so reads outnumber writes),
//! AmpFiles `file_write`, socket request/reply with multi-fragment
//! payloads, and `spawn_remote`/`collect_remote` — plus a closed-loop
//! network-semaphore storm and the replicated-counter failover app.
//! Client classes live on nodes 0–3; the counter app's control group
//! is nodes 4–7, whose leader issues no other broadcasts (the
//! `CounterApp` commit pairing relies on that).
//!
//! Every fault cycle cuts and splices a fiber, fails and repairs a
//! switch, bursts bit errors into a seeded node, and crashes the
//! counter app's current leader, which rejoins later. Checks: the
//! chaos invariant catalogue holds at the end, task results are right
//! and the counter app lost nothing it had committed.

use crate::common;
use crate::probe::{Call, Probe};
use crate::report::Values;
use crate::runner::{Bench, Counts, Episode};
use crate::stats::ratio;
use ampnet_chaos::{
    apply_fault_schedule, CheckCtx, FaultEvent, FaultOp, Invariant, Ledger, LosslessDelivery,
    MutualExclusion, NoDuplicates, Phase, ReconvergenceBound, RingDrops, SeqlockCoherence,
    StateConservation,
};
use ampnet_core::{
    BackoffPolicy, Cluster, ClusterConfig, CounterAppConfig, FailoverPolicy, FileStore,
    FileStoreLayout, Plant, ReadOutcome, RecordLayout, SemStressConfig, SemaphoreAddr, SimDuration,
    SimTime, SockAddr, TaskKind,
};
use ampnet_load::{ArrivalGen, ArrivalProcess};
use ampnet_packet::{build, MicroPacket};
use ampnet_services::msg::MsgTx;
use ampnet_sim::{Fnv64, SimRng};
use std::collections::{BTreeMap, VecDeque};

const NODES: u8 = 8;
/// Client-class nodes; the counter group is the rest.
const CLIENTS: u8 = 4;
/// Counter-app control group: (node, qualification); the best
/// qualified online member leads.
const GROUP: [(u8, u32); 4] = [(4, 70), (5, 80), (6, 90), (7, 100)];
const TOPIC_REGION: u8 = 7;
const FILE_REGION: u8 = 8;
const TASK_REGION: u8 = 9;
const TOPICS: u32 = 4;
/// Topic record payload: sequence number and publish instant.
const TOPIC_LEN: u32 = 16;
const FILES: usize = 16;
const FILE_PAYLOAD: usize = 64;
const TASK_SLOTS: u32 = 64;
const SERVER: u8 = 3;
const SERVER_PORT: u16 = 80;
const CLIENT_PORT: u16 = 5000;
/// Socket request bytes: ledger tag (14), then filler — three
/// message fragments.
const REQUEST: usize = 160;
/// Dispatch and harvest granularity.
const TICK: SimDuration = SimDuration(20_000);
/// Fault-cycle period: long enough for a crashed node to reassimilate
/// (boot + diagnostics ≈ 70 ms) before the next cycle.
const CYCLE: SimDuration = SimDuration(100_000_000);
/// Mean offered rates per class, operations per simulated second.
const RATES: [f64; 4] = [20_000.0, 10_000.0, 20_000.0, 10_000.0];
/// Flight-recorder depth for the traced episode: every MAC event of
/// the episode, so broadcast tours pair up without wraparound.
const FLIGHT_CAPACITY: usize = 1 << 20;
/// Known defects, kept out of the timed workload and pinned by the
/// self-test: after a roster episode, a publisher that kept writing a
/// record while the ring was down can leave subscribers' replicas on an
/// older version than one they had already shown, and a task slot
/// collected around the ring going down can leave the task-table
/// replicas diverged for good (`StateConservation` fails). Clients of
/// `services-churn` therefore hold new requests and task collection
/// while the ring is down, and issue the held requests once it is up.
pub const RING_DOWN_DEFECTS: &str =
    "requests issued while the ring is down leave replicas stale or diverged";
const PUBSUB: usize = 0;
const FILES_C: usize = 1;
const SOCKET: usize = 2;
const THREADS: usize = 3;

/// The workload, sized by its number of fault cycles, and its inputs,
/// drawn once from the seed.
pub struct Churn {
    seed: u64,
    cycles: u32,
    /// Clients hold requests and task collection while the ring is
    /// down (see [`RING_DOWN_DEFECTS`]).
    hold: bool,
    fiber_m: f64,
    /// Every arrival in dispatch order.
    ops: Vec<Op>,
    /// Per tick, the end of its arrivals in `ops`.
    tick_end: Vec<usize>,
    /// Per fault cycle, its schedule.
    faults: Vec<Vec<FaultEvent>>,
}

/// One open-loop arrival and its seeded choices.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Publish to a topic.
    Publish { topic: u8 },
    /// Write a file.
    File { k: u8 },
    /// Socket request from a client.
    Socket { client: u8 },
    /// Spawn a task.
    Task { submitter: u8, target: u8, arg: u32 },
}

/// The booted cluster and every piece of client state.
pub struct State {
    cluster: Cluster,
    store: FileStore,
    file_names: Vec<String>,
    topics: Vec<RecordLayout>,
    /// Damaged plants seen after roster episodes (traced runs only).
    plants: Vec<Plant>,
    /// Counts the probe does not keep.
    reads: u64,
    reads_busy: u64,
    writes: u64,
}

fn topic_layout(t: u32) -> RecordLayout {
    RecordLayout {
        region: TOPIC_REGION,
        offset: t * 64,
        data_len: TOPIC_LEN,
    }
}

fn file_name(k: usize) -> String {
    format!("f{k:02}")
}

impl Churn {
    /// `cycles` fault cycles from `seed`.
    pub fn new(seed: u64, cycles: u32) -> Self {
        let root = SimRng::new(seed);
        let mut rng = root.derive("services-churn");
        let fiber_m = common::fiber_m(&mut rng);
        let mut gens: Vec<ArrivalGen> = ["pubsub", "files", "socket", "threads"]
            .iter()
            .zip(RATES)
            .map(|(name, rate)| ArrivalGen::new(ArrivalProcess::Poisson, rate, root.derive(name)))
            .collect();
        let ticks = CYCLE.saturating_mul(cycles as u64).0 / TICK.0;
        let ticks_per_cycle = CYCLE.0 / TICK.0;
        let mut ops = Vec::new();
        let mut tick_end = Vec::with_capacity(ticks as usize);
        let mut faults = Vec::with_capacity(cycles as usize);
        let mut leader = GROUP.iter().max_by_key(|m| m.1).expect("group").0;
        let below = |rng: &mut SimRng, n: u64| rng.below(n) as u8;
        for tick in 0..ticks {
            if tick % ticks_per_cycle == 0 {
                faults.push(fault_cycle(&mut rng, leader));
                // The next leader is the best-qualified survivor.
                let q = GROUP.iter().find(|g| g.0 == leader).expect("member").1;
                leader = GROUP
                    .iter()
                    .filter(|m| m.1 < q)
                    .max_by_key(|m| m.1)
                    .map_or(leader, |m| m.0);
            }
            let n = [0, 1, 2, 3].map(|c| gens[c].arrivals_until((tick + 1) * TICK.0));
            for _ in 0..n[PUBSUB] {
                let topic = below(&mut rng, TOPICS as u64);
                ops.push(Op::Publish { topic });
            }
            for _ in 0..n[FILES_C] {
                let k = below(&mut rng, FILES as u64);
                ops.push(Op::File { k });
            }
            for _ in 0..n[SOCKET] {
                let client = below(&mut rng, SERVER as u64);
                ops.push(Op::Socket { client });
            }
            for _ in 0..n[THREADS] {
                let submitter = below(&mut rng, CLIENTS as u64);
                let target = (submitter + 1 + below(&mut rng, CLIENTS as u64 - 1)) % CLIENTS;
                let arg = rng.below(1 << 16) as u32;
                ops.push(Op::Task {
                    submitter,
                    target,
                    arg,
                });
            }
            tick_end.push(ops.len());
        }
        Churn {
            seed,
            cycles,
            hold: true,
            fiber_m,
            ops,
            tick_end,
            faults,
        }
    }

    /// The same workload with clients that keep issuing requests and
    /// collecting tasks while the ring is down, which trips
    /// [`RING_DOWN_DEFECTS`]; for the self-test that pins them.
    pub fn unheld(seed: u64, cycles: u32) -> Self {
        Churn {
            hold: false,
            ..Churn::new(seed, cycles)
        }
    }

    fn window(&self) -> SimDuration {
        CYCLE.saturating_mul(self.cycles as u64)
    }
}

impl Bench for Churn {
    type State = State;

    fn setup(&self) -> State {
        let files = FileStoreLayout {
            region: FILE_REGION,
            max_files: FILES as u32,
            heap_bytes: 16 * 1024,
        };
        let cfg = ClusterConfig::small(NODES as usize)
            .with_seed(self.seed)
            .with_fiber(self.fiber_m)
            .with_regions(vec![
                (0, 64 * 1024),
                (TOPIC_REGION, TOPICS * 64),
                (FILE_REGION, files.footprint()),
                (TASK_REGION, TASK_SLOTS * 16),
            ]);
        let mut cluster = Cluster::new(cfg);
        cluster.enable_trace(1024);
        cluster.enable_threads(TASK_REGION, TASK_SLOTS);
        cluster
            .sock_bind(SERVER, SERVER_PORT)
            .expect("server port free");
        for c in 0..SERVER {
            cluster.sock_bind(c, CLIENT_PORT).expect("client port free");
        }
        common::boot(&mut cluster);
        State {
            cluster,
            store: FileStore::new(files),
            file_names: (0..FILES).map(file_name).collect(),
            topics: (0..TOPICS).map(topic_layout).collect(),
            plants: Vec::new(),
            reads: 0,
            reads_busy: 0,
            writes: 0,
        }
    }

    fn enable_tracing(&self, st: &mut State) {
        st.cluster.enable_telemetry(FLIGHT_CAPACITY);
    }

    fn drive(&self, st: &mut State, probe: &mut Probe) -> Episode {
        let mut run = Run::new(self, st);
        run.go(self, st, probe);
        run.finish(st)
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
        let (events, dropped) = common::flight_events(&c.flight_dump());
        let tours = if dropped == 0 {
            common::tour_samples(&events, false)
        } else {
            Vec::new()
        };
        common::set_ring_latency(&tours, &[], out);
        out.set("cache.write_ns", probe.tally(Call::Write).mean_ns());
        out.set("cache.read_ns", probe.tally(Call::Read).mean_ns());
        out.set(
            "cache.read_busy_ratio",
            ratio(st.reads_busy as f64, st.reads as f64),
        );
        out.set(
            "cache.updates_per_write",
            ratio(
                common::counter(&snap, "cache_updates_applied"),
                st.writes as f64,
            ),
        );
        out.set(
            "services.sock_send_ns",
            probe.tally(Call::SockSend).mean_ns(),
        );
        out.set(
            "services.sock_recv_ns",
            probe.tally(Call::SockRecv).mean_ns(),
        );
        out.set("services.spawn_ns", probe.tally(Call::Spawn).mean_ns());
        out.set("services.collect_ns", probe.tally(Call::Collect).mean_ns());
        if let Some(r) = c.counter_report() {
            out.set("dk.resumes", r.resumes.len() as f64);
            out.set(
                "dk.lost_updates",
                r.resumes.iter().map(|x| x.lost_committed).sum::<u64>() as f64,
            );
        }
        // AmpIP fragments through its own (uninstrumented) `MsgTx`; the
        // fragment count is a function of the request size.
        let frags = MsgTx::new(0).send(SERVER, 0, &[0; REQUEST + 4]).len() as f64;
        out.set("services.fragments_per_msg", frags);
        let mut counts = common::cluster_counts(&snap, ep, c.roster_history());
        counts.msgs_sent = probe.tally(Call::SockSend).n as f64;
        counts.fragments = counts.msgs_sent * frags;
        counts
    }

    fn packet_mix(&self) -> Vec<MicroPacket> {
        let mut mix = MsgTx::new(0).send(SERVER, 0, &[0; REQUEST + 4]);
        mix.push(build::data_broadcast(0, 1, [0; 8]));
        for len in [8usize, 16, 64] {
            let ctrl = ampnet_packet::DmaCtrl {
                channel: 1,
                region: TOPIC_REGION,
                offset: 0,
                len: 0,
            };
            mix.push(
                build::dma(0, ampnet_packet::BROADCAST, 1, ctrl, &vec![0; len])
                    .expect("1..=64 bytes"),
            );
        }
        mix
    }

    fn message_sizes(&self) -> Vec<usize> {
        // AmpIP prepends the two ports.
        vec![REQUEST + 4]
    }

    fn plants(&self, st: &State) -> Vec<Plant> {
        let mut p = st.plants.clone();
        if p.is_empty() {
            p.push(st.cluster.topology().clone());
        }
        p
    }
}

/// One fault cycle's schedule, offsets from now.
fn fault_cycle(rng: &mut SimRng, leader: u8) -> Vec<FaultEvent> {
    let ms = SimDuration::from_millis;
    let node = rng.below(NODES as u64) as u8;
    let sw = rng.below(4) as u8;
    let sw2 = rng.below(4) as u8;
    let burst = rng.below(NODES as u64) as u8;
    vec![
        FaultEvent {
            at: ms(2),
            op: FaultOp::CutFiber(node, sw),
        },
        FaultEvent {
            at: ms(12),
            op: FaultOp::SpliceFiber(node, sw),
        },
        FaultEvent {
            at: ms(22),
            op: FaultOp::FailSwitch(sw2),
        },
        FaultEvent {
            at: ms(32),
            op: FaultOp::RepairSwitch(sw2),
        },
        FaultEvent {
            at: ms(42),
            op: FaultOp::ErrorBurst {
                node: burst,
                seed: rng.next_u64(),
                errors: 6,
            },
        },
        FaultEvent {
            at: ms(50),
            op: FaultOp::CrashNode(leader),
        },
        FaultEvent {
            at: ms(52),
            op: FaultOp::Rejoin(leader),
        },
    ]
}

/// One episode's client-side bookkeeping.
struct Run {
    window: SimDuration,
    hold: bool,
    ep: Episode,
    hash: Fnv64,
    /// Per topic: next sequence to publish.
    topic_seq: Vec<u64>,
    /// Per (subscriber, topic): highest sequence observed.
    seen: BTreeMap<(u8, usize), u64>,
    file_versions: Vec<u32>,
    file_outstanding: Vec<VecDeque<u32>>,
    ledger: Ledger,
    socket_in_flight: u64,
    tasks: BTreeMap<u32, (u8, u32)>,
    task_cursor: u32,
    sem_target: u64,
    completed: u64,
    /// Application payload bytes of completed operations.
    bytes: u64,
    roster_seen: usize,
    events0: u64,
}

impl Run {
    fn new(w: &Churn, st: &State) -> Self {
        Run {
            window: w.window(),
            hold: w.hold,
            ep: Episode::default(),
            hash: Fnv64::new(),
            topic_seq: vec![0; TOPICS as usize],
            seen: BTreeMap::new(),
            file_versions: vec![0; FILES],
            file_outstanding: (0..FILES).map(|_| VecDeque::new()).collect(),
            ledger: Ledger::default(),
            socket_in_flight: 0,
            tasks: BTreeMap::new(),
            task_cursor: 0,
            sem_target: 0,
            completed: 0,
            bytes: 0,
            roster_seen: 0,
            events0: st.cluster.events_processed(),
        }
    }

    /// Whether clients may issue requests now (see `Churn::hold`).
    fn may_issue(&self, st: &State) -> bool {
        !self.hold || st.cluster.ring_up()
    }

    fn subscribers() -> [u8; 2] {
        [2, 3]
    }

    fn go(&mut self, w: &Churn, st: &mut State, probe: &mut Probe) {
        let t0 = st.cluster.now();
        let deadline = t0 + self.window;
        self.roster_seen = st.cluster.roster_history().len();
        // The counter app and the semaphore storm ride the whole window.
        let policy = FailoverPolicy::default();
        st.cluster.start_counter_app(CounterAppConfig {
            members: GROUP.to_vec(),
            policy,
            counter_layout: RecordLayout {
                region: 0,
                offset: 4096,
                data_len: 8,
            },
            heartbeat_layout: RecordLayout {
                region: 0,
                offset: 4160,
                data_len: 8,
            },
            deadline,
        });
        let contenders = vec![1u8, 2, 3];
        let rounds = (self.window.0 / 1_000_000) as u32; // one per contender per ms
        self.sem_target = contenders.len() as u64 * rounds as u64;
        st.cluster.start_sem_stress(SemStressConfig {
            addr: SemaphoreAddr {
                home: 0,
                region: 0,
                offset: 2048,
            },
            contenders,
            rounds,
            crit: SimDuration::from_micros(20),
            backoff: BackoffPolicy::default(),
        });
        let ticks_per_cycle = (CYCLE.0 / TICK.0) as usize;
        let mut crashes: Vec<(SimTime, u8)> = Vec::new();
        let mut start = 0;
        for (tick, &end) in w.tick_end.iter().enumerate() {
            if tick % ticks_per_cycle == 0 {
                let faults = &w.faults[tick / ticks_per_cycle];
                crashes.extend(apply_fault_schedule(&mut st.cluster, faults));
            }
            if self.may_issue(st) {
                self.dispatch(st, probe, &w.ops[start..end]);
                start = end;
            }
            probe.time(Call::Run, || st.cluster.run_for(TICK));
            self.harvest(st, probe);
            let now = st.cluster.now();
            crashes.retain(|&(at, node)| {
                if at <= now {
                    self.ledger.doom_endpoint(node);
                }
                at > now
            });
            if probe.is_on() && st.cluster.roster_history().len() > self.roster_seen {
                self.roster_seen = st.cluster.roster_history().len();
                if st.plants.len() < 16 {
                    st.plants.push(st.cluster.topology().clone());
                }
            }
        }
        // Settle: requests still held are issued once the ring is up;
        // in-flight work drains, reassimilation completes.
        for _ in 0..(CYCLE.0 / 2 / TICK.0) {
            if start < w.ops.len() && self.may_issue(st) {
                self.dispatch(st, probe, &w.ops[start..]);
                start = w.ops.len();
            }
            probe.time(Call::Run, || st.cluster.run_for(TICK));
            self.harvest(st, probe);
        }
    }

    fn dispatch(&mut self, st: &mut State, probe: &mut Probe, ops: &[Op]) {
        let c = &mut st.cluster;
        let now = c.now().0;
        for &op in ops {
            self.ep.attempted += 1;
            match op {
                Op::Publish { topic } => {
                    let t = topic as usize;
                    let publisher = (t % 2) as u8;
                    self.topic_seq[t] += 1;
                    let mut data = [0u8; TOPIC_LEN as usize];
                    data[..8].copy_from_slice(&self.topic_seq[t].to_be_bytes());
                    data[8..].copy_from_slice(&now.to_be_bytes());
                    let layout = st.topics[t];
                    probe.time(Call::Write, || c.record_write(publisher, layout, &data));
                    st.writes += 1;
                }
                Op::File { k } => {
                    let k = k as usize;
                    let mut data = [0u8; FILE_PAYLOAD];
                    data[..8].copy_from_slice(&now.to_be_bytes());
                    data[8..12].copy_from_slice(&self.file_versions[k].to_be_bytes());
                    let name = &st.file_names[k];
                    match probe.time(Call::Write, || c.file_write(0, &st.store, name, &data)) {
                        Ok(()) => {
                            st.writes += 1;
                            self.file_versions[k] += 1;
                            self.file_outstanding[k].push_back(self.file_versions[k]);
                        }
                        Err(_) => self.ep.failed += 1,
                    }
                }
                Op::Socket { client } => {
                    let mut payload = self.ledger.send(client, SERVER, c.now());
                    payload.resize(REQUEST, client);
                    let dst = SockAddr {
                        node: SERVER,
                        port: SERVER_PORT,
                    };
                    match probe.time(Call::SockSend, || {
                        c.sock_send(client, CLIENT_PORT, dst, &payload)
                    }) {
                        Ok(()) => self.socket_in_flight += 1,
                        Err(_) => self.ep.failed += 1,
                    }
                }
                Op::Task {
                    submitter,
                    target,
                    arg,
                } => {
                    let slot = (0..TASK_SLOTS)
                        .map(|i| (self.task_cursor + i) % TASK_SLOTS)
                        .find(|s| !self.tasks.contains_key(s));
                    let Some(slot) = slot else {
                        self.ep.failed += 1; // table saturated: shed
                        continue;
                    };
                    self.task_cursor = (slot + 1) % TASK_SLOTS;
                    if probe.time(Call::Spawn, || {
                        c.spawn_remote(submitter, slot, TaskKind::Square, target, arg)
                    }) {
                        self.tasks.insert(slot, (submitter, arg));
                    } else {
                        // Refused: the submitter's replica still shows the
                        // slot taken (see README, known defects).
                        self.ep.failed += 1;
                    }
                }
            }
        }
    }

    fn harvest(&mut self, st: &mut State, probe: &mut Probe) {
        let collect = self.may_issue(st);
        let c = &mut st.cluster;
        // pub/sub: every subscriber polls every topic.
        for sub in Self::subscribers() {
            for (t, &layout) in st.topics.iter().enumerate() {
                st.reads += 1;
                match probe.time(Call::Read, || c.record_try_read(sub, layout)) {
                    ReadOutcome::Ok { data, .. } => {
                        let seq = u64::from_be_bytes(data[..8].try_into().expect("16-byte record"));
                        let e = self.seen.entry((sub, t)).or_insert(0);
                        if seq < *e && self.ep.problems.len() < 8 {
                            self.ep.problems.push(format!(
                                "topic {t} went back from {e} to {seq} at node {sub} at {:?}",
                                c.now()
                            ));
                        }
                        *e = (*e).max(seq);
                    }
                    ReadOutcome::Busy => st.reads_busy += 1,
                }
            }
        }
        // files: a write completes when its paired reader sees it.
        for (k, q) in self.file_outstanding.iter_mut().enumerate() {
            if q.is_empty() {
                continue;
            }
            let reader = 1 + (k as u8) % (CLIENTS - 1);
            let Ok(info) = st.store.stat(c.cache(reader), &st.file_names[k]) else {
                continue;
            };
            while q.front().is_some_and(|&v| v <= info.version) {
                q.pop_front();
                self.completed += 1;
                self.bytes += FILE_PAYLOAD as u64;
            }
        }
        // socket: the server echoes; a client completes on the echo.
        while let Some(req) = probe.time(Call::SockRecv, || c.sock_recv(SERVER, SERVER_PORT)) {
            self.ledger.drained(SERVER, &req.data[..14]);
            self.hash.fold(&req.data);
            let _ = probe.time(Call::SockSend, || {
                c.sock_send(SERVER, SERVER_PORT, req.from, &req.data)
            });
        }
        for client in 0..SERVER {
            while let Some(echo) = probe.time(Call::SockRecv, || c.sock_recv(client, CLIENT_PORT)) {
                if echo.data.len() != REQUEST && self.ep.problems.len() < 8 {
                    self.ep
                        .problems
                        .push(format!("echo of {} bytes", echo.data.len()));
                }
                self.socket_in_flight = self.socket_in_flight.saturating_sub(1);
                self.completed += 1;
                self.bytes += 2 * REQUEST as u64;
            }
        }
        // threads: collect finished tasks.
        let slots: Vec<u32> = if collect {
            self.tasks.keys().copied().collect()
        } else {
            Vec::new()
        };
        for slot in slots {
            let (submitter, arg) = self.tasks[&slot];
            if let Some(result) = probe.time(Call::Collect, || c.collect_remote(submitter, slot)) {
                self.tasks.remove(&slot);
                self.completed += 1;
                self.bytes += 8;
                self.hash.fold_u64(result as u64);
                if result != TaskKind::Square.run(arg) && self.ep.problems.len() < 8 {
                    self.ep
                        .problems
                        .push(format!("task {slot} returned {result} for {arg}"));
                }
            }
        }
    }

    fn finish(mut self, st: &mut State) -> Episode {
        let c = &st.cluster;
        // pub/sub: a publish completes once every subscriber saw it.
        let mut pub_done = 0;
        for (t, &issued) in self.topic_seq.iter().enumerate() {
            let seen = Self::subscribers()
                .iter()
                .map(|&s| self.seen.get(&(s, t)).copied().unwrap_or(0))
                .min()
                .unwrap_or(0);
            pub_done += seen.min(issued);
            self.ep.failed += issued - seen.min(issued);
        }
        self.completed += pub_done;
        self.bytes += pub_done * TOPIC_LEN as u64;
        for q in &self.file_outstanding {
            self.ep.failed += q.len() as u64;
        }
        self.ep.failed += self.socket_in_flight + self.tasks.len() as u64;
        if let Some(rep) = c.sem_report() {
            self.ep.attempted += self.sem_target;
            self.completed += rep.acquisitions;
            self.ep.failed += rep.unfinished;
        }
        self.ep.msgs = self.completed;

        let invariants: [&dyn Invariant; 7] = [
            &RingDrops,
            &LosslessDelivery,
            &NoDuplicates,
            &SeqlockCoherence,
            &ReconvergenceBound { max_tours: 3.5 },
            &MutualExclusion,
            &StateConservation,
        ];
        let ctx = CheckCtx {
            phase: Phase::End,
            step: 0,
            now: c.now(),
            cluster: c,
            ledger: &self.ledger,
            policy: None,
        };
        for inv in invariants {
            if let Err(e) = inv.check(&ctx) {
                self.ep.problems.push(format!("{}: {e}", inv.name()));
            }
        }
        match c.counter_report() {
            Some(r) => {
                let values: Vec<u64> = r.final_values.iter().map(|v| v.1).collect();
                if values.iter().any(|&v| v < r.committed)
                    || values.windows(2).any(|w| w[0] != w[1])
                {
                    self.ep.problems.push(format!(
                        "counter replicas {:?} disagree with committed {}",
                        r.final_values, r.committed
                    ));
                }
                if r.committed == 0 {
                    self.ep
                        .problems
                        .push("counter app committed nothing".into());
                }
                self.hash
                    .fold_u64(r.committed)
                    .fold_u64(r.resumes.len() as u64);
            }
            None => self.ep.problems.push("counter app did not run".into()),
        }
        self.ep.reconverge_p50_us = common::reconverge_p50_us(c.roster_history());
        self.ep.goodput_mbps = ratio(self.bytes as f64 * 8.0 * 1e3, self.window.0 as f64);
        self.ep.events = c.events_processed() - self.events0;
        self.hash
            .fold_u64(c.trace().digest())
            .fold_u64(self.ep.events)
            .fold_u64(c.now().0)
            .fold_u64(self.ep.msgs)
            .fold_u64(self.ep.failed);
        self.ep.digest = self.hash.finish();
        self.ep
    }
}
