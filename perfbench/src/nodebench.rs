//! The `tva-node` workloads: `PktGen` → `RingPort` → `NodeEngine` on one
//! thread, with the default exact-state router.
//!
//! One repeat is:
//!
//! 1. **Set-up** (`setup_s`): build the node and the generator (minting
//!    every legit flow's capability template) and run a fixed warm-up
//!    frame count through them, so the packet pool, the flow table and the
//!    queues are populated before timing.
//! 2. **Phase A, closed loop**: a fixed frame count, generator burst →
//!    node poll → sink drain, then a drain of everything still queued.
//!    The ring backpressures, so the forwarded rate is the zero-loss rate
//!    (`fwd_mpps`). The frame count is fixed, not the duration, so the
//!    router, scheduler and node counters must repeat exactly.
//! 3. **Phase B, open loop**: frames due at a fixed rate, each stamped
//!    with its due time; latency runs from due time to the sink
//!    (`lat_p50_us`), so a stall also delays the frames due during it.
//!
//! Every timed interval is scaled by the host's slowness measured next to
//! it (see [`crate::calib`]).
//!
//! The traced repeat replaces `NodeEngine::poll` in phase A by the same
//! steps called one by one, timed per batch (see [`TracedDriver`]).

use std::collections::VecDeque;
use std::time::Instant;

use tva_node::pktgen::ip_id;
use tva_node::{
    ring_pair, MixKind, NodeClock, NodeConfig, NodeEngine, PktGen, RingPort, Transport,
    NODE_INGRESS,
};
use tva_sim::{Enqueued, Pkt, QueueDisc, SimTime};
use tva_wire::ipcodec::{decode_packet, encode_packet_into};
use tva_wire::Grant;

use crate::calib::Calibrator;
use crate::report::{derive, median, peak_rss_mb, quantile_u64, ratio, Outcome};
use crate::Args;

/// Frames per generator burst and per node RX/TX burst.
const BATCH: usize = 64;
/// In the traced driver, one frame in this many gets its own clock reads
/// around `TvaRouter::process`, for the per-verdict spans.
const VERDICT_SAMPLE: u64 = 64;
/// Phase A frames per throughput sample.
const CHUNK: u64 = 1 << 17;
/// Phase B frames per latency-median sample.
const LAT_CHUNK: usize = 25_000;
/// Slots per ring direction (a power of two).
const RING_DEPTH: usize = 1024;
/// Repeats run even when the measuring window is shorter.
const MIN_REPEATS: usize = 3;

/// One node workload's inputs.
pub struct NodeSpec {
    mix: MixKind,
    /// Legitimate flows in the generated mix.
    flows: usize,
    /// Flow-record sampling, 1-in-N (0 = off).
    sample_n: u32,
    warmup_frames: u64,
    /// Phase A frame count.
    frames_a: u64,
    /// Phase B offered rate, frames per second.
    openloop_pps: u64,
    /// Phase B frame count.
    frames_b: u64,
}

/// Clean mix: 128 legit flows of ~50 B frames.
pub const NODE_CLEAN: NodeSpec = NodeSpec {
    mix: MixKind::Clean,
    flows: 128,
    sample_n: 0,
    warmup_frames: 1 << 18,
    frames_a: 2_000_000,
    openloop_pps: 500_000,
    frames_b: 250_000,
};

/// Dirty mix (45% legit, 20% request flood with forged path ids, 15%
/// spoofed capabilities, 10% legacy, 10% malformed), 16,384 legit flows,
/// flow records sampled 1-in-16.
///
/// Phase B offers half the clean rate: the flood forwards at roughly 60% of
/// the clean rate, and at 0.5 Mpps the open loop ran so close to capacity
/// that host preemption moved the median latency by 2x from run to run.
pub const NODE_FLOOD: NodeSpec = NodeSpec {
    mix: MixKind::Dirty,
    flows: 16_384,
    sample_n: 16,
    openloop_pps: 250_000,
    frames_b: 125_000,
    ..NODE_CLEAN
};

/// Refuses a flow count whose rotated sources can alias.
///
/// `PktGen` draws a legit flow's source as `172.16.0.0 | (generation &
/// 0xFFFF)`, its generation advancing by the flow count at each rotation
/// (one rotation per half grant of bytes). Two flows share a source, and
/// every frame of both then misses the nonce cache, unless the flow count
/// divides 2^16; and one flow comes back to an earlier source of its own
/// after 2^16 / flows rotations.
fn check_flow_population(spec: &NodeSpec) -> Result<(), String> {
    let f = spec.flows as u64;
    if !(f.is_power_of_two() && f <= 1 << 16) {
        return Err(format!(
            "{f} legit flows can alias in pktgen's /16 source block (need a power of two <= 65536)"
        ));
    }
    // Every frame of a repeat legit, at a generous 128 B per frame: the
    // most rotations a flow can make.
    let frames = spec.warmup_frames + spec.frames_a + spec.frames_b;
    let half_grant = Grant::from_parts(1023, 63).n.bytes() / 2;
    let rotations = (frames / f) * 128 / half_grant + 1;
    if rotations >= (1 << 16) / f {
        return Err(format!(
            "{f} legit flows rotate {rotations} times per repeat and revisit their own sources"
        ));
    }
    Ok(())
}

/// Generator, node and both ring ends, plus the sink's count.
struct Rig {
    clock: NodeClock,
    node: NodeEngine,
    gen: PktGen,
    /// The node's port.
    port: RingPort,
    /// The far end: the generator transmits and the sink receives here.
    wire: RingPort,
    sink: u64,
}

/// Counters that must repeat exactly for the same frames.
#[derive(Debug, Clone, PartialEq)]
struct Counters {
    router: String,
    sched: String,
    node: String,
    gen: String,
}

impl Counters {
    fn of(r: &Rig) -> Self {
        Counters {
            router: format!("{:?}", r.node.router.stats),
            sched: format!("{:?}", r.node.sched.stats),
            node: format!("{:?}", r.node.stats),
            gen: format!("{:?}", r.gen.stats),
        }
    }
}

/// What a repeat's phase A measured; counts cover phase A alone.
struct PhaseA {
    /// Wall time, less the calibration kernel's.
    wall_s: f64,
    /// Forwarded and received Mpps over each [`CHUNK`] offered frames,
    /// scaled to the nominal host speed.
    chunks: Vec<(f64, f64)>,
    /// Cumulative counters at the end of phase A (warm-up included).
    counters: Counters,
    offered: u64,
    legit_offered: u64,
    rx: u64,
    forwarded: u64,
    received: u64,
    malformed: u64,
    queue_drops: u64,
    legit_delivered: u64,
    nonce_hits: u64,
    full_validations: u64,
    stamps: u64,
    demotions: u64,
    flow_entries: usize,
    state_bytes: usize,
    flow_records: usize,
}

struct PhaseB {
    lat_ns: Vec<u64>,
    /// The host's slowness over phase B.
    slowness: f64,
    lag_ns: Vec<u64>,
    offered: u64,
    malformed: u64,
}

impl Rig {
    /// Builds node and generator for `spec` under the workload seed and
    /// runs the warm-up.
    fn setup(spec: &NodeSpec, seed: u64) -> Rig {
        let cfg = NodeConfig {
            secret_seed: derive(seed, 1),
            mix: spec.mix,
            flows: spec.flows,
            sample_n: spec.sample_n,
            ..NodeConfig::default()
        };
        let clock = NodeClock::new();
        let node = NodeEngine::new(&cfg);
        let gen = PktGen::new(&cfg, clock.now());
        let (port, wire) = ring_pair(RING_DEPTH);
        let mut rig = Rig {
            clock,
            node,
            gen,
            port,
            wire,
            sink: 0,
        };
        rig.closed_loop(spec.warmup_frames, &mut Plain, None);
        rig
    }

    /// Offers exactly `frames` frames (generator burst, node poll, sink
    /// drain), then polls until nothing is left in the rings or the
    /// scheduler. With `chunks`, records the calibrated rates of every
    /// [`CHUNK`] offered frames.
    fn closed_loop(
        &mut self,
        frames: u64,
        drv: &mut impl Driver,
        mut chunks: Option<(&mut Vec<(f64, f64)>, &mut Calibrator)>,
    ) {
        let mut emitted = 0;
        let counts = |r: &Rig| (r.node.stats.tx_frames, r.node.stats.rx_frames);
        if let Some((_, cal)) = chunks.as_mut() {
            cal.mark();
        }
        let mut chunk = (Instant::now(), counts(self), CHUNK);
        while emitted < frames {
            emitted += drv.gen(self, (frames - emitted).min(BATCH as u64) as usize) as u64;
            drv.poll(self);
            drv.sink(self);
            if let Some((rates, cal)) = chunks.as_mut() {
                if emitted >= chunk.2 {
                    let ((tx, rx), (tx0, rx0)) = (counts(self), chunk.1);
                    let s = chunk.0.elapsed().as_secs_f64() * 1e6 / cal.interval();
                    rates.push(((tx - tx0) as f64 / s, (rx - rx0) as f64 / s));
                    chunk = (Instant::now(), (tx, rx), chunk.2 + CHUNK);
                }
            }
        }
        loop {
            let (rx, tx) = drv.poll(self);
            let sunk = drv.sink(self);
            if rx == 0 && tx == 0 && sunk == 0 && self.node.sched.len_pkts() == 0 && drv.idle() {
                return;
            }
        }
    }

    /// Phase A: `frames` frames closed-loop through `drv`.
    fn phase_a(&mut self, frames: u64, drv: &mut impl Driver, cal: &mut Calibrator) -> PhaseA {
        let snap = |r: &Rig| {
            let (rs, ss, ns, gs) = (
                &r.node.router.stats,
                &r.node.sched.stats,
                &r.node.stats,
                &r.gen.stats,
            );
            [
                gs.total(),
                gs.legit,
                ns.rx_frames,
                ns.tx_frames,
                r.sink,
                ns.malformed_drops,
                ns.queue_drops,
                ss.regular_sent,
                rs.nonce_hits,
                rs.full_validations,
                rs.requests_stamped,
                rs.demotions,
            ]
        };
        let before = snap(self);
        let (t0, spent0) = (Instant::now(), cal.spent_s);
        let mut chunks = Vec::new();
        self.closed_loop(frames, drv, Some((&mut chunks, &mut *cal)));
        let wall_s = t0.elapsed().as_secs_f64() - (cal.spent_s - spent0);
        let after = snap(self);
        let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        PhaseA {
            wall_s,
            chunks,
            counters: Counters::of(self),
            offered: d[0],
            legit_offered: d[1],
            rx: d[2],
            forwarded: d[3],
            received: d[4],
            malformed: d[5],
            queue_drops: d[6],
            legit_delivered: d[7],
            nonce_hits: d[8],
            full_validations: d[9],
            stamps: d[10],
            demotions: d[11],
            flow_entries: self.node.router.table().len(),
            state_bytes: self.node.router.table().state_bytes_estimate()
                + self.node.sched.request_state_bytes(),
            flow_records: self.node.router.flow.len() + self.node.sched.flow.len(),
        }
    }

    /// Phase B: `spec.frames_b` frames offered open-loop at
    /// `spec.openloop_pps`, each timed from its due time to the sink.
    fn phase_b(&mut self, spec: &NodeSpec, cal: &mut Calibrator) -> PhaseB {
        cal.mark();
        // PktGen stamps every frame but the malformed ones with the next
        // IP id (wrapping u16) and the node carries the id through; the
        // due time of each id in flight is kept here.
        self.gen.enable_latency_tracking();
        let mut due_of = vec![0u64; 1 << 16];
        let mut next_id = 0u16;
        let mut lat_ns = Vec::with_capacity(spec.frames_b as usize);
        let mut lag_ns = Vec::with_capacity(spec.frames_b as usize);
        let period_ns = 1e9 / spec.openloop_pps as f64;
        let malformed0 = self.gen.stats.malformed;
        let t0 = self.clock.now().as_nanos();
        let mut i = 0u64;
        let receive = |rig: &mut Rig, due_of: &mut [u64], lat_ns: &mut Vec<u64>| {
            let now = rig.clock.now().as_nanos();
            let n = rig.wire.rx_burst(BATCH, &mut |f| {
                if let Some(id) = ip_id(f) {
                    let due = std::mem::take(&mut due_of[id as usize]);
                    if due != 0 {
                        lat_ns.push(now.saturating_sub(due));
                    }
                }
            });
            rig.sink += n as u64;
            n
        };
        while i < spec.frames_b {
            let now = self.clock.now().as_nanos();
            let due_n = (((now - t0) as f64 / period_ns) as u64 + 1).min(spec.frames_b);
            let mut burst = 0;
            // Emit only into free ring slots: a refused frame would still
            // have consumed an id, and the ids would drift.
            while i < due_n && burst < BATCH && self.port.rx.len() < RING_DEPTH {
                let due = t0 + (i as f64 * period_ns) as u64;
                let malformed = self.gen.stats.malformed;
                let sent = self
                    .gen
                    .fill_burst(&mut self.wire, 1, SimTime::from_nanos(due));
                debug_assert_eq!(sent, 1);
                if self.gen.stats.malformed == malformed {
                    due_of[next_id as usize] = due;
                    next_id = next_id.wrapping_add(1);
                }
                lag_ns.push(now.saturating_sub(due));
                i += 1;
                burst += 1;
            }
            self.node.poll(&mut self.port, &self.clock, BATCH);
            receive(self, &mut due_of, &mut lat_ns);
        }
        loop {
            let (rx, tx) = self.node.poll(&mut self.port, &self.clock, BATCH);
            let sunk = receive(self, &mut due_of, &mut lat_ns);
            if rx == 0 && tx == 0 && sunk == 0 && self.node.sched.len_pkts() == 0 {
                break;
            }
        }
        PhaseB {
            lat_ns,
            slowness: cal.interval(),
            lag_ns,
            offered: spec.frames_b,
            malformed: self.gen.stats.malformed - malformed0,
        }
    }
}

/// How phase A drives the node: [`Plain`] calls `NodeEngine::poll`,
/// [`TracedDriver`] performs its steps itself and times them.
trait Driver {
    /// One generator burst of up to `n` frames; returns frames sent.
    fn gen(&mut self, r: &mut Rig, n: usize) -> usize;
    /// One node RX burst and TX burst; returns `(rx, tx)`.
    fn poll(&mut self, r: &mut Rig) -> (usize, usize);
    /// One sink drain; returns frames received.
    fn sink(&mut self, r: &mut Rig) -> usize;
    /// Whether the driver holds no packet of its own.
    fn idle(&self) -> bool {
        true
    }
}

/// The daemon's own poll loop.
struct Plain;

impl Driver for Plain {
    fn gen(&mut self, r: &mut Rig, n: usize) -> usize {
        r.gen.fill_burst(&mut r.wire, n, r.clock.now())
    }

    fn poll(&mut self, r: &mut Rig) -> (usize, usize) {
        r.node.poll(&mut r.port, &r.clock, BATCH)
    }

    fn sink(&mut self, r: &mut Rig) -> usize {
        let n = r.wire.rx_burst(BATCH, &mut |_| ());
        r.sink += n as u64;
        n
    }
}

/// Busy time and work count of one layer.
#[derive(Clone, Copy, Default)]
struct Span {
    ns: u64,
    n: u64,
}

impl Span {
    fn add(&mut self, since: Instant, n: usize) {
        self.ns += since.elapsed().as_nanos() as u64;
        self.n += n as u64;
    }

    fn per(&self) -> f64 {
        ratio(self.ns as f64, self.n as f64)
    }
}

/// Per-verdict span names, in [`verdict_counts`] order.
const VERDICTS: [&str; 5] = [
    "router.process_ns.nonce_hit",
    "router.process_ns.validated",
    "router.process_ns.request",
    "router.process_ns.demoted",
    "router.process_ns.legacy",
];

fn verdict_counts(s: &tva_core::RouterStats) -> [u64; 5] {
    [
        s.nonce_hits,
        s.full_validations,
        s.requests_stamped,
        s.demotions,
        s.legacy,
    ]
}

/// The traced driver's totals.
#[derive(Clone, Copy, Default)]
struct Times {
    gen: Span,
    /// Ring pops: the node's RX (copying each frame out) and the sink's.
    rx: Span,
    /// Ring pushes of the node's TX.
    tx: Span,
    decode: Span,
    process: Span,
    verdict: [Span; 5],
    enqueue: Span,
    dequeue: Span,
    encode: Span,
    malformed: u64,
    drops: u64,
    depth_max: usize,
}

impl Times {
    fn merge(&mut self, o: &Times) {
        for (a, b) in [
            (&mut self.gen, o.gen),
            (&mut self.rx, o.rx),
            (&mut self.tx, o.tx),
            (&mut self.decode, o.decode),
            (&mut self.process, o.process),
            (&mut self.enqueue, o.enqueue),
            (&mut self.dequeue, o.dequeue),
            (&mut self.encode, o.encode),
        ] {
            a.ns += b.ns;
            a.n += b.n;
        }
        for (a, b) in self.verdict.iter_mut().zip(o.verdict) {
            a.ns += b.ns;
            a.n += b.n;
        }
        self.malformed += o.malformed;
        self.drops += o.drops;
        self.depth_max = self.depth_max.max(o.depth_max);
    }

    /// Time inside the timed layers. The per-verdict spans sit inside
    /// `process` and are not added again.
    fn covered_ns(&self) -> u64 {
        [
            self.gen,
            self.rx,
            self.tx,
            self.decode,
            self.process,
            self.enqueue,
            self.dequeue,
            self.encode,
        ]
        .iter()
        .map(|s| s.ns)
        .sum()
    }
}

/// `NodeEngine::poll` taken apart: ring RX, `decode_packet`,
/// `TvaRouter::process`, `TvaScheduler::enqueue`, `TvaScheduler::dequeue`,
/// `encode_packet_into` and ring TX each run over the whole batch, so the
/// clock is read once per stage and batch rather than per frame. One frame
/// in [`VERDICT_SAMPLE`] is timed on its own through `process`, for the
/// per-verdict spans.
///
/// Staging copies each frame out of its ring slot and encodes into a
/// scratch buffer before the ring push: two copies `poll` does not make,
/// part of the trace overhead. Counters match `poll` for the same frames
/// as long as the TX ring never fills, which the closed loop guarantees.
struct TracedDriver {
    arena: Vec<Vec<u8>>,
    pkts: Vec<Pkt>,
    out: Vec<Pkt>,
    enc: Vec<Vec<u8>>,
    pending: VecDeque<Pkt>,
    seen: u64,
    /// Cost of one clock-read pair, taken off each per-verdict span.
    clock_ns: u64,
    t: Times,
}

impl TracedDriver {
    fn new() -> Self {
        let bufs = || {
            (0..BATCH)
                .map(|_| Vec::with_capacity(tva_node::MAX_FRAME))
                .collect()
        };
        TracedDriver {
            arena: bufs(),
            pkts: Vec::with_capacity(BATCH),
            out: Vec::with_capacity(BATCH),
            enc: bufs(),
            pending: VecDeque::new(),
            seen: 0,
            clock_ns: clock_pair_ns(),
            t: Times::default(),
        }
    }
}

/// Median cost of an `Instant::now()` / `elapsed()` pair around nothing.
fn clock_pair_ns() -> u64 {
    let mut v: Vec<u64> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    quantile_u64(&mut v, 0.5) as u64
}

impl Driver for TracedDriver {
    fn gen(&mut self, r: &mut Rig, n: usize) -> usize {
        let t = Instant::now();
        let sent = r.gen.fill_burst(&mut r.wire, n, r.clock.now());
        self.t.gen.add(t, sent);
        sent
    }

    fn poll(&mut self, r: &mut Rig) -> (usize, usize) {
        let node = &mut r.node;
        let now = r.clock.now();

        let t = Instant::now();
        let mut k = 0;
        let arena = &mut self.arena;
        r.port.rx_burst(BATCH, &mut |f| {
            let buf = &mut arena[k];
            buf.clear();
            buf.extend_from_slice(f);
            k += 1;
        });
        self.t.rx.add(t, k);

        let t = Instant::now();
        for buf in &self.arena[..k] {
            node.stats.rx_frames += 1;
            node.stats.rx_bytes += buf.len() as u64;
            match decode_packet(buf) {
                Ok(p) => self.pkts.push(Pkt::new(p)),
                Err(_) => {
                    node.stats.malformed_drops += 1;
                    node.router.stats.malformed_drops += 1;
                    self.t.malformed += 1;
                }
            }
        }
        self.t.decode.add(t, k);

        let t = Instant::now();
        for p in self.pkts.iter_mut() {
            self.seen += 1;
            if self.seen.is_multiple_of(VERDICT_SAMPLE) {
                let before = verdict_counts(&node.router.stats);
                let ts = Instant::now();
                node.router.process(p, NODE_INGRESS, now);
                let after = verdict_counts(&node.router.stats);
                if let Some(v) = (0..VERDICTS.len()).find(|&i| after[i] != before[i]) {
                    let span = &mut self.t.verdict[v];
                    span.ns += (ts.elapsed().as_nanos() as u64).saturating_sub(self.clock_ns);
                    span.n += 1;
                }
            } else {
                node.router.process(p, NODE_INGRESS, now);
            }
        }
        self.t.process.add(t, self.pkts.len());

        let t = Instant::now();
        let offered = self.pkts.len();
        for mut p in self.pkts.drain(..) {
            p.set_enqueued_at(now);
            if node.sched.enqueue(p, now) == Enqueued::Dropped {
                node.stats.queue_drops += 1;
                self.t.drops += 1;
            }
        }
        self.t.enqueue.add(t, offered);
        self.t.depth_max = self.t.depth_max.max(node.sched.len_pkts());

        let now = r.clock.now();
        let t = Instant::now();
        while self.out.len() < BATCH {
            match self.pending.pop_front().or_else(|| node.sched.dequeue(now)) {
                Some(p) => self.out.push(p),
                None => break,
            }
        }
        self.t.dequeue.add(t, self.out.len());

        let t = Instant::now();
        for (p, buf) in self.out.iter().zip(self.enc.iter_mut()) {
            encode_packet_into(p, buf);
        }
        self.t.encode.add(t, self.out.len());

        let t = Instant::now();
        let mut sent = 0;
        for buf in &self.enc[..self.out.len()] {
            let pushed = r.port.tx_frame(&mut |slot| {
                slot.clear();
                slot.extend_from_slice(buf);
            });
            if !pushed {
                node.stats.tx_backpressure += 1;
                break;
            }
            sent += 1;
        }
        self.t.tx.add(t, sent);
        for p in self.out.drain(..sent) {
            node.stats.tx_frames += 1;
            node.stats.tx_bytes += p.wire_len() as u64;
        }
        // Frames the full ring refused go out first next time, in order.
        for p in self.out.drain(..).rev() {
            self.pending.push_front(p);
        }
        (k, sent)
    }

    fn sink(&mut self, r: &mut Rig) -> usize {
        let t = Instant::now();
        let n = r.wire.rx_burst(BATCH, &mut |_| ());
        self.t.rx.add(t, n);
        r.sink += n as u64;
        n
    }

    fn idle(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Runs a node workload: repeats of set-up, phase A and (untraced
/// repeats only) phase B until the measuring window closes. With
/// `--trace 1`, untraced and traced repeats alternate.
pub fn run(spec: &NodeSpec, args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    if let Err(e) = check_flow_population(spec) {
        out.fail(e);
        return out;
    }
    let (mut setup, mut fwd, mut mev, mut ok) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p99, mut p999, mut lag50, mut lag99, mut loss) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut times = Times::default();
    let mut cal = Calibrator::default();
    let mut reference: Option<Counters> = None;
    let mut last: Option<PhaseA> = None;
    // Peak RSS at the end of the first full repeat: later repeats reuse or
    // fragment the allocator's heap, which made the process-lifetime peak
    // depend on how many repeats fit the window.
    let mut rss_mb = 0.0;
    let min_repeats = if args.trace {
        2 * MIN_REPEATS
    } else {
        MIN_REPEATS
    };
    let mut reps = 0;
    while args.more(reps, min_repeats) {
        let traced = args.trace && reps % 2 == 1;
        reps += 1;
        cal.mark();
        let t0 = Instant::now();
        let mut rig = Rig::setup(spec, args.seed);
        setup.push(t0.elapsed().as_secs_f64() / cal.interval());
        let a = if traced {
            let mut drv = TracedDriver::new();
            let a = rig.phase_a(spec.frames_a, &mut drv, &mut cal);
            times.merge(&drv.t);
            a
        } else {
            rig.phase_a(spec.frames_a, &mut Plain, &mut cal)
        };

        // Every offered frame is forwarded, queue-dropped or malformed
        // (the drain leaves none queued), and the sink got every
        // forwarded frame.
        let accounted = a.forwarded + a.queue_drops + a.malformed;
        out.expect_eq(
            "phase A frames offered vs received by the node",
            a.offered,
            a.rx,
        );
        out.expect_eq(
            "phase A frames received vs forwarded + dropped + malformed",
            a.rx,
            accounted,
        );
        out.expect_eq(
            "phase A frames forwarded vs received at the sink",
            a.forwarded,
            a.received,
        );
        out.attempted += a.offered;
        out.failed +=
            a.offered.saturating_sub(accounted) + a.legit_offered.saturating_sub(a.legit_delivered);
        match &reference {
            None => reference = Some(a.counters.clone()),
            Some(c) if traced => {
                out.expect_eq("traced driver vs NodeEngine::poll counters", c, &a.counters)
            }
            Some(c) => out.expect_eq("counters between repeats", c, &a.counters),
        }
        if traced {
            traced_wall.push(a.wall_s);
            continue;
        }
        plain_wall.push(a.wall_s);
        fwd.extend(a.chunks.iter().map(|c| c.0));
        mev.extend(a.chunks.iter().map(|c| c.1));
        ok.push(ratio(a.legit_delivered as f64, a.legit_offered as f64));

        let mut b = rig.phase_b(spec, &mut cal);
        out.attempted += b.offered;
        for c in b.lat_ns.chunks(LAT_CHUNK) {
            p50.push(quantile_u64(&mut c.to_vec(), 0.5) / 1e3 / b.slowness);
        }
        p99.push(quantile_u64(&mut b.lat_ns, 0.99) / 1e3);
        p999.push(quantile_u64(&mut b.lat_ns, 0.999) / 1e3);
        lag50.push(quantile_u64(&mut b.lag_ns, 0.5) / 1e3);
        lag99.push(quantile_u64(&mut b.lag_ns, 0.99) / 1e3);
        let lost = (b.offered - b.malformed).saturating_sub(b.lat_ns.len() as u64);
        loss.push(ratio(lost as f64, b.offered as f64));
        eprintln!(
            "  repeat {reps}: setup {:.3}s calibrated; wall-clock A {:.3}s {:.3} Mpps, \
             B p50 {:.2}us p99 {:.2}us; host slowness {:.2}",
            setup.last().copied().unwrap_or(0.0),
            a.wall_s,
            a.forwarded as f64 / a.wall_s / 1e6,
            quantile_u64(&mut b.lat_ns, 0.5) / 1e3,
            p99.last().copied().unwrap_or(0.0),
            b.slowness,
        );
        if last.is_none() {
            rss_mb = peak_rss_mb();
        }
        last = Some(a);
    }

    out.set("setup_s", median(&setup));
    out.set("fwd_mpps", median(&fwd));
    // A simulator metric; every workload must report every end-to-end
    // metric, so here it is a stand-in: frames received by the node per
    // wall second, which equals `fwd_mpps` when nothing is dropped.
    out.set("sim_mevents_per_s", median(&mev));
    out.set("lat_p50_us", median(&p50));
    out.set("legit_ok_frac", median(&ok));
    out.set("peak_rss_mb", rss_mb);

    let t = &times;
    out.set("pktgen.ns_per_frame", t.gen.per());
    out.set("ring.rx_ns_per_frame", t.rx.per());
    out.set("ring.tx_ns_per_frame", t.tx.per());
    out.set("wire.decode_ns", t.decode.per());
    out.set("wire.encode_ns", t.encode.per());
    out.set(
        "wire.malformed_frac",
        ratio(t.malformed as f64, t.decode.n as f64),
    );
    out.set("router.process_ns", t.process.per());
    for (name, s) in VERDICTS.iter().zip(t.verdict) {
        out.set(name, s.per());
    }
    out.set("sched.enqueue_ns", t.enqueue.per());
    out.set("sched.dequeue_ns", t.dequeue.per());
    out.set("sched.drop_frac", ratio(t.drops as f64, t.enqueue.n as f64));
    out.set("sched.depth_max_pkts", t.depth_max as f64);
    if let Some(a) = &last {
        let kframe = a.rx as f64 / 1e3;
        let regular = (a.nonce_hits + a.full_validations) as f64;
        out.set(
            "router.nonce_hit_ratio",
            ratio(a.nonce_hits as f64, regular),
        );
        out.set(
            "router.full_validations_per_kframe",
            ratio(a.full_validations as f64, kframe),
        );
        out.set("router.stamps_per_kframe", ratio(a.stamps as f64, kframe));
        out.set(
            "router.demotions_per_kframe",
            ratio(a.demotions as f64, kframe),
        );
        out.set("flowtable.entries", a.flow_entries as f64);
        out.set("flowtable.state_bytes", a.state_bytes as f64);
        out.set("obs.flow_records", a.flow_records as f64);
        out.set(
            "legit_loss_frac",
            1.0 - ratio(a.legit_delivered as f64, a.legit_offered as f64),
        );
    }
    out.set("openloop.lat_p99_us", median(&p99));
    out.set("openloop.lat_p999_us", median(&p999));
    out.set("openloop.gen_lag_p50_us", median(&lag50));
    out.set("openloop.gen_lag_p99_us", median(&lag99));
    out.set("openloop.loss_frac", median(&loss));
    out.set("calib.slowness", median(&cal.samples));
    let traced_s: f64 = traced_wall.iter().sum();
    out.set(
        "trace.coverage",
        ratio(t.covered_ns() as f64 / 1e9, traced_s),
    );
    out.set(
        "trace.overhead_pct",
        (ratio(median(&traced_wall), median(&plain_wall)) - 1.0) * 100.0,
    );
    out
}
