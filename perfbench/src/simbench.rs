//! The simulator workloads: the fig8 dumbbell and a 100k-host tree, built
//! here from the crates' public constructors and run on one single-shard
//! engine thread.
//!
//! One repeat builds the topology and runs the warm-up (`setup_s`), then
//! runs to the horizon in 10 ms steps of simulated time; the wall time of
//! each step is one `lat_p50_us` sample. Every timed interval is scaled by
//! the host's slowness measured next to it (see [`crate::calib`]). The
//! event count, the transfer outcomes and the router and scheduler counters
//! are deterministic for a seed and must repeat exactly.
//!
//! The traced repeat builds the same topology with every node and queue
//! wrapped in a timing adapter ([`crate::span`]) and must dispatch the same
//! events to the same outcomes.

use std::hash::{DefaultHasher, Hasher};
use std::time::Instant;

use tva_core::{
    ClientPolicy, HostConfig, RouterConfig, ServerPolicy, TvaHostShim, TvaRouterNode, TvaScheduler,
};
use tva_sim::{
    ChannelId, DropTail, Node, NodeId, QueueDisc, SimDuration, SimTime, Simulator, TopologyBuilder,
};
use tva_transport::{ClientNode, FloodNode, ServerNode, TcpConfig, TOKEN_START};
use tva_wire::{Addr, CapHeader, Grant, Packet, PacketId};

use crate::calib::Calibrator;
use crate::report::{derive, median, peak_rss_mb, ratio, Outcome};
use crate::span::{self, Layer, TimedNode, TimedQueue};
use crate::Args;

/// Simulated time per step of the run loop.
const STEP: SimDuration = SimDuration::from_millis(10);
/// Repeats run even when the measuring window is shorter.
const MIN_REPEATS: usize = 3;

/// Which topology a workload runs.
#[derive(Clone, Copy)]
pub enum Shape {
    /// Fig8 (§5): 10 users with repeated 20 KB TCP transfers and 100
    /// attackers legacy-flooding at 1 Mb/s through a 10 Mb/s TVA
    /// bottleneck.
    Dumbbell,
    /// The `tva_bench::scale` tree at 100k hosts: 10 core routers of 10
    /// access routers each, 10k request-flooding attackers, 500 active
    /// users.
    Tree,
}

/// Dumbbell warm-up (part of set-up: the capability bootstrap and TCP
/// slow start) and horizon.
const DUMBBELL_WARMUP_SECS: u64 = 5;
const DUMBBELL_SECS: u64 = 60;
/// Throughput samples per measured window.
const CHUNKS: u64 = 10;

/// Tree parameters (`tva_bench::scale::ScaleConfig::full` at a tenth of
/// its hosts and attackers).
const TREE_HOSTS: usize = 100_000;
const TREE_ATTACKERS: usize = 10_000;
const TREE_ACTIVE: usize = 500;
const TREE_MIDS: usize = 10;
const TREE_LEAVES_PER_MID: usize = 10;
const TREE_SECS: u64 = 2;
const TREE_ATTACKER_BPS: u64 = 100_000;

/// Adds nodes and queues, wrapped in timing adapters when traced.
struct Topo {
    t: TopologyBuilder,
    traced: bool,
    routers: Vec<NodeId>,
    clients: Vec<NodeId>,
}

impl Topo {
    fn new(traced: bool) -> Self {
        Topo {
            t: TopologyBuilder::new(),
            traced,
            routers: Vec::new(),
            clients: Vec::new(),
        }
    }

    fn node(&mut self, layer: Layer, n: Box<dyn Node>) -> NodeId {
        let id = self.t.add_node(if self.traced {
            Box::new(TimedNode::new(n, layer))
        } else {
            n
        });
        if layer == Layer::Router {
            self.routers.push(id);
        }
        id
    }

    fn router(&mut self, cfg: &RouterConfig, bps: u64) -> NodeId {
        self.node(
            Layer::Router,
            Box::new(TvaRouterNode::new(cfg.clone(), bps)),
        )
    }

    fn client(&mut self, addr: Addr, server: Addr) -> NodeId {
        let c = self.node(
            Layer::Host,
            Box::new(ClientNode::new(
                addr,
                server,
                20 * 1024,
                1_000_000,
                TcpConfig::default(),
                Box::new(TvaHostShim::new(
                    addr,
                    HostConfig::default(),
                    Box::new(ClientPolicy {
                        grant: Grant::from_parts(100, 10),
                    }),
                )),
            )),
        );
        self.clients.push(c);
        c
    }

    fn server(&mut self, addr: Addr, grant: Grant) -> NodeId {
        let s = self.node(
            Layer::Host,
            Box::new(ServerNode::new(
                addr,
                TcpConfig::default(),
                Box::new(TvaHostShim::new(
                    addr,
                    HostConfig {
                        default_grant: grant,
                        ..HostConfig::default()
                    },
                    Box::new(ServerPolicy::new(grant, SimDuration::from_secs(30))),
                )),
            )),
        );
        self.t.bind_addr(s, addr);
        s
    }

    fn flood(&mut self, bps: u64, pkt: Packet) -> NodeId {
        self.node(
            Layer::Flood,
            Box::new(FloodNode::new(bps, Box::new(move |_, _| Some(pkt.clone())))),
        )
    }

    fn sched(&self, bps: u64, cfg: &RouterConfig) -> Box<dyn QueueDisc> {
        self.queue(
            Box::new(TvaScheduler::new(bps, cfg)),
            Layer::SchedEnqueue,
            Layer::SchedDequeue,
        )
    }

    fn droptail(&self) -> Box<dyn QueueDisc> {
        self.queue(
            Box::new(DropTail::new(1 << 20)),
            Layer::DropTailEnqueue,
            Layer::DropTailDequeue,
        )
    }

    fn queue(&self, q: Box<dyn QueueDisc>, enq: Layer, deq: Layer) -> Box<dyn QueueDisc> {
        if self.traced {
            Box::new(TimedQueue::new(q, enq, deq))
        } else {
            q
        }
    }
}

/// A built topology, ready to run.
struct Built {
    sim: Simulator,
    routers: Vec<NodeId>,
    clients: Vec<NodeId>,
    /// End of the warm-up run during set-up.
    warmup: SimTime,
    end: SimTime,
}

const DEST: Addr = Addr::new(10, 0, 0, 1);
const LINK_DELAY: SimDuration = SimDuration::from_millis(10);
const ACCESS_BPS: u64 = 100_000_000;

/// The fig8 testbed with the TVA routers (as `tva-experiments`' scenario
/// builds it for a 100-attacker legacy flood).
fn dumbbell(seed: u64, traced: bool) -> Built {
    let bottleneck: u64 = 10_000_000;
    let cfg = |stream| RouterConfig {
        request_fraction: 0.01,
        secret_seed: derive(seed, stream),
        ..RouterConfig::default()
    };
    let (cfg1, cfg2) = (cfg(0x1111), cfg(0x2222));
    let mut t = Topo::new(traced);
    let r1 = t.router(&cfg1, bottleneck);
    let r2 = t.router(&cfg2, bottleneck);
    let dest = t.server(DEST, Grant::from_parts(100, 10));
    let (q1, q2) = (t.sched(bottleneck, &cfg1), t.sched(bottleneck, &cfg2));
    t.t.link(r1, r2, bottleneck, LINK_DELAY, q1, q2);
    let (qd, qh) = (t.sched(ACCESS_BPS, &cfg2), t.droptail());
    t.t.link(r2, dest, ACCESS_BPS, LINK_DELAY, qd, qh);
    let mut kicks = Vec::new();
    let attach = |t: &mut Topo, node: NodeId, addr: Addr| {
        t.t.bind_addr(node, addr);
        let (qh, qr) = (t.droptail(), t.sched(ACCESS_BPS, &cfg1));
        t.t.link(node, r1, ACCESS_BPS, LINK_DELAY, qh, qr);
    };
    for i in 0..10u8 {
        let addr = Addr::new(20, 0, 0, i + 1);
        let c = t.client(addr, DEST);
        attach(&mut t, c, addr);
        // Starts staggered over the first 100 ms, as in the scenario.
        kicks.push((c, SimTime::from_nanos(1 + i as u64 * 10_000_000)));
    }
    for i in 0..100u8 {
        let addr = Addr::new(66, 0, 0, i + 1);
        let pkt = Packet {
            id: PacketId(0),
            src: addr,
            dst: DEST,
            cap: None,
            tcp: None,
            payload_len: 980,
        };
        let a = t.flood(1_000_000, pkt);
        attach(&mut t, a, addr);
        kicks.push((a, SimTime::ZERO));
    }
    let mut sim = std::mem::take(&mut t.t).build(derive(seed, 3));
    for (n, at) in kicks {
        sim.kick_at(n, TOKEN_START, at);
    }
    Built {
        sim,
        routers: t.routers,
        clients: t.clients,
        warmup: SimTime::from_secs(DUMBBELL_WARMUP_SECS),
        end: SimTime::from_secs(DUMBBELL_SECS),
    }
}

/// The `tva_bench::scale` tree: root router with the server behind a
/// 100 Mb/s bottleneck, core and access routers below, hosts spread over
/// the access routers with default routes up and one static route per
/// (ancestor, host) down; attackers and active users at fixed strides.
fn tree(seed: u64, traced: bool) -> Built {
    let delay = SimDuration::from_millis(5);
    let (bottleneck, core, leaf): (u64, u64, u64) = (100_000_000, 10_000_000_000, 1_000_000_000);
    let cfg = |stream| RouterConfig {
        secret_seed: derive(seed, stream),
        ..RouterConfig::default()
    };
    let mut t = Topo::new(traced);
    let root_cfg = cfg(0xB007);
    let root = t.router(&root_cfg, bottleneck);
    let server = t.server(DEST, Grant::from_parts(100, 10));
    let (qa, qb) = (t.sched(bottleneck, &root_cfg), t.droptail());
    let root_server = t.t.link(root, server, bottleneck, delay, qa, qb);
    t.t.default_route(server, root_server.ba);

    let mut leaves = Vec::new();
    for m in 0..TREE_MIDS {
        let mid_cfg = cfg(0x4D00 + m as u64);
        let mid = t.router(&mid_cfg, core);
        let (qa, qb) = (t.sched(core, &mid_cfg), t.sched(core, &root_cfg));
        let mid_up = t.t.link(mid, root, core, delay, qa, qb);
        t.t.default_route(mid, mid_up.ab);
        for l in 0..TREE_LEAVES_PER_MID {
            let leaf_cfg = cfg(0x1EAF_0000 + (m * 256 + l) as u64);
            let node = t.router(&leaf_cfg, leaf);
            let (qa, qb) = (t.sched(leaf, &leaf_cfg), t.sched(leaf, &mid_cfg));
            let up = t.t.link(node, mid, leaf, delay, qa, qb);
            t.t.default_route(node, up.ab);
            leaves.push((node, leaf_cfg, mid, up.ba, mid_up.ba));
        }
    }

    let attack_every = TREE_HOSTS / TREE_ATTACKERS;
    let active_every = TREE_HOSTS / TREE_ACTIVE;
    let mut kicks = Vec::new();
    let mut host = 0usize;
    let mut actives = 0usize;
    let per_leaf = TREE_HOSTS / leaves.len();
    for (leaf, leaf_cfg, mid, leaf_down, root_down) in &leaves {
        for _ in 0..per_leaf {
            let addr = Addr(0x1400_0000 + host as u32);
            let node = if host.is_multiple_of(attack_every) {
                // Padded requests: byte rate at the target without
                // inflating the event count.
                let pkt = Packet {
                    id: PacketId(0),
                    src: addr,
                    dst: DEST,
                    cap: Some(CapHeader::request()),
                    tcp: None,
                    payload_len: 960,
                };
                let n = t.flood(TREE_ATTACKER_BPS, pkt);
                kicks.push(n);
                n
            } else {
                let n = t.client(addr, DEST);
                if actives < TREE_ACTIVE && host % active_every == 1 {
                    actives += 1;
                    kicks.push(n);
                }
                n
            };
            let (qa, qb) = (t.droptail(), t.sched(ACCESS_BPS, leaf_cfg));
            let access = t.t.link(node, *leaf, ACCESS_BPS, delay, qa, qb);
            t.t.default_route(node, access.ab);
            t.t.static_route(*leaf, addr, access.ba);
            t.t.static_route(*mid, addr, *leaf_down);
            t.t.static_route(root, addr, *root_down);
            host += 1;
        }
    }
    let mut sim = std::mem::take(&mut t.t).build(derive(seed, 3));
    for n in kicks {
        sim.kick(n, TOKEN_START);
    }
    Built {
        sim,
        routers: t.routers,
        clients: t.clients,
        warmup: SimTime::ZERO,
        end: SimTime::from_secs(TREE_SECS),
    }
}

/// What one repeat measured. Times and rates are scaled to the nominal
/// host speed, except `run_s`.
struct Rep {
    /// Topology construction alone.
    build_s: f64,
    /// Construction and warm-up.
    setup_s: f64,
    /// Wall time of the measured window, less the calibration kernel's.
    run_s: f64,
    /// Microseconds of each [`STEP`] of the measured window.
    step_us: Vec<f64>,
    /// Router-forwarded Mpps and M events/s over each of the [`CHUNKS`]
    /// parts of the measured window.
    chunks: Vec<(f64, f64)>,
    /// Events dispatched in the measured window.
    events: u64,
    /// Everything that must repeat exactly: the event count, the transfer
    /// outcomes, and a hash of every router's and scheduler's counters.
    key: String,
    completed: u64,
    aborted: u64,
    /// Transfers started but neither completed nor aborted at the horizon.
    in_flight: u64,
    /// Packets through the TVA routers, by verdict: nonce hits, full
    /// validations, stamps, demotions, legacy.
    verdicts: [u64; 5],
    flow_entries: usize,
    state_bytes: usize,
    nodes: usize,
    channels: usize,
    spans: span::Totals,
}

/// Packets the TVA routers have processed so far, by verdict.
fn verdicts(sim: &Simulator, routers: &[NodeId]) -> [u64; 5] {
    let mut v = [0u64; 5];
    for &r in routers {
        let s = &sim.node::<TvaRouterNode>(r).router.stats;
        for (v, n) in v.iter_mut().zip([
            s.nonce_hits,
            s.full_validations,
            s.requests_stamped,
            s.demotions,
            s.legacy,
        ]) {
            *v += n;
        }
    }
    v
}

fn repeat(shape: Shape, seed: u64, traced: bool, cal: &mut Calibrator) -> Rep {
    cal.mark();
    let t0 = Instant::now();
    let Built {
        mut sim,
        routers,
        clients,
        warmup,
        end,
    } = match shape {
        Shape::Dumbbell => dumbbell(seed, traced),
        Shape::Tree => tree(seed, traced),
    };
    let build_s = t0.elapsed().as_secs_f64();
    sim.run_until(warmup);
    let setup_s = t0.elapsed().as_secs_f64();
    let slowness = cal.interval();
    let (build_s, setup_s) = (build_s / slowness, setup_s / slowness);
    span::take();
    let counts = |sim: &Simulator| {
        (
            verdicts(sim, &routers).iter().sum::<u64>(),
            sim.events_processed(),
        )
    };
    let events0 = sim.events_processed();
    let (mut step_us, mut chunk_steps) = (Vec::new(), Vec::new());
    let mut chunks = Vec::new();
    let chunk_len = SimDuration::from_nanos(end.since(warmup).as_nanos() / CHUNKS);
    let (t_run, spent0) = (Instant::now(), cal.spent_s);
    let mut chunk = (Instant::now(), counts(&sim), warmup + chunk_len);
    let mut t = warmup;
    while t < end {
        t = (t + STEP).min(end);
        let ts = Instant::now();
        sim.run_until(t);
        chunk_steps.push(ts.elapsed().as_secs_f64() * 1e6);
        if t >= chunk.2 || t == end {
            let ((routed, events), (routed0, events0)) = (counts(&sim), chunk.1);
            let wall_us = chunk.0.elapsed().as_secs_f64() * 1e6;
            let slowness = cal.interval();
            let us = wall_us / slowness;
            chunks.push((
                (routed - routed0) as f64 / us,
                (events - events0) as f64 / us,
            ));
            step_us.extend(chunk_steps.drain(..).map(|us| us / slowness));
            chunk = (Instant::now(), (routed, events), chunk.2 + chunk_len);
        }
    }
    let run_s = t_run.elapsed().as_secs_f64() - (cal.spent_s - spent0);
    let spans = span::take();

    let (mut completed, mut aborted, mut in_flight) = (0u64, 0u64, 0u64);
    for &c in &clients {
        let client = sim.node::<ClientNode>(c);
        for r in &client.records {
            if r.finished.is_some() {
                completed += 1;
            } else {
                aborted += 1;
            }
        }
        in_flight += u64::from(client.in_flight_started().is_some());
    }
    // Every router's and scheduler's counters, hashed: the tree has 100k
    // schedulers.
    let mut counters = DefaultHasher::new();
    let (mut flow_entries, mut state_bytes) = (0, 0);
    for &r in &routers {
        let router = &sim.node::<TvaRouterNode>(r).router;
        flow_entries += router.table().len();
        state_bytes += router.table().state_bytes_estimate();
        counters.write(format!("{:?}", router.stats).as_bytes());
    }
    for ch in 0..sim.channel_count() {
        let q = sim.channel(ChannelId(ch)).queue_disc();
        if let Some(s) = q.as_any().and_then(|a| a.downcast_ref::<TvaScheduler>()) {
            state_bytes += s.request_state_bytes();
            counters.write(format!("{:?}", s.stats).as_bytes());
        }
    }
    let events = sim.events_processed() - events0;
    let key = format!(
        "events {events}, transfers {completed}/{aborted}/{in_flight}, counters {:016x}",
        counters.finish()
    );
    Rep {
        build_s,
        setup_s,
        run_s,
        step_us,
        chunks,
        events,
        key,
        completed,
        aborted,
        in_flight,
        verdicts: verdicts(&sim, &routers),
        flow_entries,
        state_bytes,
        nodes: sim.node_count(),
        channels: sim.channel_count(),
        spans,
    }
}

/// Runs a simulator workload in repeats until the measuring window
/// closes; with `--trace 1`, untraced and traced repeats alternate.
pub fn run(shape: Shape, args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    let seed = args.seed;
    let (mut setup, mut build) = (Vec::new(), Vec::new());
    let (mut fwd, mut mev, mut p50) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain_run, mut traced_run) = (Vec::new(), Vec::new());
    let mut spans = span::Totals::default();
    let mut traced_run_ns = 0u64;
    let mut cal = Calibrator::default();
    let mut reference: Option<String> = None;
    let mut last: Option<Rep> = None;
    // Peak RSS at the end of the first untraced repeat (see nodebench).
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
        let r = repeat(shape, seed, traced, &mut cal);
        match &reference {
            None => reference = Some(r.key.clone()),
            Some(k) if traced => out.expect_eq("traced vs untraced topology outcome", k, &r.key),
            Some(k) => out.expect_eq("outcome between repeats", k, &r.key),
        }
        out.attempted += r.completed + r.aborted;
        out.failed += r.aborted;
        if traced {
            traced_run.push(r.run_s);
            traced_run_ns += (r.run_s * 1e9) as u64;
            for (a, b) in spans.layers.iter_mut().zip(r.spans.layers) {
                a.ns += b.ns;
                a.calls += b.calls;
            }
            spans.top_ns += r.spans.top_ns;
            spans.sched_drops += r.spans.sched_drops;
            spans.sched_depth_max = spans.sched_depth_max.max(r.spans.sched_depth_max);
            continue;
        }
        setup.push(r.setup_s);
        build.push(r.build_s);
        plain_run.push(r.run_s);
        fwd.extend(r.chunks.iter().map(|c| c.0));
        mev.extend(r.chunks.iter().map(|c| c.1));
        p50.extend_from_slice(&r.step_us);
        eprintln!(
            "  repeat {reps}: setup {:.3}s calibrated; wall-clock run {:.3}s, {} events, \
             {:.3} M events/s; transfers {}/{} completed",
            r.setup_s,
            r.run_s,
            r.events,
            r.events as f64 / r.run_s / 1e6,
            r.completed,
            r.completed + r.aborted + r.in_flight
        );
        if last.is_none() {
            rss_mb = peak_rss_mb();
        }
        last = Some(r);
    }

    out.set("setup_s", median(&setup));
    // `fwd_mpps` and `lat_p50_us` are node metrics; every workload must
    // report every end-to-end metric, so here they are stand-ins (packets
    // through the TVA routers per wall second, and the wall time of one
    // step), which track `sim_mevents_per_s` (see NOTES.md).
    out.set("fwd_mpps", median(&fwd));
    out.set("sim_mevents_per_s", median(&mev));
    out.set("lat_p50_us", median(&p50));
    out.set("peak_rss_mb", rss_mb);
    let Some(r) = last else { return out };
    // A transfer still in flight at the horizon did not complete: it
    // counts against both fractions, so a stall shorter than the TCP abort
    // timeout still shows.
    let started = (r.completed + r.aborted + r.in_flight) as f64;
    out.set("legit_ok_frac", ratio(r.completed as f64, started));
    out.set(
        "transfer_fail_frac",
        ratio((r.aborted + r.in_flight) as f64, started),
    );

    let per = |l: Layer| {
        let a = spans.layers[l as usize];
        ratio(a.ns as f64, a.calls as f64)
    };
    out.set("router.on_packet_ns", per(Layer::Router));
    out.set("host.callback_ns", per(Layer::Host));
    out.set("flood.callback_ns", per(Layer::Flood));
    out.set("sched.enqueue_ns", per(Layer::SchedEnqueue));
    out.set("sched.dequeue_ns", per(Layer::SchedDequeue));
    out.set("droptail.enqueue_ns", per(Layer::DropTailEnqueue));
    out.set("droptail.dequeue_ns", per(Layer::DropTailDequeue));
    let enqueues = spans.layers[Layer::SchedEnqueue as usize].calls;
    out.set(
        "sched.drop_frac",
        ratio(spans.sched_drops as f64, enqueues as f64),
    );
    out.set("sched.depth_max_pkts", spans.sched_depth_max as f64);
    let traced_events = r.events * traced_run.len() as u64;
    out.set("engine.events", r.events as f64);
    out.set(
        "engine.self_ns_per_event",
        ratio(
            traced_run_ns.saturating_sub(spans.top_ns) as f64,
            traced_events as f64,
        ),
    );
    let [nonce, full, stamps, demotions, _] = r.verdicts;
    let kframe = r.verdicts.iter().sum::<u64>() as f64 / 1e3;
    out.set(
        "router.nonce_hit_ratio",
        ratio(nonce as f64, (nonce + full) as f64),
    );
    out.set(
        "router.full_validations_per_kframe",
        ratio(full as f64, kframe),
    );
    out.set("router.stamps_per_kframe", ratio(stamps as f64, kframe));
    out.set(
        "router.demotions_per_kframe",
        ratio(demotions as f64, kframe),
    );
    out.set("flowtable.entries", r.flow_entries as f64);
    out.set("flowtable.state_bytes", r.state_bytes as f64);
    out.set("topology.build_s", median(&build));
    out.set("topology.nodes", r.nodes as f64);
    out.set("topology.channels", r.channels as f64);
    out.set("calib.slowness", median(&cal.samples));
    out.set(
        "trace.coverage",
        ratio(spans.top_ns as f64, traced_run_ns as f64),
    );
    out.set(
        "trace.overhead_pct",
        (ratio(median(&traced_run), median(&plain_run)) - 1.0) * 100.0,
    );
    out
}
