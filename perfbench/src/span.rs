//! Layer spans for the traced simulator run: timing adapters around every
//! [`Node`] and [`QueueDisc`], accumulating self time per layer in
//! thread-local counters (the engine runs on one shard, on the calling
//! thread).
//!
//! A span's self time is its duration minus the time of the spans nested
//! inside it: a router's `on_packet` calls `ctx.send`, which offers the
//! packet to the egress queue's (timed) `enqueue`, so that enqueue counts
//! toward the queue layer, not the router's.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::time::Instant;

use tva_sim::{ChannelId, Ctx, Enqueued, Node, Pkt, QueueDisc, SimTime};

/// The layers a simulator run is split into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `TvaRouterNode` callbacks.
    Router,
    /// `ClientNode` / `ServerNode` callbacks: TCP and the host shim.
    Host,
    /// `FloodNode` callbacks.
    Flood,
    /// `TvaScheduler::enqueue`.
    SchedEnqueue,
    /// `TvaScheduler::dequeue`.
    SchedDequeue,
    /// `DropTail::enqueue`.
    DropTailEnqueue,
    /// `DropTail::dequeue`.
    DropTailDequeue,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 7;

/// One layer's totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    /// Self nanoseconds.
    pub ns: u64,
    /// Calls.
    pub calls: u64,
}

/// Per-run totals: every layer, the time of top-level spans, and the
/// scheduler's queue statistics seen at the adapter.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Per-layer self time and calls, indexed by `Layer as usize`.
    pub layers: [Acc; LAYERS],
    /// Wall time inside top-level spans (the part of the run the engine
    /// itself did not spend).
    pub top_ns: u64,
    /// Packets the TVA schedulers refused.
    pub sched_drops: u64,
    /// Largest TVA scheduler backlog seen after an enqueue, in packets.
    pub sched_depth_max: u64,
}

thread_local! {
    static TOTALS: RefCell<Totals> = const { RefCell::new(Totals {
        layers: [Acc { ns: 0, calls: 0 }; LAYERS],
        top_ns: 0,
        sched_drops: 0,
        sched_depth_max: 0,
    }) };
    /// Time of the spans nested inside the innermost open span; outside
    /// every span, the time of all top-level spans so far.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` as a span of `layer`.
#[inline]
fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let outer_child = CHILD_NS.replace(0);
    let t0 = Instant::now();
    let r = f();
    let d = t0.elapsed().as_nanos() as u64;
    let inner = CHILD_NS.get();
    TOTALS.with_borrow_mut(|t| {
        let acc = &mut t.layers[layer as usize];
        acc.ns += d.saturating_sub(inner);
        acc.calls += 1;
    });
    CHILD_NS.set(outer_child + d);
    r
}

/// Returns and clears this thread's totals. Call outside any span.
pub fn take() -> Totals {
    let mut t = TOTALS.with_borrow_mut(std::mem::take);
    t.top_ns = CHILD_NS.replace(0);
    t
}

/// Wraps a node so its callbacks are timed as `layer`. `as_any` forwards
/// to the wrapped node, so `Simulator::node::<T>` still downcasts.
pub struct TimedNode {
    inner: Box<dyn Node>,
    layer: Layer,
}

impl TimedNode {
    /// A timing adapter around `inner`.
    pub fn new(inner: Box<dyn Node>, layer: Layer) -> Self {
        TimedNode { inner, layer }
    }
}

impl Node for TimedNode {
    fn on_packet(&mut self, pkt: Pkt, from: ChannelId, ctx: &mut dyn Ctx) {
        span(self.layer, || self.inner.on_packet(pkt, from, ctx))
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn Ctx) {
        span(self.layer, || self.inner.on_timer(token, ctx))
    }

    fn on_malformed(&mut self, error: tva_wire::WireError, from: ChannelId, ctx: &mut dyn Ctx) {
        span(self.layer, || self.inner.on_malformed(error, from, ctx))
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Wraps a queue discipline so enqueue and dequeue are timed as the given
/// layers.
pub struct TimedQueue {
    inner: Box<dyn QueueDisc>,
    enqueue: Layer,
    dequeue: Layer,
}

impl TimedQueue {
    /// A timing adapter around `inner`.
    pub fn new(inner: Box<dyn QueueDisc>, enqueue: Layer, dequeue: Layer) -> Self {
        TimedQueue {
            inner,
            enqueue,
            dequeue,
        }
    }
}

impl QueueDisc for TimedQueue {
    fn enqueue(&mut self, pkt: Pkt, now: SimTime) -> Enqueued {
        let r = span(self.enqueue, || self.inner.enqueue(pkt, now));
        if self.enqueue == Layer::SchedEnqueue {
            let depth = self.inner.len_pkts() as u64;
            TOTALS.with_borrow_mut(|t| {
                t.sched_drops += u64::from(r == Enqueued::Dropped);
                t.sched_depth_max = t.sched_depth_max.max(depth);
            });
        }
        r
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Pkt> {
        span(self.dequeue, || self.inner.dequeue(now))
    }

    fn next_ready(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_ready(now)
    }

    fn len_pkts(&self) -> usize {
        self.inner.len_pkts()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn audit(&self) -> Result<(), String> {
        self.inner.audit()
    }

    fn as_any(&self) -> Option<&dyn Any> {
        self.inner.as_any()
    }
}
