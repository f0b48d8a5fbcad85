//! The forwarding engine: the *identical* `tva-core` router pipeline —
//! capability validation/stamping ([`TvaRouter::process`]), then the
//! three-class [`TvaScheduler`] (paced requests, per-destination DRR
//! regular, legacy FIFO) — driven by a poll loop over a [`Transport`]
//! instead of the discrete-event queue.
//!
//! Per RX frame: strict wire decode straight into a pooled [`Pkt`]
//! (malformed frames are counted and dropped, never panic; allocation-free
//! after warm-up), router processing against the node's wall clock, and an
//! enqueue into the egress scheduler. Per TX slot: dequeue in scheduler
//! priority order, encode straight into the transport's retained frame
//! slot, and record the RX→TX forwarding latency in a log-linear histogram.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use tva_core::{RouterConfig, TvaRouter, TvaScheduler};
use tva_obs::Histogram;
use tva_sim::{ChannelId, Enqueued, Pkt, QueueDisc, SimTime};
use tva_wire::ipcodec::{decode_packet_into, encode_packet_into};

use crate::transport::Transport;
use crate::NodeConfig;

/// The node's wall clock, expressed as [`SimTime`] so the router's expiry
/// checks and the scheduler's pacing gate run unmodified: a Unix-epoch base
/// (capability timestamps are seconds mod 256, so the generator and the
/// node agree on "now" across threads and processes) plus a monotonic
/// `Instant` delta for nanosecond-resolution latency accounting.
pub struct NodeClock {
    base_ns: u64,
    start: Instant,
}

impl NodeClock {
    /// A clock starting at the current wall time.
    pub fn new() -> Self {
        let base_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs() * 1_000_000_000)
            .unwrap_or(0);
        NodeClock { base_ns, start: Instant::now() }
    }

    /// The current instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.base_ns + self.start.elapsed().as_nanos() as u64)
    }
}

impl Default for NodeClock {
    fn default() -> Self {
        NodeClock::new()
    }
}

/// Frame-level counters for one node (router-level counters live in
/// [`TvaRouter::stats`], class-level ones in the scheduler's).
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeStats {
    /// Frames received.
    pub rx_frames: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames forwarded.
    pub tx_frames: u64,
    /// Bytes forwarded.
    pub tx_bytes: u64,
    /// Frames that failed strict wire decode (also counted in the router's
    /// `malformed_drops`).
    pub malformed_drops: u64,
    /// Packets the egress scheduler refused (class queue caps).
    pub queue_drops: u64,
    /// TX attempts deferred by transport backpressure.
    pub tx_backpressure: u64,
}

/// The ingress interface id the daemon presents to the router. A one-port
/// daemon has a single ingress; the path-identifier tag still derives from
/// it, so stamped requests carry a real tag.
pub const NODE_INGRESS: ChannelId = ChannelId(1);

/// A forwarding node: router + egress scheduler + counters + latency
/// histogram, polled over any [`Transport`].
pub struct NodeEngine {
    /// The packet-processing pipeline (validation, stamping, flow table).
    pub router: TvaRouter,
    /// The egress scheduler (request pacing, per-destination DRR, legacy FIFO).
    pub sched: TvaScheduler,
    /// Frame-level counters.
    pub stats: NodeStats,
    /// RX→TX forwarding latency, nanoseconds.
    pub latency_ns: Histogram,
    /// A packet dequeued while the transport was backpressured; retried
    /// first on the next poll so scheduler order is preserved.
    pending: Option<Pkt>,
}

impl NodeEngine {
    /// Builds a node for `cfg` (router secret seed, egress link rate).
    pub fn new(cfg: &NodeConfig) -> Self {
        let rcfg = RouterConfig {
            secret_seed: cfg.secret_seed,
            flow_sample_n: cfg.sample_n,
            ..RouterConfig::default()
        };
        let sched = TvaScheduler::new(cfg.link_bps, &rcfg);
        let router = TvaRouter::new(rcfg, cfg.link_bps);
        NodeEngine {
            router,
            sched,
            stats: NodeStats::default(),
            latency_ns: Histogram::new(),
            pending: None,
        }
    }

    /// Ingests one raw frame at `now`: decode, process, enqueue. Malformed
    /// frames only bump counters — the daemon boundary must never panic on
    /// wire input (see `tests/frames.rs`).
    #[inline]
    pub fn rx_frame(&mut self, frame: &[u8], now: SimTime) {
        self.stats.rx_frames += 1;
        self.stats.rx_bytes += frame.len() as u64;
        match Pkt::try_fill(|p| decode_packet_into(frame, p)) {
            Ok(mut pkt) => {
                let _verdict = self.router.process(&mut pkt, NODE_INGRESS, now);
                pkt.set_enqueued_at(now);
                if self.sched.enqueue(pkt, now) == Enqueued::Dropped {
                    self.stats.queue_drops += 1;
                }
            }
            Err(_) => {
                self.stats.malformed_drops += 1;
                self.router.stats.malformed_drops += 1;
            }
        }
    }

    /// One RX burst + one TX burst over `port`, each capped at `batch`
    /// frames. Returns `(rx, tx)` counts. The clock is read once per phase,
    /// not per packet, keeping timer syscalls off the per-packet path.
    pub fn poll<T: Transport>(
        &mut self,
        port: &mut T,
        clock: &NodeClock,
        batch: usize,
    ) -> (usize, usize) {
        self.poll_with(port, || clock.now(), batch)
    }

    /// [`poll`](Self::poll) reading "now" from `now` (once per phase)
    /// instead of the wall clock, so a test can replay one frame sequence
    /// at identical instants through two nodes.
    pub fn poll_with<T: Transport>(
        &mut self,
        port: &mut T,
        mut now: impl FnMut() -> SimTime,
        batch: usize,
    ) -> (usize, usize) {
        let now_rx = now();
        // Split borrows: the closure mutates `self` while `port` is handed
        // out separately.
        let this = &mut *self;
        let rx = port.rx_burst(batch, &mut |frame| this.rx_frame(frame, now_rx));

        let now_tx = now();
        let mut tx = 0;
        while tx < batch {
            let pkt = match self.pending.take() {
                Some(p) => p,
                None => match self.sched.dequeue(now_tx) {
                    Some(p) => p,
                    None => break,
                },
            };
            let sent = port.tx_frame(&mut |buf| encode_packet_into(&pkt, buf));
            if !sent {
                self.stats.tx_backpressure += 1;
                self.pending = Some(pkt);
                break;
            }
            self.stats.tx_frames += 1;
            self.stats.tx_bytes += pkt.wire_len() as u64;
            self.latency_ns.record(now_tx.since(pkt.enqueued_at()).as_nanos());
            tx += 1;
        }
        (rx, tx)
    }

    /// Resets counters and the latency histogram (after warm-up), leaving
    /// router/scheduler state — flow table, DRR queues — intact.
    pub fn reset_meters(&mut self) {
        self.stats = NodeStats::default();
        self.latency_ns.reset();
    }

    /// Folds node counters and the latency histogram into an obs registry
    /// under `node.*`, alongside the router's own `Observe` output.
    pub fn observe(&self, reg: &mut tva_obs::Registry) {
        let stats = [
            ("node.rx_frames", self.stats.rx_frames),
            ("node.rx_bytes", self.stats.rx_bytes),
            ("node.tx_frames", self.stats.tx_frames),
            ("node.tx_bytes", self.stats.tx_bytes),
            ("node.malformed_drops", self.stats.malformed_drops),
            ("node.queue_drops", self.stats.queue_drops),
            ("node.tx_backpressure", self.stats.tx_backpressure),
        ];
        for (name, v) in stats {
            let id = reg.counter(name);
            reg.set_counter(id, v);
        }
        let h = reg.hist("node.forward_latency_ns");
        reg.histogram_mut(h).merge(&self.latency_ns);
        // Instantaneous egress backlog, for the live dashboard's
        // queue-depth view.
        let g = reg.gauge("node.queue_depth_pkts");
        reg.set(g, self.sched.len_pkts() as f64);
        let g = reg.gauge("node.queue_depth_bytes");
        reg.set(g, self.sched.len_bytes() as f64);
        // Bounded-state telemetry: the policing-state footprint of the flow
        // cache and the request key table.
        let g = reg.gauge("node.state_bytes");
        reg.set(
            g,
            (self.router.table().state_bytes_estimate() + self.sched.request_state_bytes()) as f64,
        );
        self.sched.observe_request_channel("node.sched", reg);
        use tva_obs::Observe;
        self.router.stats.observe("node.router", reg);
        self.sched.stats.observe("node.sched", reg);
        if self.router.flow.enabled() || self.sched.flow.enabled() {
            let mut flows = self.router.flow.clone();
            flows.merge(&self.sched.flow);
            flows.observe("node.flow", reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ring_pair;
    use tva_wire::{decode_packet, encode_packet, Addr, CapHeader, Packet, PacketId};

    fn legacy_frame() -> Vec<u8> {
        encode_packet(&Packet {
            id: PacketId(1),
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(10, 0, 0, 2),
            cap: None,
            tcp: None,
            payload_len: 64,
        })
    }

    #[test]
    fn forwards_a_legacy_frame_end_to_end() {
        let cfg = NodeConfig::default();
        let mut node = NodeEngine::new(&cfg);
        let clock = NodeClock::new();
        let (mut node_port, mut wire) = ring_pair(16);
        assert!(wire.tx_frame(&mut |b| {
            b.clear();
            b.extend_from_slice(&legacy_frame());
        }));
        let (rx, tx) = node.poll(&mut node_port, &clock, 32);
        assert_eq!((rx, tx), (1, 1));
        let mut out = Vec::new();
        assert_eq!(wire.rx_burst(4, &mut |f| out.extend_from_slice(f)), 1);
        let back = decode_packet(&out).unwrap();
        assert_eq!(back.dst, Addr::new(10, 0, 0, 2));
        assert_eq!(node.stats.malformed_drops, 0);
        assert_eq!(node.latency_ns.count(), 1);
    }

    #[test]
    fn malformed_frames_count_and_never_panic() {
        let cfg = NodeConfig::default();
        let mut node = NodeEngine::new(&cfg);
        let now = NodeClock::new().now();
        node.rx_frame(&[], now);
        node.rx_frame(&[0x45; 7], now);
        let mut bad = legacy_frame();
        bad[9] ^= 0xFF; // breaks the header checksum
        node.rx_frame(&bad, now);
        assert_eq!(node.stats.malformed_drops, 3);
        assert_eq!(node.router.stats.malformed_drops, 3);
        assert_eq!(node.stats.rx_frames, 3);
    }

    #[test]
    fn requests_get_stamped_on_the_way_through() {
        let cfg = NodeConfig::default();
        let mut node = NodeEngine::new(&cfg);
        let clock = NodeClock::new();
        let (mut node_port, mut wire) = ring_pair(16);
        let req = Packet {
            id: PacketId(2),
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(10, 0, 0, 2),
            cap: Some(CapHeader::request()),
            tcp: None,
            payload_len: 0,
        };
        assert!(wire.tx_frame(&mut |b| {
            b.clear();
            b.extend_from_slice(&encode_packet(&req));
        }));
        node.poll(&mut node_port, &clock, 32);
        let mut out = Vec::new();
        wire.rx_burst(4, &mut |f| out.extend_from_slice(f));
        let back = decode_packet(&out).unwrap();
        let Some(CapHeader { payload: tva_wire::CapPayload::Request { entries }, .. }) =
            back.cap
        else {
            panic!("request must stay a request");
        };
        assert_eq!(entries.len(), 1, "node must stamp its pre-capability");
        assert_eq!(node.router.stats.requests_stamped, 1);
    }

    #[test]
    fn backpressure_holds_the_packet_not_drops_it() {
        let cfg = NodeConfig::default();
        let mut node = NodeEngine::new(&cfg);
        let clock = NodeClock::new();
        // 2-slot rings each way. First poll fills the node→wire ring; the
        // second poll's TX jams against the undrained ring.
        let (mut node_port, mut wire) = ring_pair(2);
        for round in 0..2 {
            for _ in 0..2 {
                assert!(wire.tx_frame(&mut |b| {
                    b.clear();
                    b.extend_from_slice(&legacy_frame());
                }), "round {round}");
            }
            node.poll(&mut node_port, &clock, 8);
        }
        assert_eq!(node.stats.rx_frames, 4);
        assert_eq!(node.stats.tx_frames, 2, "TX ring holds 2");
        assert!(node.stats.tx_backpressure >= 1);
        // Drain the wire; the held packets go out on the next poll.
        let mut n = 0;
        wire.rx_burst(16, &mut |_| n += 1);
        assert_eq!(n, 2);
        node.poll(&mut node_port, &clock, 8);
        assert_eq!(node.stats.tx_frames, 4, "no forwarded packet was lost");
        assert_eq!(node.stats.queue_drops, 0);
    }
}
