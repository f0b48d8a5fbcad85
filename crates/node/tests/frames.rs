//! Daemon-boundary robustness: property tests that the node's RX path —
//! strict wire decode feeding the real router — **never panics** on hostile
//! bytes, and that every undecodable frame is accounted as exactly one
//! `malformed_drops` (node- and router-level), never silently lost.
//!
//! The wire codec has its own round-trip/never-panic properties
//! (`crates/wire/tests/prop.rs`); these run the same adversarial inputs
//! through [`NodeEngine::rx_frame`], where a panic would take the daemon
//! off the wire — the cheapest DoS of all.

use proptest::prelude::*;
use tva_node::{MixKind, NodeClock, NodeConfig, NodeEngine, PktGen, Transport, NODE_INGRESS};
use tva_sim::{Enqueued, Pkt, QueueDisc, SimTime};
use tva_wire::{
    decode_packet, encode_packet, encode_packet_into, internet_checksum, Addr, CapHeader, CapList,
    CapPayload, CapValue, FlowNonce, Grant, Packet, PacketId, PathId, RequestEntry, RequestList,
    ReturnInfo, TcpFlags, TcpSegment, IP_HEADER_LEN, MAX_PATH_ROUTERS,
};

fn arb_capvalue() -> impl Strategy<Value = CapValue> {
    (any::<u8>(), any::<u64>()).prop_map(|(ts, h)| CapValue::new(ts, h))
}

fn arb_grant() -> impl Strategy<Value = Grant> {
    (0u16..=1023, 0u8..=63).prop_map(|(kb, s)| Grant::from_parts(kb, s))
}

fn arb_caps() -> impl Strategy<Value = Vec<CapValue>> {
    // Inclusive bound: full-capacity inline lists are the frames that sit
    // exactly at the decoder's length limits.
    proptest::collection::vec(arb_capvalue(), 0..=MAX_PATH_ROUTERS)
}

fn arb_header() -> impl Strategy<Value = CapHeader> {
    let request = proptest::collection::vec(
        (any::<u16>(), arb_capvalue())
            .prop_map(|(pid, precap)| RequestEntry { path_id: PathId(pid), precap }),
        0..=MAX_PATH_ROUTERS,
    )
    .prop_map(|entries| CapPayload::Request { entries: RequestList::from(entries) });
    let regular = (
        any::<u64>(),
        any::<u8>(),
        proptest::option::of((arb_grant(), arb_caps())),
        any::<bool>(),
    )
        .prop_map(|(nonce, ptr, caps, renewal)| {
            let renewal = renewal && caps.is_some();
            let ptr = if caps.is_some() { ptr } else { 0 };
            let caps = caps.map(|(g, list)| (g, CapList::from(list)));
            CapPayload::Regular { nonce: FlowNonce::new(nonce), ptr, caps, renewal }
        });
    let ret = prop_oneof![
        Just(None),
        Just(Some(ReturnInfo::DemotionNotice)),
        (arb_grant(), arb_caps())
            .prop_map(|(grant, caps)| Some(ReturnInfo::Capabilities { grant, caps: caps.into() })),
    ];
    (any::<bool>(), prop_oneof![request, regular], ret)
        .prop_map(|(demoted, payload, return_info)| CapHeader { demoted, payload, return_info })
}

fn arb_tcp() -> impl Strategy<Value = TcpSegment> {
    (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), any::<u8>()).prop_map(
        |(sp, dp, seq, ack, fl)| TcpSegment {
            src_port: sp,
            dst_port: dp,
            seq,
            ack,
            flags: TcpFlags {
                syn: fl & 1 != 0,
                ack: fl & 2 != 0,
                fin: fl & 4 != 0,
                rst: fl & 8 != 0,
            },
        },
    )
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        proptest::option::of(arb_header()),
        proptest::option::of(arb_tcp()),
        any::<u32>(),
        any::<u32>(),
        0u32..1200,
    )
        .prop_map(|(cap, tcp, src, dst, payload_len)| Packet {
            id: PacketId(0),
            src: Addr(src),
            dst: Addr(dst),
            cap,
            tcp,
            payload_len,
        })
}

fn fresh_node() -> (NodeEngine, NodeClock) {
    let node = NodeEngine::new(&NodeConfig::default());
    let clock = NodeClock::new();
    (node, clock)
}

proptest! {
    /// Every well-formed encoding — including max-capacity inline lists —
    /// ingests without a malformed drop: what the generator can encode, the
    /// daemon can decode.
    #[test]
    fn well_formed_frames_are_never_counted_malformed(pkt in arb_packet()) {
        let (mut node, clock) = fresh_node();
        node.rx_frame(&encode_packet(&pkt), clock.now());
        prop_assert_eq!(node.stats.rx_frames, 1);
        prop_assert_eq!(node.stats.malformed_drops, 0);
    }

    /// Truncating a frame at any cut is always caught by the strict decoder
    /// (the IP total-length field must match the byte count exactly) and
    /// bumps exactly one malformed counter at each level — no panic, no
    /// silent loss.
    #[test]
    fn truncated_frames_count_one_malformed_drop(pkt in arb_packet(),
                                                 cut in any::<prop::sample::Index>()) {
        let frame = encode_packet(&pkt);
        let at = cut.index(frame.len());
        let (mut node, clock) = fresh_node();
        node.rx_frame(&frame[..at], clock.now());
        prop_assert_eq!(node.stats.rx_frames, 1);
        prop_assert_eq!(node.stats.malformed_drops, 1);
        prop_assert_eq!(node.router.stats.malformed_drops, 1);
        prop_assert_eq!(node.stats.queue_drops, 0);
    }

    /// Flipping any single bit never panics the RX path, and the node's
    /// accounting stays exact: the frame either still decodes (flips in
    /// shim bytes outside the IP header checksum) and is processed, or it
    /// is counted as exactly one malformed drop.
    #[test]
    fn bit_flips_never_panic_and_are_fully_accounted(pkt in arb_packet(),
                                                     idx in any::<prop::sample::Index>(),
                                                     bit in 0u8..8) {
        let mut frame = encode_packet(&pkt);
        let i = idx.index(frame.len());
        frame[i] ^= 1 << bit;
        let decodes = decode_packet(&frame).is_ok();
        let (mut node, clock) = fresh_node();
        node.rx_frame(&frame, clock.now());
        prop_assert_eq!(node.stats.rx_frames, 1);
        prop_assert_eq!(node.stats.malformed_drops, u64::from(!decodes));
        prop_assert_eq!(node.router.stats.malformed_drops, u64::from(!decodes));
    }

    /// Arbitrary byte soup — not even derived from a real packet — never
    /// panics the daemon boundary.
    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let (mut node, clock) = fresh_node();
        let decodes = decode_packet(&data).is_ok();
        node.rx_frame(&data, clock.now());
        prop_assert_eq!(node.stats.rx_frames, 1);
        prop_assert_eq!(node.stats.malformed_drops, u64::from(!decodes));
    }
}

/// A full-capacity request frame (every slot of the inline list populated)
/// survives the whole daemon loop — decode, router stamping (which *grows*
/// the list handling path), re-encode into the transport buffer — and the
/// re-encoded bytes still decode.
#[test]
fn max_size_request_round_trips_through_the_daemon() {
    let entries: Vec<RequestEntry> = (0..MAX_PATH_ROUTERS - 1)
        .map(|i| RequestEntry { path_id: PathId(i as u16), precap: CapValue::new(i as u8, i as u64) })
        .collect();
    let pkt = Packet {
        id: PacketId(7),
        src: Addr::new(10, 0, 0, 1),
        dst: Addr::new(10, 0, 0, 2),
        cap: Some(CapHeader {
            demoted: false,
            payload: CapPayload::Request { entries: RequestList::from(entries) },
            return_info: None,
        }),
        tcp: None,
        payload_len: 0,
    };
    let (mut node, clock) = fresh_node();
    let (mut node_port, mut wire) = tva_node::ring_pair(8);
    assert!(wire.tx_frame(&mut |b| {
        b.clear();
        b.extend_from_slice(&encode_packet(&pkt));
    }));
    let (rx, tx) = node.poll(&mut node_port, &clock, 8);
    assert_eq!((rx, tx), (1, 1));
    assert_eq!(node.stats.malformed_drops, 0);
    let mut out = Vec::new();
    assert_eq!(wire.rx_burst(4, &mut |f| out.extend_from_slice(f)), 1);
    let back = decode_packet(&out).expect("stamped max-size request re-decodes");
    let Some(CapHeader { payload: CapPayload::Request { entries }, .. }) = back.cap else {
        panic!("request must stay a request");
    };
    assert_eq!(entries.len(), MAX_PATH_ROUTERS, "node appended its stamp into the last slot");
}

/// Frames per poll in the differential runs.
const BATCH: usize = 64;

/// Polls with no RX frames that end each differential run, draining what
/// the egress scheduler still holds.
const DRAIN_POLLS: usize = 32;

/// `frames` in `batch`-sized polls, then the empty drain polls.
fn polls(frames: &[Vec<u8>], batch: usize) -> impl Iterator<Item = &[Vec<u8>]> {
    frames.chunks(batch).chain(std::iter::repeat_n(&[][..], DRAIN_POLLS))
}

/// A scripted clock at a Unix-epoch instant (the daemon's time base),
/// advancing 5 µs per read, so two runs see identical instants.
fn scripted_clock() -> impl FnMut() -> SimTime {
    let mut ns = 1_760_000_000 * 1_000_000_000;
    move || {
        ns += 5_000;
        SimTime::from_nanos(ns)
    }
}

/// `n` frames of the dirty mix (legit, request flood, spoofed, legacy,
/// malformed), generated at the scripted clock's start.
fn dirty_mix_frames(cfg: &NodeConfig, n: usize) -> Vec<Vec<u8>> {
    let now = scripted_clock()();
    let mut gen = PktGen::new(cfg, now);
    let (mut tx, mut rx) = tva_node::ring_pair(BATCH);
    let mut frames = Vec::new();
    while frames.len() < n {
        gen.fill_burst(&mut tx, BATCH, now);
        rx.rx_burst(BATCH, &mut |f| frames.push(f.to_vec()));
    }
    frames.truncate(n);
    frames
}

/// Every counter a run leaves behind: router, scheduler and node.
fn counters(node: &NodeEngine) -> String {
    format!("{:?}\n{:?}\n{:?}", node.router.stats, node.sched.stats, node.stats)
}

/// Forwards `frames` through [`NodeEngine::poll_with`], `batch` per poll;
/// returns the node and every TX frame.
fn run_poll(cfg: &NodeConfig, frames: &[Vec<u8>], batch: usize) -> (NodeEngine, Vec<Vec<u8>>) {
    let mut node = NodeEngine::new(cfg);
    let (mut node_port, mut wire) = tva_node::ring_pair(4 * BATCH);
    let mut clock = scripted_clock();
    let mut out = Vec::new();
    for rx in polls(frames, batch) {
        for f in rx {
            assert!(wire.tx_frame(&mut |b| {
                b.clear();
                b.extend_from_slice(f);
            }));
        }
        node.poll_with(&mut node_port, &mut clock, batch);
        wire.rx_burst(usize::MAX, &mut |f| out.push(f.to_vec()));
    }
    (node, out)
}

/// The same run through the allocating codec: a fresh `decode_packet`
/// wrapped by `Pkt::new`, the same router and scheduler calls at the same
/// instants, and a fresh `encode_packet_into` buffer per TX frame.
fn run_reference(cfg: &NodeConfig, frames: &[Vec<u8>], batch: usize) -> (NodeEngine, Vec<Vec<u8>>) {
    let mut node = NodeEngine::new(cfg);
    let mut clock = scripted_clock();
    let mut out = Vec::new();
    for rx in polls(frames, batch) {
        let now_rx = clock();
        for f in rx {
            node.stats.rx_frames += 1;
            node.stats.rx_bytes += f.len() as u64;
            match decode_packet(f) {
                Ok(pkt) => {
                    let mut pkt = Pkt::new(pkt);
                    node.router.process(&mut pkt, NODE_INGRESS, now_rx);
                    pkt.set_enqueued_at(now_rx);
                    if node.sched.enqueue(pkt, now_rx) == Enqueued::Dropped {
                        node.stats.queue_drops += 1;
                    }
                }
                Err(_) => {
                    node.stats.malformed_drops += 1;
                    node.router.stats.malformed_drops += 1;
                }
            }
        }
        let now_tx = clock();
        for _ in 0..batch {
            let Some(pkt) = node.sched.dequeue(now_tx) else { break };
            let mut frame = Vec::new();
            encode_packet_into(&pkt, &mut frame);
            node.stats.tx_frames += 1;
            node.stats.tx_bytes += frame.len() as u64;
            out.push(frame);
        }
    }
    (node, out)
}

/// The in-place RX/TX path (decode into a recycled pooled box, encode into
/// the ring's frame slot) is observably identical to the allocating codec
/// on the dirty mix.
#[test]
fn in_place_codec_path_matches_the_allocating_reference() {
    let cfg = NodeConfig { mix: MixKind::Dirty, ..NodeConfig::default() };
    let frames = dirty_mix_frames(&cfg, 64 * BATCH);
    let (got, got_tx) = run_poll(&cfg, &frames, BATCH);
    let (want, want_tx) = run_reference(&cfg, &frames, BATCH);
    assert_eq!(counters(&got), counters(&want));
    assert_eq!(got_tx.len(), want_tx.len());
    for (i, (g, w)) in got_tx.iter().zip(&want_tx).enumerate() {
        assert_eq!(g, w, "TX frame {i} differs");
    }
    // The mix reached every verdict the comparison is meant to cover.
    let r = &got.router.stats;
    assert!(r.malformed_drops > 0 && r.requests_stamped > 0, "{r:?}");
    assert!(r.nonce_hits > 0 && r.demotions > 0 && r.legacy > 0, "{r:?}");
}

/// A malformed frame that gets deep into the decoder — it writes a request
/// shim, a return-capability list and more into the recycled box before
/// failing — leaks nothing into the valid frames decoded into that box
/// after it.
#[test]
fn malformed_frame_after_a_valid_one_leaks_nothing() {
    let entries: RequestList = (0..20u16)
        .map(|i| RequestEntry { path_id: PathId(i + 1), precap: CapValue::new(3, i.into()) })
        .collect();
    let rich = Packet {
        id: PacketId(1),
        src: Addr::new(10, 0, 0, 1),
        dst: Addr::new(10, 0, 0, 2),
        cap: Some(CapHeader {
            demoted: false,
            payload: CapPayload::Request { entries },
            return_info: Some(ReturnInfo::Capabilities {
                grant: Grant::from_parts(100, 10),
                caps: (0..10).map(|i| CapValue::new(1, i)).collect(),
            }),
        }),
        tcp: Some(TcpSegment::syn(1000, 80, 7)),
        payload_len: 100,
    };
    let valid = encode_packet(&rich);
    // Cut inside the return-capability list and repair the IP header, so
    // only the shim decoder's last bounds check rejects it.
    let mut malformed = valid[..valid.len() - 130].to_vec();
    let len = malformed.len() as u16;
    malformed[2..4].copy_from_slice(&len.to_be_bytes());
    malformed[10..12].fill(0);
    let csum = internet_checksum(&malformed[..IP_HEADER_LEN]);
    malformed[10..12].copy_from_slice(&csum.to_be_bytes());
    assert!(decode_packet(&malformed).is_err());
    let nonce_only = encode_packet(&Packet {
        id: PacketId(2),
        src: Addr::new(10, 0, 0, 3),
        dst: Addr::new(10, 0, 0, 2),
        cap: Some(CapHeader::regular_nonce_only(FlowNonce::new(5))),
        tcp: None,
        payload_len: 8,
    });
    let legacy = encode_packet(&Packet {
        id: PacketId(3),
        src: Addr::new(10, 0, 0, 4),
        dst: Addr::new(10, 0, 0, 2),
        cap: None,
        tcp: None,
        payload_len: 8,
    });
    // One frame per poll: the rich frame is forwarded and its box recycled;
    // the malformed frame fails in that box, which goes back to the pool and
    // is the box the nonce-only frame then decodes into.
    let frames = [valid, malformed, nonce_only, legacy.clone()];
    let cfg = NodeConfig::default();
    let allocs = tva_sim::pool_stats().allocs;
    let (got, got_tx) = run_poll(&cfg, &frames, 1);
    assert_eq!(tva_sim::pool_stats().allocs, allocs + 1, "every frame must reuse one box");
    let (want, want_tx) = run_reference(&cfg, &frames, 1);
    assert_eq!(counters(&got), counters(&want));
    assert_eq!(got.stats.malformed_drops, 1);
    assert_eq!(got.router.stats.requests_stamped, 1);
    assert_eq!(got_tx, want_tx);
    assert_eq!(got_tx.len(), 3);
    assert_eq!(got_tx.last(), Some(&legacy), "a legacy frame forwards byte for byte");
}
