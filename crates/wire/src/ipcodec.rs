//! Full on-wire serialization of a simulated [`Packet`]: IPv4 header,
//! optional capability shim, optional TCP header, zero-filled payload.
//!
//! The simulator carries structured packets; this codec is what an inline
//! deployment box (§8) would emit and parse on a real wire. TVA's shim
//! layer rides as an IPv4 payload under its own protocol number, itself
//! carrying the upper protocol (§4.1: "We implement this as a shim layer
//! above IP"); the header's first eight bytes deliberately contain no
//! pre-capability material so ICMP error bodies cannot leak stamps (§7).
//!
//! Like the shim codec, both directions work in place: the encoder sizes
//! the frame once and writes each layer at its fixed offset, and
//! [`decode_packet_into`] overwrites a caller-owned (typically pooled)
//! packet.

use crate::addr::Addr;
use crate::codec::{self, be16, be32};
use crate::error::WireError;
use crate::packet::{Packet, PacketId, TcpFlags, TcpSegment, IP_HEADER_LEN, TCP_HEADER_LEN};

/// The IPv4 protocol number carried by packets bearing the capability shim
/// (an experimentation number; a deployment would register one).
pub const IPPROTO_TVA: u8 = 253;

/// The protocol number for plain TCP (legacy packets).
pub const IPPROTO_TCP: u8 = 6;

/// Upper-protocol value used inside the shim when no transport follows.
pub const UPPER_NONE: u8 = 0;

/// The IPv4 protocol number used for legacy packets carrying opaque
/// payload with no transport header (e.g. raw flood traffic).
pub const IPPROTO_DATA: u8 = 252;

/// Computes the RFC 1071 internet checksum of `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

fn write_ipv4_header(ip: &mut [u8], pkt: &Packet, total_len: u16, proto: u8) {
    ip[0] = 0x45; // version 4, IHL 5
    ip[1] = 0; // DSCP/ECN
    ip[2..4].copy_from_slice(&total_len.to_be_bytes());
    ip[4..6].copy_from_slice(&(pkt.id.0 as u16).to_be_bytes()); // identification (tracing only)
    ip[6..8].fill(0); // flags/fragment offset
    ip[8] = 64; // TTL
    ip[9] = proto;
    ip[10..12].fill(0); // checksum placeholder
    ip[12..16].copy_from_slice(&pkt.src.to_u32().to_be_bytes());
    ip[16..20].copy_from_slice(&pkt.dst.to_u32().to_be_bytes());
    let csum = internet_checksum(ip);
    ip[10..12].copy_from_slice(&csum.to_be_bytes());
}

fn write_tcp_header(t: &mut [u8], seg: &TcpSegment) {
    t[0..2].copy_from_slice(&seg.src_port.to_be_bytes());
    t[2..4].copy_from_slice(&seg.dst_port.to_be_bytes());
    t[4..8].copy_from_slice(&seg.seq.to_be_bytes());
    t[8..12].copy_from_slice(&seg.ack.to_be_bytes());
    let mut flags: u16 = 5 << 12; // data offset 5 words
    if seg.flags.fin {
        flags |= 0x01;
    }
    if seg.flags.syn {
        flags |= 0x02;
    }
    if seg.flags.rst {
        flags |= 0x04;
    }
    if seg.flags.ack {
        flags |= 0x10;
    }
    t[12..14].copy_from_slice(&flags.to_be_bytes());
    t[14..16].copy_from_slice(&0xFFFFu16.to_be_bytes()); // window (flow control is not modeled)
    t[16..20].fill(0); // checksum (not computed: payload bytes are synthetic), urgent
}

/// Serializes `pkt` to its full on-wire byte representation. The payload is
/// zero-filled: the simulator tracks payload length, not contents.
pub fn encode_packet(pkt: &Packet) -> Vec<u8> {
    let mut out = Vec::new();
    encode_packet_into(pkt, &mut out);
    out
}

/// Serializes `pkt` into `out`, replacing its contents. The frame is sized
/// once and each layer written at its fixed offset; the buffer's capacity
/// is reused, so a caller cycling one buffer (or a pool of frame slots)
/// pays zero allocations per packet in steady state — the forwarding-daemon
/// TX path depends on this.
pub fn encode_packet_into(pkt: &Packet, out: &mut Vec<u8>) {
    let total = pkt.wire_len();
    assert!(total <= u16::MAX as u32, "packet exceeds the IPv4 total-length field");
    out.clear();
    out.resize(total as usize, 0);
    let proto = if pkt.cap.is_some() {
        IPPROTO_TVA
    } else if pkt.tcp.is_some() {
        IPPROTO_TCP
    } else {
        IPPROTO_DATA
    };
    let (ip, rest) = out.split_at_mut(IP_HEADER_LEN);
    write_ipv4_header(ip, pkt, total as u16, proto);
    let mut at = 0;
    if let Some(cap) = &pkt.cap {
        let upper = if pkt.tcp.is_some() { IPPROTO_TCP } else { UPPER_NONE };
        at = codec::encode_into(cap, upper, rest);
    }
    if let Some(tcp) = &pkt.tcp {
        write_tcp_header(&mut rest[at..at + TCP_HEADER_LEN], tcp);
    }
}

/// Parses a full on-wire packet. The IPv4 header checksum is verified;
/// payload contents are discarded (only the length is kept).
pub fn decode_packet(data: &[u8]) -> Result<Packet, WireError> {
    let mut pkt = Packet::default();
    decode_packet_into(data, &mut pkt)?;
    Ok(pkt)
}

/// [`decode_packet`] into a caller-owned packet. On success every field of
/// `pkt` is overwritten, whatever it held before (inline capability lists
/// already present are reused, see [`codec::decode_prefix_into`]); on error
/// `pkt` is left in an unspecified state and must not be read.
pub fn decode_packet_into(data: &[u8], pkt: &mut Packet) -> Result<(), WireError> {
    let Some(ip) = data.get(..IP_HEADER_LEN) else { return Err(WireError::Truncated) };
    if internet_checksum(ip) != 0 {
        return Err(WireError::BadVersion(0xFF)); // corrupted header
    }
    if ip[0] != 0x45 {
        return Err(WireError::BadVersion(ip[0] >> 4));
    }
    let total_len = be16(&ip[2..]) as usize;
    if total_len != data.len() {
        return Err(WireError::TrailingBytes(data.len().abs_diff(total_len)));
    }
    pkt.id = PacketId(u64::from(be16(&ip[4..])));
    pkt.src = Addr(be32(&ip[12..]));
    pkt.dst = Addr(be32(&ip[16..]));
    let proto = ip[9];

    let mut at = IP_HEADER_LEN;
    let upper = if proto == IPPROTO_TVA {
        let (upper, used) = codec::decode_prefix_into(&data[at..], &mut pkt.cap)?;
        at += used;
        upper
    } else {
        pkt.cap = None;
        proto
    };

    pkt.tcp = if upper == IPPROTO_TCP {
        let Some(t) = data.get(at..at + TCP_HEADER_LEN) else { return Err(WireError::Truncated) };
        at += TCP_HEADER_LEN;
        let flags_raw = be16(&t[12..]);
        Some(TcpSegment {
            src_port: be16(t),
            dst_port: be16(&t[2..]),
            seq: be32(&t[4..]),
            ack: be32(&t[8..]),
            flags: TcpFlags {
                fin: flags_raw & 0x01 != 0,
                syn: flags_raw & 0x02 != 0,
                rst: flags_raw & 0x04 != 0,
                ack: flags_raw & 0x10 != 0,
            },
        })
    } else {
        None
    };

    pkt.payload_len = (data.len() - at) as u32;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cap::FlowNonce;
    use crate::header::CapHeader;
    use crate::nt::Grant;

    fn pkt(cap: Option<CapHeader>, tcp: Option<TcpSegment>, payload: u32) -> Packet {
        Packet {
            id: PacketId(7),
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(10, 0, 0, 2),
            cap,
            tcp,
            payload_len: payload,
        }
    }

    fn eq_modulo_id(a: &Packet, b: &Packet) {
        assert_eq!(a.src, b.src);
        assert_eq!(a.dst, b.dst);
        assert_eq!(a.cap, b.cap);
        assert_eq!(a.tcp, b.tcp);
        assert_eq!(a.payload_len, b.payload_len);
    }

    #[test]
    fn legacy_tcp_roundtrip() {
        let p = pkt(None, Some(TcpSegment::syn(1000, 80, 0)), 0);
        let bytes = encode_packet(&p);
        assert_eq!(bytes.len() as u32, p.wire_len());
        eq_modulo_id(&p, &decode_packet(&bytes).unwrap());
    }

    #[test]
    fn shim_plus_tcp_plus_payload_roundtrip() {
        let cap = CapHeader::regular_with_caps(
            FlowNonce::new(0xABCD),
            Grant::from_parts(100, 10),
            vec![crate::cap::CapValue::new(3, 99)],
        );
        let seg = TcpSegment {
            src_port: 1234,
            dst_port: 80,
            seq: 1,
            ack: 1,
            flags: TcpFlags { ack: true, ..Default::default() },
        };
        let p = pkt(Some(cap), Some(seg), 1000);
        let bytes = encode_packet(&p);
        assert_eq!(bytes.len() as u32, p.wire_len());
        eq_modulo_id(&p, &decode_packet(&bytes).unwrap());
    }

    #[test]
    fn bare_shim_roundtrip() {
        let p = pkt(Some(CapHeader::request()), None, 0);
        let bytes = encode_packet(&p);
        eq_modulo_id(&p, &decode_packet(&bytes).unwrap());
    }

    #[test]
    fn encode_into_reuses_capacity_and_matches() {
        let caps = CapHeader::regular_with_caps(
            FlowNonce::new(0xABCD),
            Grant::from_parts(100, 10),
            vec![crate::cap::CapValue::new(3, 99)],
        );
        let pkts = [
            pkt(Some(caps), Some(TcpSegment::syn(1000, 80, 0)), 700),
            pkt(None, Some(TcpSegment::syn(5, 6, 7)), 40),
            pkt(Some(CapHeader::request()), None, 0),
            pkt(None, None, 1400),
        ];
        let mut buf = Vec::new();
        encode_packet_into(&pkts[3], &mut buf); // grow to the largest frame once
        let cap_before = buf.capacity();
        for p in &pkts {
            encode_packet_into(p, &mut buf);
            assert_eq!(buf, encode_packet(p));
            assert_eq!(buf.capacity(), cap_before, "steady-state encode reallocated");
        }
    }

    #[test]
    fn checksum_detects_corruption() {
        let p = pkt(None, Some(TcpSegment::syn(1, 2, 3)), 10);
        let mut bytes = encode_packet(&p);
        bytes[12] ^= 0xFF; // flip a source-address byte
        assert!(decode_packet(&bytes).is_err());
    }

    #[test]
    fn truncation_is_an_error() {
        let p = pkt(None, Some(TcpSegment::syn(1, 2, 3)), 10);
        let bytes = encode_packet(&p);
        for cut in [0, 10, IP_HEADER_LEN, bytes.len() - 1] {
            assert!(decode_packet(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn checksum_reference_value() {
        // RFC 1071 example-style check: checksum of a buffer containing its
        // own checksum folds to zero.
        let p = pkt(None, None, 0);
        let bytes = encode_packet(&p);
        assert_eq!(internet_checksum(&bytes[..IP_HEADER_LEN]), 0);
    }

    #[test]
    fn first_eight_bytes_carry_no_capability_material() {
        // §7: ICMP errors quote the first 8 bytes past the IP header; those
        // must be the common header + counts, never pre-capability hashes.
        let mut h = CapHeader::request();
        if let crate::header::CapPayload::Request { entries } = &mut h.payload {
            entries.push(crate::cap::RequestEntry {
                path_id: crate::cap::PathId(1),
                precap: crate::cap::CapValue::new(9, 0x00DE_ADBE_EF99_1234),
            });
        }
        let p = pkt(Some(h), None, 0);
        let bytes = encode_packet(&p);
        let first8 = &bytes[IP_HEADER_LEN..IP_HEADER_LEN + 8];
        let stamp = 0x00DE_ADBE_EF99_1234u64.to_be_bytes();
        assert!(
            !first8.windows(4).any(|w| stamp.windows(4).any(|s| s == w)),
            "pre-capability bytes leaked into the ICMP-visible prefix"
        );
    }
}
