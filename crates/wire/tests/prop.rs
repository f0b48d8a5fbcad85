//! Property tests: every well-formed capability header round-trips through
//! the binary codec, `encoded_len` always matches the actual encoding,
//! arbitrary byte soup never panics the decoder, and the in-place codec
//! agrees byte for byte and error for error with independent reference
//! implementations.

use proptest::prelude::*;
use tva_wire::{
    decode, decode_packet, decode_packet_into, encode, encode_packet, encode_packet_into,
    internet_checksum, Addr, CapHeader, CapList, CapPayload, CapValue, FlowNonce, Grant, Packet,
    PacketId, PathId, RequestEntry, RequestList, ReturnInfo, TcpFlags, TcpSegment, WireError,
    IPPROTO_DATA, IPPROTO_TCP, IPPROTO_TVA, IP_HEADER_LEN, MAX_PATH_ROUTERS, VERSION,
};

fn arb_capvalue() -> impl Strategy<Value = CapValue> {
    (any::<u8>(), any::<u64>()).prop_map(|(ts, h)| CapValue::new(ts, h))
}

fn arb_grant() -> impl Strategy<Value = Grant> {
    (0u16..=1023, 0u8..=63).prop_map(|(kb, s)| Grant::from_parts(kb, s))
}

fn arb_caps() -> impl Strategy<Value = Vec<CapValue>> {
    // Inclusive upper bound: full-capacity lists are a load-bearing edge
    // case for the inline-array representation.
    proptest::collection::vec(arb_capvalue(), 0..=MAX_PATH_ROUTERS)
}

fn arb_entries() -> impl Strategy<Value = Vec<RequestEntry>> {
    proptest::collection::vec(
        (any::<u16>(), arb_capvalue())
            .prop_map(|(pid, precap)| RequestEntry { path_id: PathId(pid), precap }),
        0..=MAX_PATH_ROUTERS,
    )
}

fn arb_payload() -> impl Strategy<Value = CapPayload> {
    let request = arb_entries()
        .prop_map(|entries| CapPayload::Request { entries: RequestList::from(entries) });

    let regular = (
        any::<u64>(),
        any::<u8>(),
        proptest::option::of((arb_grant(), arb_caps())),
        any::<bool>(),
    )
        .prop_map(|(nonce, ptr, caps, renewal)| {
            // A renewal requires a capability list by construction; the ptr
            // field only exists on the wire when a capability list does.
            let renewal = renewal && caps.is_some();
            let ptr = if caps.is_some() { ptr } else { 0 };
            let caps = caps.map(|(g, list)| (g, CapList::from(list)));
            CapPayload::Regular { nonce: FlowNonce::new(nonce), ptr, caps, renewal }
        });

    prop_oneof![request, regular]
}

fn arb_return() -> impl Strategy<Value = Option<ReturnInfo>> {
    prop_oneof![
        Just(None),
        Just(Some(ReturnInfo::DemotionNotice)),
        (arb_grant(), arb_caps())
            .prop_map(|(grant, caps)| Some(ReturnInfo::Capabilities { grant, caps: caps.into() })),
    ]
}

fn arb_header() -> impl Strategy<Value = CapHeader> {
    (any::<bool>(), arb_payload(), arb_return())
        .prop_map(|(demoted, payload, return_info)| CapHeader { demoted, payload, return_info })
}

proptest! {
    #[test]
    fn header_roundtrips(h in arb_header(), proto: u8) {
        let bytes = encode(&h, proto);
        prop_assert_eq!(bytes.len(), h.encoded_len());
        let (decoded, p) = decode(&bytes).unwrap();
        prop_assert_eq!(decoded, h);
        prop_assert_eq!(p, proto);
    }

    #[test]
    fn decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&data); // must return, never panic
    }

    #[test]
    fn corrupting_any_byte_never_panics(h in arb_header(), proto: u8,
                                        idx in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut v = encode(&h, proto).to_vec();
        if !v.is_empty() {
            let i = idx.index(v.len());
            v[i] ^= 1 << bit;
            let _ = decode(&v);
        }
    }
}

/// Reference encoder: serializes straight from `Vec`-held lists, written
/// independently against the Figure 5 field layout. The inline-array-backed
/// `encode` must stay byte-identical to it.
mod reference {
    use super::*;

    #[derive(Debug, Clone)]
    pub enum RefPayload {
        Request { entries: Vec<RequestEntry> },
        Regular { nonce: u64, ptr: u8, caps: Option<(Grant, Vec<CapValue>)>, renewal: bool },
    }

    #[derive(Debug, Clone)]
    pub enum RefReturn {
        Demotion,
        Caps { grant: Grant, caps: Vec<CapValue> },
    }

    #[derive(Debug, Clone)]
    pub struct RefHeader {
        pub demoted: bool,
        pub payload: RefPayload,
        pub return_info: Option<RefReturn>,
    }

    pub fn encode(h: &RefHeader, upper_proto: u8) -> Vec<u8> {
        let kind = match &h.payload {
            RefPayload::Request { .. } => 0b00,
            RefPayload::Regular { caps: None, .. } => 0b10,
            RefPayload::Regular { renewal: true, .. } => 0b11,
            RefPayload::Regular { .. } => 0b01,
        };
        let mut t = kind;
        if h.return_info.is_some() {
            t |= 0b0100;
        }
        if h.demoted {
            t |= 0b1000;
        }
        let mut out = vec![(VERSION << 4) | t, upper_proto];
        match &h.payload {
            RefPayload::Request { entries } => {
                out.push(entries.len() as u8);
                out.push(entries.len() as u8);
                for e in entries {
                    out.extend_from_slice(&e.path_id.0.to_be_bytes());
                    out.extend_from_slice(&e.precap.to_u64().to_be_bytes());
                }
            }
            RefPayload::Regular { nonce, ptr, caps, .. } => {
                out.extend_from_slice(&nonce.to_be_bytes()[2..]);
                if let Some((grant, list)) = caps {
                    out.push(list.len() as u8);
                    out.push(*ptr);
                    out.extend_from_slice(&grant.pack().to_be_bytes());
                    for c in list {
                        out.extend_from_slice(&c.to_u64().to_be_bytes());
                    }
                }
            }
        }
        match &h.return_info {
            None => {}
            Some(RefReturn::Demotion) => out.push(0b0000_0001),
            Some(RefReturn::Caps { grant, caps }) => {
                out.push(0b0000_0010);
                out.push(caps.len() as u8);
                out.extend_from_slice(&grant.pack().to_be_bytes());
                for c in caps {
                    out.extend_from_slice(&c.to_u64().to_be_bytes());
                }
            }
        }
        out
    }

    #[derive(Debug, Clone)]
    pub struct RefPacket {
        pub id: u16,
        pub src: u32,
        pub dst: u32,
        pub shim: Option<RefHeader>,
        pub tcp: Option<TcpSegment>,
        pub payload_len: usize,
    }

    /// Full-packet reference encoder: the IPv4 header (checksummed), the
    /// shim from [`encode`], the TCP header and a zero payload, appended in
    /// order.
    pub fn encode_packet(p: &RefPacket) -> Vec<u8> {
        let RefPacket { id, src, dst, tcp, payload_len, .. } = *p;
        let tcp = tcp.as_ref();
        let upper = if tcp.is_some() { IPPROTO_TCP } else { 0 };
        let shim = p.shim.as_ref().map_or_else(Vec::new, |h| encode(h, upper));
        let proto = match (shim.is_empty(), tcp.is_some()) {
            (false, _) => IPPROTO_TVA,
            (true, true) => IPPROTO_TCP,
            (true, false) => IPPROTO_DATA,
        };
        let total = IP_HEADER_LEN + shim.len() + if tcp.is_some() { 20 } else { 0 } + payload_len;
        let mut out = vec![0x45, 0];
        out.extend_from_slice(&(total as u16).to_be_bytes());
        out.extend_from_slice(&id.to_be_bytes());
        out.extend_from_slice(&[0, 0, 64, proto, 0, 0]);
        out.extend_from_slice(&src.to_be_bytes());
        out.extend_from_slice(&dst.to_be_bytes());
        let csum = internet_checksum(&out);
        out[10..12].copy_from_slice(&csum.to_be_bytes());
        out.extend_from_slice(&shim);
        if let Some(t) = tcp {
            out.extend_from_slice(&t.src_port.to_be_bytes());
            out.extend_from_slice(&t.dst_port.to_be_bytes());
            out.extend_from_slice(&t.seq.to_be_bytes());
            out.extend_from_slice(&t.ack.to_be_bytes());
            let f = &t.flags;
            let flags = 0x5000
                | u16::from(f.fin)
                | u16::from(f.syn) << 1
                | u16::from(f.rst) << 2
                | u16::from(f.ack) << 4;
            out.extend_from_slice(&flags.to_be_bytes());
            out.extend_from_slice(&[0xFF, 0xFF, 0, 0, 0, 0]);
        }
        out.resize(total, 0);
        out
    }

    /// Reads big-endian fields front to back, one bounds check per group,
    /// the way the decoder did before it read at fixed offsets.
    struct Cursor<'a>(&'a [u8]);

    impl Cursor<'_> {
        fn need(&self, n: usize) -> Result<(), WireError> {
            if self.0.len() < n {
                Err(WireError::Truncated)
            } else {
                Ok(())
            }
        }

        fn take<const N: usize>(&mut self) -> [u8; N] {
            let (head, rest) = self.0.split_at(N);
            self.0 = rest;
            head.try_into().unwrap()
        }

        fn u8(&mut self) -> u8 {
            self.take::<1>()[0]
        }

        fn u16(&mut self) -> u16 {
            u16::from_be_bytes(self.take())
        }

        fn u32(&mut self) -> u32 {
            u32::from_be_bytes(self.take())
        }

        fn u64(&mut self) -> u64 {
            u64::from_be_bytes(self.take())
        }

        fn count(&mut self) -> Result<usize, WireError> {
            let num = self.u8() as usize;
            if num > MAX_PATH_ROUTERS {
                return Err(WireError::BadCount(num));
            }
            Ok(num)
        }

        fn caps(&mut self, num: usize) -> Result<CapList, WireError> {
            let mut list = CapList::new();
            for _ in 0..num {
                self.need(8)?;
                list.push(CapValue::from_u64(self.u64()));
            }
            Ok(list)
        }
    }

    /// Reference decoder: a field-at-a-time parser that builds a fresh
    /// packet. The in-place decoder must return the same packet, or the
    /// same error, for every input — including which error wins when a
    /// frame has several faults.
    pub fn decode_packet(data: &[u8]) -> Result<Packet, WireError> {
        if data.len() < IP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if internet_checksum(&data[..IP_HEADER_LEN]) != 0 {
            return Err(WireError::BadVersion(0xFF));
        }
        let mut c = Cursor(data);
        let vihl = c.u8();
        if vihl != 0x45 {
            return Err(WireError::BadVersion(vihl >> 4));
        }
        c.u8();
        let total = c.u16() as usize;
        if total != data.len() {
            return Err(WireError::TrailingBytes(data.len().abs_diff(total)));
        }
        let id = c.u16();
        c.u16();
        c.u8();
        let proto = c.u8();
        c.u16();
        let src = Addr(c.u32());
        let dst = Addr(c.u32());
        let (cap, upper) = if proto == IPPROTO_TVA {
            let (h, upper) = decode_shim(&mut c)?;
            (Some(h), upper)
        } else {
            (None, proto)
        };
        let tcp = if upper == IPPROTO_TCP {
            c.need(20)?;
            let (src_port, dst_port, seq, ack, f) = (c.u16(), c.u16(), c.u32(), c.u32(), c.u16());
            c.take::<6>();
            let flags =
                TcpFlags { fin: f & 1 != 0, syn: f & 2 != 0, rst: f & 4 != 0, ack: f & 0x10 != 0 };
            Some(TcpSegment { src_port, dst_port, seq, ack, flags })
        } else {
            None
        };
        Ok(Packet { id: PacketId(id.into()), src, dst, cap, tcp, payload_len: c.0.len() as u32 })
    }

    fn decode_shim(c: &mut Cursor) -> Result<(CapHeader, u8), WireError> {
        c.need(2)?;
        let vt = c.u8();
        if vt >> 4 != VERSION {
            return Err(WireError::BadVersion(vt >> 4));
        }
        let upper = c.u8();
        let kind = vt & 0b11;
        let payload = if kind == 0b00 {
            c.need(2)?;
            let num = c.count()?;
            c.u8(); // capability ptr
            let mut entries = RequestList::new();
            for _ in 0..num {
                c.need(10)?;
                entries.push(RequestEntry {
                    path_id: PathId(c.u16()),
                    precap: CapValue::from_u64(c.u64()),
                });
            }
            CapPayload::Request { entries }
        } else {
            c.need(6)?;
            let nonce = FlowNonce::new(u64::from(c.u16()) << 32 | u64::from(c.u32()));
            let (ptr, caps) = if kind == 0b10 {
                (0, None)
            } else {
                c.need(4)?;
                let num = c.count()?;
                let ptr = c.u8();
                let grant = Grant::unpack(c.u16());
                (ptr, Some((grant, c.caps(num)?)))
            };
            CapPayload::Regular { nonce, ptr, caps, renewal: kind == 0b11 }
        };
        let return_info = if vt & 0b0100 != 0 {
            c.need(1)?;
            match c.u8() {
                0b01 => Some(ReturnInfo::DemotionNotice),
                0b10 => {
                    c.need(3)?;
                    let num = c.count()?;
                    let grant = Grant::unpack(c.u16());
                    Some(ReturnInfo::Capabilities { grant, caps: c.caps(num)? })
                }
                other => return Err(WireError::BadReturnType(other)),
            }
        } else {
            None
        };
        Ok((CapHeader { demoted: vt & 0b1000 != 0, payload, return_info }, upper))
    }
}

fn arb_ref_header() -> impl Strategy<Value = reference::RefHeader> {
    use reference::{RefHeader, RefPayload, RefReturn};
    let payload = prop_oneof![
        arb_entries().prop_map(|entries| RefPayload::Request { entries }),
        (
            any::<u64>(),
            any::<u8>(),
            proptest::option::of((arb_grant(), arb_caps())),
            any::<bool>(),
        )
            .prop_map(|(nonce, ptr, caps, renewal)| {
                let renewal = renewal && caps.is_some();
                let ptr = if caps.is_some() { ptr } else { 0 };
                RefPayload::Regular { nonce: nonce & ((1 << 48) - 1), ptr, caps, renewal }
            }),
    ];
    let ret = prop_oneof![
        Just(None),
        Just(Some(RefReturn::Demotion)),
        (arb_grant(), arb_caps()).prop_map(|(grant, caps)| Some(RefReturn::Caps { grant, caps })),
    ];
    (any::<bool>(), payload, ret)
        .prop_map(|(demoted, payload, return_info)| RefHeader { demoted, payload, return_info })
}

/// Builds the real (inline-list) header equivalent to a reference header.
fn realize(h: &reference::RefHeader) -> CapHeader {
    use reference::{RefPayload, RefReturn};
    let payload = match &h.payload {
        RefPayload::Request { entries } => {
            CapPayload::Request { entries: RequestList::from(entries.as_slice()) }
        }
        RefPayload::Regular { nonce, ptr, caps, renewal } => CapPayload::Regular {
            nonce: FlowNonce::new(*nonce),
            ptr: *ptr,
            caps: caps.as_ref().map(|(g, list)| (*g, CapList::from(list.as_slice()))),
            renewal: *renewal,
        },
    };
    let return_info = h.return_info.as_ref().map(|r| match r {
        RefReturn::Demotion => ReturnInfo::DemotionNotice,
        RefReturn::Caps { grant, caps } => {
            ReturnInfo::Capabilities { grant: *grant, caps: CapList::from(caps.as_slice()) }
        }
    });
    CapHeader { demoted: h.demoted, payload, return_info }
}

proptest! {
    /// The inline-list migration must not change a single wire byte: the
    /// real encoder agrees with the Vec-backed reference encoder on every
    /// well-formed header, including full-capacity lists.
    #[test]
    fn inline_encoding_matches_vec_reference(h in arb_ref_header(), proto: u8) {
        let expect = reference::encode(&h, proto);
        let real = realize(&h);
        let got = encode(&real, proto);
        prop_assert_eq!(&got[..], &expect[..]);
        prop_assert_eq!(got.len(), real.encoded_len());
        // And the strict decoder reproduces the structured form.
        let (decoded, p) = decode(&expect).unwrap();
        prop_assert_eq!(decoded, real);
        prop_assert_eq!(p, proto);
    }

    /// Truncating a reference encoding at any cut must error (never panic)
    /// through the inline-list decoder, exactly as it did for Vec backing.
    #[test]
    fn truncated_reference_encodings_error(h in arb_ref_header(), proto: u8,
                                           cut in any::<prop::sample::Index>()) {
        let bytes = reference::encode(&h, proto);
        let at = cut.index(bytes.len().max(1)).min(bytes.len());
        if at < bytes.len() {
            prop_assert!(decode(&bytes[..at]).is_err());
        }
    }
}

fn arb_tcp() -> impl Strategy<Value = tva_wire::TcpSegment> {
    (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), any::<u8>()).prop_map(
        |(sp, dp, seq, ack, fl)| tva_wire::TcpSegment {
            src_port: sp,
            dst_port: dp,
            seq,
            ack,
            flags: tva_wire::TcpFlags {
                syn: fl & 1 != 0,
                ack: fl & 2 != 0,
                fin: fl & 4 != 0,
                rst: fl & 8 != 0,
            },
        },
    )
}

proptest! {
    /// Full on-wire packets round-trip (modulo the 16-bit tracing id).
    #[test]
    fn full_packet_roundtrips(h in proptest::option::of(arb_header()),
                              tcp in proptest::option::of(arb_tcp()),
                              src: u32, dst: u32, payload in 0u32..20_000, proto_id: u16) {
        let pkt = tva_wire::Packet {
            id: tva_wire::PacketId(proto_id as u64),
            src: tva_wire::Addr(src),
            dst: tva_wire::Addr(dst),
            cap: h,
            tcp,
            payload_len: payload,
        };
        let bytes = tva_wire::encode_packet(&pkt);
        prop_assert_eq!(bytes.len() as u32, pkt.wire_len());
        let back = tva_wire::decode_packet(&bytes).unwrap();
        prop_assert_eq!(back.src, pkt.src);
        prop_assert_eq!(back.dst, pkt.dst);
        prop_assert_eq!(back.cap, pkt.cap);
        prop_assert_eq!(back.tcp, pkt.tcp);
        prop_assert_eq!(back.payload_len, pkt.payload_len);
    }

    /// The full-packet decoder never panics on arbitrary bytes.
    #[test]
    fn packet_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = tva_wire::decode_packet(&data);
    }
}

fn arb_ref_packet() -> impl Strategy<Value = reference::RefPacket> {
    (
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        proptest::option::of(arb_ref_header()),
        proptest::option::of(arb_tcp()),
        prop_oneof![Just(0usize), 1usize..64, 64usize..1500],
    )
        .prop_map(|(id, src, dst, shim, tcp, payload_len)| reference::RefPacket {
            id,
            src,
            dst,
            shim,
            tcp,
            payload_len,
        })
}

/// Packets of every shape, with full-capacity lists and stale values, for
/// the in-place decoder to overwrite.
fn dirty_packets() -> Vec<Packet> {
    let caps: CapList = (0..MAX_PATH_ROUTERS as u64).map(|i| CapValue::new(0xEE, i)).collect();
    let entries: RequestList = (0..MAX_PATH_ROUTERS as u16)
        .map(|i| RequestEntry { path_id: PathId(i), precap: CapValue::new(0xDD, i.into()) })
        .collect();
    let grant = Grant::from_parts(777, 7);
    let full_return = Some(ReturnInfo::Capabilities { grant, caps });
    let headers = [
        None,
        Some(CapHeader {
            demoted: true,
            payload: CapPayload::Request { entries },
            return_info: full_return.clone(),
        }),
        Some(CapHeader {
            demoted: true,
            payload: CapPayload::Regular {
                nonce: FlowNonce::new(0xDEAD),
                ptr: 31,
                caps: Some((grant, caps)),
                renewal: true,
            },
            return_info: full_return,
        }),
        Some(CapHeader {
            demoted: true,
            payload: CapPayload::Regular {
                nonce: FlowNonce::new(0xBEEF),
                ptr: 0,
                caps: None,
                renewal: false,
            },
            return_info: Some(ReturnInfo::DemotionNotice),
        }),
    ];
    let mut out = Vec::new();
    for cap in headers {
        for tcp in [None, Some(TcpSegment::syn(9, 9, 9))] {
            out.push(Packet {
                id: PacketId(0xFFFF_FFFF),
                src: Addr(0xFFFF_FFFF),
                dst: Addr(0xFFFF_FFFF),
                cap: cap.clone(),
                tcp,
                payload_len: 99_999,
            });
        }
    }
    out
}

/// Rewrites the IPv4 total length and checksum to match `frame`'s length,
/// so a cut or flipped frame reaches the shim and TCP decoders instead of
/// failing at the IP header.
fn fix_ip_header(frame: &mut [u8]) {
    if frame.len() >= IP_HEADER_LEN {
        let len = frame.len() as u16;
        frame[2..4].copy_from_slice(&len.to_be_bytes());
        frame[10..12].fill(0);
        let csum = internet_checksum(&frame[..IP_HEADER_LEN]);
        frame[10..12].copy_from_slice(&csum.to_be_bytes());
    }
}

/// The in-place decoder, run into every dirty shape, returns what the
/// reference decoder returns: the same packet or the same error.
fn assert_decoders_agree(data: &[u8]) -> Result<(), TestCaseError> {
    let expect = reference::decode_packet(data);
    prop_assert_eq!(&decode_packet(data), &expect);
    for mut pkt in dirty_packets() {
        let got = decode_packet_into(data, &mut pkt).map(|()| pkt);
        prop_assert_eq!(&got, &expect);
    }
    Ok(())
}

proptest! {
    /// The fixed-offset encoder writes the reference layout byte for byte,
    /// also into a reused buffer holding a longer, stale frame.
    #[test]
    fn packet_encoding_matches_reference(p in arb_ref_packet()) {
        let expect = reference::encode_packet(&p);
        let pkt = Packet {
            id: PacketId(p.id.into()),
            src: Addr(p.src),
            dst: Addr(p.dst),
            cap: p.shim.as_ref().map(realize),
            tcp: p.tcp,
            payload_len: p.payload_len as u32,
        };
        prop_assert_eq!(&encode_packet(&pkt), &expect);
        let mut reused = vec![0xAB; 4096];
        encode_packet_into(&pkt, &mut reused);
        prop_assert_eq!(&reused, &expect);
        assert_decoders_agree(&expect)?;
    }

    /// Bit flips and cuts of valid frames, with and without the IP header
    /// repaired afterwards, decode identically in place and by reference.
    #[test]
    fn mutated_frames_decode_like_the_reference(
        p in arb_ref_packet(),
        idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
        cut in any::<prop::sample::Index>(),
        repair: bool,
    ) {
        let frame = reference::encode_packet(&p);
        let mut flipped = frame.clone();
        flipped[idx.index(frame.len())] ^= 1 << bit;
        let mut cut = frame[..cut.index(frame.len())].to_vec();
        if repair {
            fix_ip_header(&mut flipped);
            fix_ip_header(&mut cut);
        }
        assert_decoders_agree(&flipped)?;
        assert_decoders_agree(&cut)?;
    }

    /// Byte soup, bare and behind a valid IPv4 header of each protocol,
    /// decodes identically in place and by reference.
    #[test]
    fn byte_soup_decodes_like_the_reference(
        soup in proptest::collection::vec(any::<u8>(), 0..600),
        proto in prop_oneof![Just(IPPROTO_TVA), Just(IPPROTO_TCP), Just(IPPROTO_DATA), any::<u8>()],
        shim_first in any::<bool>(),
    ) {
        assert_decoders_agree(&soup)?;
        let mut frame = vec![0x45, 0, 0, 0, 0, 1, 0, 0, 64, proto, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2];
        if shim_first {
            // A valid version nibble gets the soup past the shim's first check.
            frame.push(VERSION << 4 | (soup.first().copied().unwrap_or(0) & 0x0F));
        }
        frame.extend_from_slice(&soup);
        fix_ip_header(&mut frame);
        assert_decoders_agree(&frame)?;
    }
}
