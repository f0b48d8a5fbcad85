//! Binary encoding of the capability header.
//!
//! The simulator carries packets in structured form for speed, but the wire
//! codec is what an inline deployment box (§8) would parse, so it is
//! implemented and tested bit-exactly against the field layout of Figure 5.
//! Decoding is strict: trailing garbage, truncation, bad versions or
//! inconsistent counts are errors, never panics.
//!
//! Both directions work in place, because the forwarding daemon runs them
//! once per frame: the encoder writes every field at a fixed offset of a
//! buffer the caller sized once, and the decoder overwrites a caller-owned
//! header, reusing its inline lists instead of building (and zero-filling)
//! a fresh one. The allocating forms are thin wrappers over these.

use bytes::Bytes;

use crate::cap::{CapList, CapValue, FlowNonce, PathId, RequestEntry, RequestList, MAX_PATH_ROUTERS};
use crate::error::WireError;
use crate::header::{CapHeader, CapKind, CapPayload, ReturnInfo, VERSION};
use crate::nt::Grant;

/// Return-info type byte: demotion notification.
const RET_DEMOTION: u8 = 0b0000_0001;
/// Return-info type byte: capability list follows.
const RET_CAPS: u8 = 0b0000_0010;
/// Wire bytes per request entry: 16-bit path id + 64-bit pre-capability.
const ENTRY_LEN: usize = 10;
/// Wire bytes per capability word.
const CAP_LEN: usize = 8;

#[inline]
pub(crate) fn be16(b: &[u8]) -> u16 {
    u16::from_be_bytes([b[0], b[1]])
}

#[inline]
pub(crate) fn be32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

#[inline]
fn be64(b: &[u8]) -> u64 {
    u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Encodes `header` (with the given upper-layer protocol number) to bytes.
pub fn encode(header: &CapHeader, upper_proto: u8) -> Bytes {
    let mut b = vec![0; header.encoded_len()];
    encode_into(header, upper_proto, &mut b);
    Bytes::from(b)
}

/// Writes the encoded header to the front of `out` and returns its length,
/// `header.encoded_len()`. Every field lands at a fixed offset, so the
/// daemon TX path serializes straight into a frame slot sized once.
///
/// # Panics
///
/// Panics if `out` is shorter than `header.encoded_len()`.
pub fn encode_into(header: &CapHeader, upper_proto: u8, out: &mut [u8]) -> usize {
    out[0] = (VERSION << 4) | header.type_nibble();
    out[1] = upper_proto;
    let at = match &header.payload {
        CapPayload::Request { entries } => {
            out[2] = entries.len() as u8; // capability num
            out[3] = entries.len() as u8; // capability ptr (next blank slot)
            let end = 4 + entries.len() * ENTRY_LEN;
            for (slot, e) in out[4..end].chunks_exact_mut(ENTRY_LEN).zip(entries) {
                slot[..2].copy_from_slice(&e.path_id.0.to_be_bytes());
                slot[2..].copy_from_slice(&e.precap.to_u64().to_be_bytes());
            }
            end
        }
        CapPayload::Regular { nonce, ptr, caps, .. } => {
            // 48-bit nonce, big-endian.
            out[2..8].copy_from_slice(&nonce.to_u64().to_be_bytes()[2..]);
            match caps {
                None => 8,
                Some((grant, list)) => {
                    out[8] = list.len() as u8; // capability num
                    out[9] = *ptr;
                    out[10..12].copy_from_slice(&grant.pack().to_be_bytes());
                    put_caps(out, 12, list)
                }
            }
        }
    };
    match &header.return_info {
        None => at,
        Some(ReturnInfo::DemotionNotice) => {
            out[at] = RET_DEMOTION;
            at + 1
        }
        Some(ReturnInfo::Capabilities { grant, caps }) => {
            out[at] = RET_CAPS;
            out[at + 1] = caps.len() as u8;
            out[at + 2..at + 4].copy_from_slice(&grant.pack().to_be_bytes());
            put_caps(out, at + 4, caps)
        }
    }
}

fn put_caps(out: &mut [u8], at: usize, caps: &[CapValue]) -> usize {
    let end = at + caps.len() * CAP_LEN;
    for (slot, c) in out[at..end].chunks_exact_mut(CAP_LEN).zip(caps) {
        slot.copy_from_slice(&c.to_u64().to_be_bytes());
    }
    end
}

/// The `n` bytes of `buf` at `at`, or [`WireError::Truncated`].
#[inline]
fn field(buf: &[u8], at: usize, n: usize) -> Result<&[u8], WireError> {
    buf.get(at..at + n).ok_or(WireError::Truncated)
}

fn check_count(num: usize) -> Result<usize, WireError> {
    if num > MAX_PATH_ROUTERS {
        Err(WireError::BadCount(num))
    } else {
        Ok(num)
    }
}

/// Decodes a capability header; returns the header and the upper protocol.
/// Strict: trailing bytes are an error. Use [`decode_prefix`] when the
/// header is embedded in a larger packet.
pub fn decode(buf: &[u8]) -> Result<(CapHeader, u8), WireError> {
    let (header, upper, used) = decode_prefix(buf)?;
    if used != buf.len() {
        return Err(WireError::TrailingBytes(buf.len() - used));
    }
    Ok((header, upper))
}

/// Decodes one capability header from the front of `buf`; returns the
/// header, the upper protocol, and the number of bytes consumed. The shim
/// is self-describing (its counts determine its length), so no outer
/// framing is needed.
pub fn decode_prefix(buf: &[u8]) -> Result<(CapHeader, u8, usize), WireError> {
    let mut header = None;
    let (upper, used) = decode_prefix_into(buf, &mut header)?;
    Ok((header.expect("a successful decode fills the header"), upper, used))
}

/// [`decode_prefix`] into a caller-owned header: on success `out` holds the
/// decoded header (every field overwritten, whatever it held before) and
/// the upper protocol and bytes consumed are returned. Inline lists already
/// in `out` are cleared and refilled rather than rebuilt; a fresh one is
/// built only when the header kind differs. On error `out` is left in an
/// unspecified state and must not be read.
pub fn decode_prefix_into(
    buf: &[u8],
    out: &mut Option<CapHeader>,
) -> Result<(u8, usize), WireError> {
    let &[vt, upper_proto, ..] = buf else { return Err(WireError::Truncated) };
    let version = vt >> 4;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = CapKind::from_bits(vt);
    let h = out.get_or_insert_with(|| CapHeader::regular_nonce_only(FlowNonce::new(0)));
    h.demoted = vt & 0b1000 != 0;
    let has_return = vt & 0b0100 != 0;
    let mut at = 2;

    if kind == CapKind::Request {
        let num = check_count(field(buf, at, 2)?[0] as usize)?; // num, ptr
        at += 2;
        let body = field(buf, at, num * ENTRY_LEN)?;
        at += body.len();
        let entries = request_entries(&mut h.payload);
        entries.clear();
        for e in body.chunks_exact(ENTRY_LEN) {
            entries.push(RequestEntry {
                path_id: PathId(be16(e)),
                precap: CapValue::from_u64(be64(&e[2..])),
            });
        }
    } else {
        let n = field(buf, at, 6)?;
        let nonce_value = FlowNonce::new((u64::from(be16(n)) << 32) | u64::from(be32(&n[2..])));
        at += 6;
        let (nonce, ptr, caps, renewal) = regular_fields(&mut h.payload);
        *nonce = nonce_value;
        *renewal = kind == CapKind::Renewal;
        if kind == CapKind::RegularNonceOnly {
            *ptr = 0;
            *caps = None;
        } else {
            let head = field(buf, at, 4)?; // num, ptr, N/T
            let num = check_count(head[0] as usize)?;
            *ptr = head[1];
            let grant = Grant::unpack(be16(&head[2..]));
            at += 4;
            let body = field(buf, at, num * CAP_LEN)?;
            at += body.len();
            let (g, list) = caps.get_or_insert_with(|| (grant, CapList::new()));
            *g = grant;
            read_caps(body, list);
        }
    }

    if has_return {
        match field(buf, at, 1)?[0] {
            RET_DEMOTION => {
                h.return_info = Some(ReturnInfo::DemotionNotice);
                at += 1;
            }
            RET_CAPS => {
                let head = field(buf, at + 1, 3)?; // num, N/T
                let num = check_count(head[0] as usize)?;
                let grant = Grant::unpack(be16(&head[1..]));
                at += 4;
                let body = field(buf, at, num * CAP_LEN)?;
                at += body.len();
                read_caps(body, return_caps(&mut h.return_info, grant));
            }
            other => return Err(WireError::BadReturnType(other)),
        }
    } else {
        h.return_info = None;
    }
    Ok((upper_proto, at))
}

fn read_caps(body: &[u8], list: &mut CapList) {
    list.clear();
    for c in body.chunks_exact(CAP_LEN) {
        list.push(CapValue::from_u64(be64(c)));
    }
}

/// `payload`'s request list, reshaping a regular payload into an empty
/// request first.
fn request_entries(payload: &mut CapPayload) -> &mut RequestList {
    if let CapPayload::Regular { .. } = payload {
        *payload = CapPayload::Request { entries: RequestList::new() };
    }
    match payload {
        CapPayload::Request { entries } => entries,
        CapPayload::Regular { .. } => unreachable!("reshaped to a request above"),
    }
}

/// `payload`'s regular-packet fields, reshaping a request into a nonce-only
/// regular payload first.
fn regular_fields(
    payload: &mut CapPayload,
) -> (&mut FlowNonce, &mut u8, &mut Option<(Grant, CapList)>, &mut bool) {
    if let CapPayload::Request { .. } = payload {
        *payload =
            CapPayload::Regular { nonce: FlowNonce::new(0), ptr: 0, caps: None, renewal: false };
    }
    match payload {
        CapPayload::Regular { nonce, ptr, caps, renewal } => (nonce, ptr, caps, renewal),
        CapPayload::Request { .. } => unreachable!("reshaped to a regular payload above"),
    }
}

/// The capability list of `ret`, set to carry `grant`, reshaping any other
/// return info into an empty capability return first.
fn return_caps(ret: &mut Option<ReturnInfo>, grant: Grant) -> &mut CapList {
    if !matches!(ret, Some(ReturnInfo::Capabilities { .. })) {
        *ret = Some(ReturnInfo::Capabilities { grant, caps: CapList::new() });
    }
    match ret {
        Some(ReturnInfo::Capabilities { grant: g, caps }) => {
            *g = grant;
            caps
        }
        _ => unreachable!("reshaped to a capability return above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_caps() -> CapList {
        [CapValue::new(10, 0xAABBCC), CapValue::new(200, 0x112233445566)].into()
    }

    #[test]
    fn roundtrip_request() {
        let mut h = CapHeader::request();
        if let CapPayload::Request { entries } = &mut h.payload {
            entries.push(RequestEntry { path_id: PathId(0x1234), precap: CapValue::new(7, 99) });
            entries.push(RequestEntry { path_id: PathId::NONE, precap: CapValue::new(8, 100) });
        }
        let bytes = encode(&h, 6);
        assert_eq!(bytes.len(), h.encoded_len());
        let (decoded, proto) = decode(&bytes).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(proto, 6);
    }

    #[test]
    fn roundtrip_regular_with_caps_and_return() {
        let mut h = CapHeader::regular_with_caps(
            FlowNonce::new(0xFACE_CAFE_BEEF),
            Grant::from_parts(100, 10),
            sample_caps(),
        );
        h.return_info = Some(ReturnInfo::Capabilities {
            grant: Grant::from_parts(32, 10),
            caps: sample_caps(),
        });
        let bytes = encode(&h, 17);
        assert_eq!(bytes.len(), h.encoded_len());
        let (decoded, proto) = decode(&bytes).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(proto, 17);
    }

    #[test]
    fn roundtrip_nonce_only_demoted() {
        let mut h = CapHeader::regular_nonce_only(FlowNonce::new(42));
        h.demoted = true;
        h.return_info = Some(ReturnInfo::DemotionNotice);
        let bytes = encode(&h, 6);
        let (decoded, _) = decode(&bytes).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn roundtrip_renewal() {
        let h = CapHeader::renewal(
            FlowNonce::new(7),
            Grant::from_parts(512, 30),
            sample_caps(),
        );
        let (decoded, _) = decode(&encode(&h, 6)).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn truncated_inputs_error() {
        let h = CapHeader::regular_with_caps(
            FlowNonce::new(1),
            Grant::from_parts(10, 10),
            sample_caps(),
        );
        let bytes = encode(&h, 6);
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode(&bytes[..cut]), Err(WireError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_errors() {
        let h = CapHeader::regular_nonce_only(FlowNonce::new(9));
        let mut v = encode(&h, 6).to_vec();
        v.push(0xFF);
        assert!(matches!(decode(&v), Err(WireError::TrailingBytes(1))));
    }

    #[test]
    fn bad_version_errors() {
        let h = CapHeader::regular_nonce_only(FlowNonce::new(9));
        let mut v = encode(&h, 6).to_vec();
        v[0] = (0xF << 4) | (v[0] & 0x0F);
        assert!(matches!(decode(&v), Err(WireError::BadVersion(15))));
    }

    #[test]
    fn oversized_count_errors() {
        let h = CapHeader::request();
        let mut v = encode(&h, 6).to_vec();
        v[2] = 255; // capability num
        assert!(matches!(decode(&v), Err(WireError::BadCount(255))));
    }

    #[test]
    fn bad_return_type_errors() {
        let mut h = CapHeader::regular_nonce_only(FlowNonce::new(9));
        h.return_info = Some(ReturnInfo::DemotionNotice);
        let mut v = encode(&h, 6).to_vec();
        *v.last_mut().unwrap() = 0x77;
        assert!(matches!(decode(&v), Err(WireError::BadReturnType(0x77))));
    }
}
