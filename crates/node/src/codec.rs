//! Serialization of [`ProtocolMsg`] into `omn-net` wire frames.
//!
//! Every message a node task sends crosses its link as real bytes: the
//! protocol payload is tag-encoded, wrapped in an [`omn_net::Frame`] whose
//! [`Message`] header carries the sender, receiver, and send instant, and
//! decoded back on the receiving side. Decode failures are typed
//! ([`CodecError`]) and surface as counted drops, never panics.

use omn_contacts::NodeId;
use omn_core::protocol::{PeerSummary, ProtocolMsg};
use omn_net::{Frame, Message, MessageId, WireError};
use omn_sim::SimTime;

/// Payload tag for [`ProtocolMsg::Refresh`].
const TAG_REFRESH: u8 = 0;
/// Payload tag for [`ProtocolMsg::Summary`].
const TAG_SUMMARY: u8 = 1;

/// Why a received byte buffer could not be decoded into a protocol
/// message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The outer frame was malformed or oversized.
    Frame(WireError),
    /// The buffer held a frame prefix but not a whole frame.
    Truncated,
    /// Whole-frame decode left unconsumed trailing bytes.
    TrailingBytes,
    /// The payload tag is not part of the protocol.
    UnknownTag(u8),
    /// The payload body did not match its tag's layout.
    BadPayload,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Frame(e) => write!(f, "frame error: {e}"),
            CodecError::Truncated => write!(f, "buffer holds only a partial frame"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after frame"),
            CodecError::UnknownTag(t) => write!(f, "unknown protocol payload tag {t}"),
            CodecError::BadPayload => write!(f, "payload body does not match its tag"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> CodecError {
        CodecError::Frame(e)
    }
}

/// Encodes `msg` from `from` to `to` at simulated instant `at` into one
/// wire frame. `seq` becomes the frame's [`MessageId`] (unique per
/// sender).
#[must_use]
pub fn encode(seq: u64, from: NodeId, to: NodeId, at: SimTime, msg: &ProtocolMsg) -> Vec<u8> {
    let payload = encode_payload(msg);
    let size = payload.len().max(1) as u64;
    let message = Message::new(MessageId(seq), from, to, size, at, None);
    Frame::new(message, payload).to_bytes()
}

/// Decodes one whole frame: the sender, the simulated send instant, and
/// the protocol message.
pub fn decode(bytes: &[u8]) -> Result<(NodeId, SimTime, ProtocolMsg), CodecError> {
    let (frame, used) = Frame::decode(bytes)?.ok_or(CodecError::Truncated)?;
    if used != bytes.len() {
        return Err(CodecError::TrailingBytes);
    }
    let msg = decode_payload(&frame.payload)?;
    Ok((frame.message.src(), frame.message.created(), msg))
}

/// Decodes the protocol payload of an already-parsed frame (for
/// transports that do their own stream framing).
pub fn decode_frame(frame: &Frame) -> Result<ProtocolMsg, CodecError> {
    decode_payload(&frame.payload)
}

fn encode_payload(msg: &ProtocolMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    match *msg {
        ProtocolMsg::Refresh { version } => {
            out.push(TAG_REFRESH);
            out.extend_from_slice(&version.to_le_bytes());
        }
        ProtocolMsg::Summary(s) => {
            out.push(TAG_SUMMARY);
            out.extend_from_slice(&s.node.0.to_le_bytes());
            out.push(u8::from(s.is_member));
            push_opt_u64(&mut out, s.cache);
            push_opt_u64(&mut out, s.carried);
        }
    }
    out
}

fn decode_payload(payload: &[u8]) -> Result<ProtocolMsg, CodecError> {
    let (&tag, body) = payload.split_first().ok_or(CodecError::BadPayload)?;
    match tag {
        TAG_REFRESH => {
            let version = u64::from_le_bytes(body.try_into().map_err(|_| CodecError::BadPayload)?);
            Ok(ProtocolMsg::Refresh { version })
        }
        TAG_SUMMARY => {
            let mut r = body;
            let node = NodeId(u32::from_le_bytes(
                take(&mut r, 4)?.try_into().expect("4 bytes"),
            ));
            let is_member = match take(&mut r, 1)?[0] {
                0 => false,
                1 => true,
                _ => return Err(CodecError::BadPayload),
            };
            let cache = take_opt_u64(&mut r)?;
            let carried = take_opt_u64(&mut r)?;
            if !r.is_empty() {
                return Err(CodecError::BadPayload);
            }
            Ok(ProtocolMsg::Summary(PeerSummary {
                node,
                is_member,
                cache,
                carried,
            }))
        }
        other => Err(CodecError::UnknownTag(other)),
    }
}

fn push_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
}

fn take<'a>(r: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if r.len() < n {
        return Err(CodecError::BadPayload);
    }
    let (head, tail) = r.split_at(n);
    *r = tail;
    Ok(head)
}

fn take_opt_u64(r: &mut &[u8]) -> Result<Option<u64>, CodecError> {
    match take(r, 1)?[0] {
        0 => Ok(None),
        1 => Ok(Some(u64::from_le_bytes(
            take(r, 8)?.try_into().expect("8 bytes"),
        ))),
        _ => Err(CodecError::BadPayload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn refresh_round_trips() {
        let msg = ProtocolMsg::Refresh { version: 42 };
        let bytes = encode(7, n(1), n(2), SimTime::from_secs(30.5), &msg);
        let (from, at, decoded) = decode(&bytes).unwrap();
        assert_eq!(from, n(1));
        assert_eq!(at, SimTime::from_secs(30.5));
        assert_eq!(decoded, msg);
    }

    #[test]
    fn summary_round_trips_with_and_without_fields() {
        for summary in [
            PeerSummary {
                node: n(9),
                is_member: true,
                cache: Some(3),
                carried: None,
            },
            PeerSummary {
                node: n(10),
                is_member: false,
                cache: None,
                carried: Some(11),
            },
            PeerSummary {
                node: n(0),
                is_member: false,
                cache: None,
                carried: None,
            },
        ] {
            let msg = ProtocolMsg::Summary(summary);
            let bytes = encode(1, n(3), n(4), SimTime::ZERO, &msg);
            let (_, _, decoded) = decode(&bytes).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn bad_tag_and_truncation_are_typed_errors() {
        let msg = ProtocolMsg::Refresh { version: 1 };
        let mut bytes = encode(1, n(1), n(2), SimTime::ZERO, &msg);
        assert_eq!(
            decode(&bytes[..bytes.len() - 1]),
            Err(CodecError::Truncated)
        );
        // Corrupt the payload tag (last 9 bytes are tag + version).
        let tag_at = bytes.len() - 9;
        bytes[tag_at] = 0xEE;
        assert_eq!(decode(&bytes), Err(CodecError::UnknownTag(0xEE)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let msg = ProtocolMsg::Refresh { version: 1 };
        let mut bytes = encode(1, n(1), n(2), SimTime::ZERO, &msg);
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn bad_times_are_frame_errors() {
        // A Refresh frame with a ttl, so both time fields are present:
        // `created` sits at byte 28, the ttl value at byte 37.
        let payload = encode_payload(&ProtocolMsg::Refresh { version: 1 });
        let ttl = Some(omn_sim::SimDuration::from_secs(5.0));
        let message = Message::new(MessageId(1), n(1), n(2), 9, SimTime::ZERO, ttl);
        let good = Frame::new(message, payload).to_bytes();
        assert!(decode(&good).is_ok());
        for (at, what) in [(28, "created time"), (37, "ttl")] {
            for bad in [-1.0, f64::NAN, f64::INFINITY] {
                let mut bytes = good.clone();
                bytes[at..at + 8].copy_from_slice(&f64::to_bits(bad).to_le_bytes());
                assert_eq!(
                    decode(&bytes),
                    Err(CodecError::Frame(WireError::Malformed(what))),
                    "{what} = {bad}"
                );
            }
        }
    }
}
