//! The `reconfig-node` wire protocol.
//!
//! Every frame on every connection (node↔node and node↔coordinator) is
//! encoded the same way:
//!
//! ```text
//! +------+---------+------+-----------+-------------+-----------------+
//! | RCFG | version | type | len (u32) | fnv64 (u64) | payload (len B) |
//! +------+---------+------+-----------+-------------+-----------------+
//!   4 B      1 B     1 B     4 B LE        8 B LE
//! ```
//!
//! The checksum is FNV-1a over the payload bytes (via [`simnet::Digest`],
//! the repo's canonical FNV), which catches truncation and corruption but
//! is **not** authentication: any local process that can reach a node's
//! port can forge a valid frame. See DESIGN.md §13 for the trust boundary.
//!
//! Decoding is total: every malformed input maps to a typed
//! [`WireError`], never a panic, and frames larger than the configured
//! cap are rejected *before* any allocation of the payload.

use std::io::{self, Read, Write};

use simnet::Digest;

/// Frame magic: `b"RCFG"`.
pub const MAGIC: [u8; 4] = *b"RCFG";
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Header bytes before the payload (magic + version + type + length).
pub const HEADER_LEN: usize = 10;
/// Default maximum payload length; override via `NODE_MAX_FRAME`.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Everything that travels between cluster processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Node → coordinator: first frame on the control connection; `port`
    /// is where the node accepts peer connections (always on 127.0.0.1).
    /// Also the dialling node's first frame on every peer connection,
    /// naming the sender to the receiver's accept thread.
    Hello {
        /// Sender's node id.
        node: u64,
        /// Listener port for peer frames.
        port: u16,
    },
    /// Coordinator → node: run parameters and the peer table.
    Welcome {
        /// First round this node executes.
        round: u64,
        /// Initial cluster span (`WireProto` targets `0..n0`).
        n0: u64,
        /// Master seed for the node RNG stream.
        seed: u64,
        /// `(node, port)` for every live initial node to dial.
        peers: Vec<(u64, u16)>,
    },
    /// Node → coordinator: peer connections are up, ready for ticks.
    Ready {
        /// Sender's node id.
        node: u64,
    },
    /// Node → node: one protocol message.
    Msg {
        /// Sending node.
        from: u64,
        /// Receiving node.
        to: u64,
        /// Round the message was sent in.
        sent_round: u64,
        /// Protocol payload.
        payload: u64,
    },
    /// Node → node: "all my frames for `round` are before this point" —
    /// the per-connection barrier that makes frame arrival deterministic.
    RoundMark {
        /// Sending node.
        from: u64,
        /// The round whose sends are complete.
        round: u64,
    },
    /// Coordinator → node: execute one round.
    Tick {
        /// Round to execute.
        round: u64,
        /// Lag directive: hold frames deliverable this round for this many
        /// extra rounds (0 = none).
        hold_extra: u64,
        /// The full DoS block set for this round.
        blocked: Vec<u64>,
        /// Peers whose [`Frame::RoundMark`] for `round - 1` must arrive
        /// before executing (empty for the first round and for joiners).
        marks: Vec<u64>,
    },
    /// Node → coordinator: round executed.
    Report {
        /// Sender's node id.
        node: u64,
        /// Round executed.
        round: u64,
        /// State fingerprint after the round.
        digest: u64,
        /// Frames delivered to the protocol.
        delivered: u64,
        /// Frames dropped by the delivery rule.
        dropped: u64,
        /// `(from, to, sent_round, extra)` delay observations.
        delays: Vec<(u64, u64, u64, u64)>,
    },
    /// Coordinator → node: exit cleanly (also used as the crash-stop
    /// "kill" at a round boundary — the victim flushes and dies).
    Shutdown,
}

/// Why a frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// First four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame type byte.
    UnknownType(u8),
    /// Declared payload length exceeds the configured cap.
    Oversized {
        /// Declared length.
        len: usize,
        /// Configured cap.
        max: usize,
    },
    /// Stream ended mid-frame.
    Truncated,
    /// Payload checksum mismatch.
    ChecksumMismatch {
        /// Checksum computed from the payload.
        want: u64,
        /// Checksum carried by the frame.
        got: u64,
    },
    /// Payload did not parse as the declared frame type.
    Malformed(&'static str),
    /// Underlying transport error.
    Io(io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(got) => write!(f, "bad frame magic {got:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame payload {len} bytes exceeds cap {max}")
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::ChecksumMismatch { want, got } => {
                write!(f, "payload checksum {got:#018x} != computed {want:#018x}")
            }
            WireError::Malformed(what) => write!(f, "malformed {what} payload"),
            WireError::Io(kind) => write!(f, "transport error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => WireError::Truncated,
            kind => WireError::Io(kind),
        }
    }
}

const TYPE_HELLO: u8 = 1;
const TYPE_WELCOME: u8 = 2;
const TYPE_READY: u8 = 3;
const TYPE_MSG: u8 = 4;
const TYPE_ROUND_MARK: u8 = 5;
const TYPE_TICK: u8 = 6;
const TYPE_REPORT: u8 = 7;
const TYPE_SHUTDOWN: u8 = 8;

fn checksum(payload: &[u8]) -> u64 {
    Digest::new().write_bytes(payload).finish()
}

/// Appends payload fields to the frame under construction.
struct PayloadWriter<'a>(&'a mut Vec<u8>);

impl PayloadWriter<'_> {
    fn u64(&mut self, x: u64) -> &mut Self {
        self.0.extend_from_slice(&x.to_le_bytes());
        self
    }

    fn u16(&mut self, x: u16) -> &mut Self {
        self.0.extend_from_slice(&x.to_le_bytes());
        self
    }

    fn list_len(&mut self, len: usize) -> &mut Self {
        self.0.extend_from_slice(&(len as u32).to_le_bytes());
        self
    }
}

struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Malformed(self.what))?;
        if end > self.buf.len() {
            return Err(WireError::Malformed(self.what));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn list_len(&mut self) -> Result<usize, WireError> {
        let raw = u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")) as usize;
        // A list element is at least 2 bytes; anything claiming more
        // elements than could fit in the remaining payload is malformed.
        if raw > self.buf.len().saturating_sub(self.pos) {
            return Err(WireError::Malformed(self.what));
        }
        Ok(raw)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(self.what))
        }
    }
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TYPE_HELLO,
            Frame::Welcome { .. } => TYPE_WELCOME,
            Frame::Ready { .. } => TYPE_READY,
            Frame::Msg { .. } => TYPE_MSG,
            Frame::RoundMark { .. } => TYPE_ROUND_MARK,
            Frame::Tick { .. } => TYPE_TICK,
            Frame::Report { .. } => TYPE_REPORT,
            Frame::Shutdown => TYPE_SHUTDOWN,
        }
    }

    /// Payload bytes of the encoding, computed without encoding.
    fn payload_len(&self) -> usize {
        match self {
            Frame::Hello { .. } => 10,
            Frame::Welcome { peers, .. } => 28 + 10 * peers.len(),
            Frame::Ready { .. } => 8,
            Frame::Msg { .. } => 32,
            Frame::RoundMark { .. } => 16,
            Frame::Tick { blocked, marks, .. } => 24 + 8 * (blocked.len() + marks.len()),
            Frame::Report { delays, .. } => 44 + 32 * delays.len(),
            Frame::Shutdown => 0,
        }
    }

    fn write_payload(&self, mut w: PayloadWriter<'_>) {
        match self {
            Frame::Hello { node, port } => {
                w.u64(*node).u16(*port);
            }
            Frame::Welcome { round, n0, seed, peers } => {
                w.u64(*round).u64(*n0).u64(*seed).list_len(peers.len());
                for &(node, port) in peers {
                    w.u64(node).u16(port);
                }
            }
            Frame::Ready { node } => {
                w.u64(*node);
            }
            Frame::Msg { from, to, sent_round, payload } => {
                w.u64(*from).u64(*to).u64(*sent_round).u64(*payload);
            }
            Frame::RoundMark { from, round } => {
                w.u64(*from).u64(*round);
            }
            Frame::Tick { round, hold_extra, blocked, marks } => {
                w.u64(*round).u64(*hold_extra).list_len(blocked.len());
                for &b in blocked {
                    w.u64(b);
                }
                w.list_len(marks.len());
                for &m in marks {
                    w.u64(m);
                }
            }
            Frame::Report { node, round, digest, delivered, dropped, delays } => {
                w.u64(*node).u64(*round).u64(*digest).u64(*delivered).u64(*dropped);
                w.list_len(delays.len());
                for &(from, to, sent_round, extra) in delays {
                    w.u64(from).u64(to).u64(sent_round).u64(extra);
                }
            }
            Frame::Shutdown => {}
        }
    }

    fn from_payload(type_byte: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let frame = match type_byte {
            TYPE_HELLO => {
                let mut r = PayloadReader::new(payload, "hello");
                let frame = Frame::Hello { node: r.u64()?, port: r.u16()? };
                r.done()?;
                frame
            }
            TYPE_WELCOME => {
                let mut r = PayloadReader::new(payload, "welcome");
                let (round, n0, seed) = (r.u64()?, r.u64()?, r.u64()?);
                let n = r.list_len()?;
                let mut peers = Vec::with_capacity(n);
                for _ in 0..n {
                    peers.push((r.u64()?, r.u16()?));
                }
                r.done()?;
                Frame::Welcome { round, n0, seed, peers }
            }
            TYPE_READY => {
                let mut r = PayloadReader::new(payload, "ready");
                let frame = Frame::Ready { node: r.u64()? };
                r.done()?;
                frame
            }
            TYPE_MSG => {
                let mut r = PayloadReader::new(payload, "msg");
                let frame = Frame::Msg {
                    from: r.u64()?,
                    to: r.u64()?,
                    sent_round: r.u64()?,
                    payload: r.u64()?,
                };
                r.done()?;
                frame
            }
            TYPE_ROUND_MARK => {
                let mut r = PayloadReader::new(payload, "round-mark");
                let frame = Frame::RoundMark { from: r.u64()?, round: r.u64()? };
                r.done()?;
                frame
            }
            TYPE_TICK => {
                let mut r = PayloadReader::new(payload, "tick");
                let (round, hold_extra) = (r.u64()?, r.u64()?);
                let n = r.list_len()?;
                let mut blocked = Vec::with_capacity(n);
                for _ in 0..n {
                    blocked.push(r.u64()?);
                }
                let n = r.list_len()?;
                let mut marks = Vec::with_capacity(n);
                for _ in 0..n {
                    marks.push(r.u64()?);
                }
                r.done()?;
                Frame::Tick { round, hold_extra, blocked, marks }
            }
            TYPE_REPORT => {
                let mut r = PayloadReader::new(payload, "report");
                let (node, round, digest) = (r.u64()?, r.u64()?, r.u64()?);
                let (delivered, dropped) = (r.u64()?, r.u64()?);
                let n = r.list_len()?;
                let mut delays = Vec::with_capacity(n);
                for _ in 0..n {
                    delays.push((r.u64()?, r.u64()?, r.u64()?, r.u64()?));
                }
                r.done()?;
                Frame::Report { node, round, digest, delivered, dropped, delays }
            }
            TYPE_SHUTDOWN => {
                PayloadReader::new(payload, "shutdown").done()?;
                Frame::Shutdown
            }
            other => return Err(WireError::UnknownType(other)),
        };
        Ok(frame)
    }

    /// Append the encoded frame to `out`, allocating only if `out` must
    /// grow: the length and checksum fields are patched in after the
    /// payload is written in place. Frames appended one after another are
    /// exactly what consecutive [`Frame::read_from`] calls read back.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.type_byte());
        out.extend_from_slice(&[0; 12]);
        let body = out.len();
        self.write_payload(PayloadWriter(out));
        let len = (out.len() - body) as u32;
        let sum = checksum(&out[body..]);
        out[start + 6..start + 10].copy_from_slice(&len.to_le_bytes());
        out[start + 10..body].copy_from_slice(&sum.to_le_bytes());
    }

    /// Encode into a byte vector of exactly the encoding's length.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 8 + self.payload_len());
        self.encode_into(&mut out);
        out
    }

    /// Write the encoded frame to `w` with one `write_all`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), WireError> {
        w.write_all(&self.encode())?;
        Ok(())
    }

    /// Read one frame from `r`, rejecting payloads longer than
    /// `max_frame` before reading them.
    pub fn read_from<R: Read>(r: &mut R, max_frame: usize) -> Result<Frame, WireError> {
        let mut header = [0u8; HEADER_LEN + 8];
        r.read_exact(&mut header)?;
        let magic: [u8; 4] = header[0..4].try_into().expect("4 bytes");
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if header[4] != VERSION {
            return Err(WireError::BadVersion(header[4]));
        }
        let type_byte = header[5];
        let len = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes")) as usize;
        if len > max_frame {
            return Err(WireError::Oversized { len, max: max_frame });
        }
        let got = u64::from_le_bytes(header[10..18].try_into().expect("8 bytes"));
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        let want = checksum(&payload);
        if want != got {
            return Err(WireError::ChecksumMismatch { want, got });
        }
        Frame::from_payload(type_byte, &payload)
    }

    /// Decode one frame from a byte slice (must contain exactly one frame).
    pub fn decode(bytes: &[u8], max_frame: usize) -> Result<Frame, WireError> {
        let mut cursor = bytes;
        let frame = Frame::read_from(&mut cursor, max_frame)?;
        if !cursor.is_empty() {
            return Err(WireError::Malformed("trailing bytes after frame"));
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello { node: 3, port: 40123 },
            Frame::Welcome {
                round: 2,
                n0: 8,
                seed: 42,
                peers: vec![(0, 1000), (1, 1001), (7, 1007)],
            },
            Frame::Ready { node: 7 },
            Frame::Msg { from: 1, to: 2, sent_round: 9, payload: u64::MAX },
            Frame::RoundMark { from: 5, round: 11 },
            Frame::Tick { round: 4, hold_extra: 2, blocked: vec![1, 3], marks: vec![0, 2, 5] },
            Frame::Report {
                node: 2,
                round: 4,
                digest: 0xdead_beef,
                delivered: 3,
                dropped: 1,
                delays: vec![(1, 2, 3, 1), (0, 2, 3, 2)],
            },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn every_frame_type_roundtrips() {
        for frame in samples() {
            let bytes = frame.encode();
            let back = Frame::decode(&bytes, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn payload_len_is_the_encoded_payload_length() {
        for frame in samples() {
            assert_eq!(frame.encode().len(), HEADER_LEN + 8 + frame.payload_len(), "{frame:?}");
        }
    }

    #[test]
    fn frames_roundtrip_through_a_stream() {
        let mut buf = Vec::new();
        for frame in samples() {
            frame.write_to(&mut buf).unwrap();
        }
        let mut cursor = &buf[..];
        for frame in samples() {
            assert_eq!(Frame::read_from(&mut cursor, DEFAULT_MAX_FRAME).unwrap(), frame);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn truncation_at_every_length_is_a_typed_error_not_a_panic() {
        let bytes =
            Frame::Tick { round: 1, hold_extra: 0, blocked: vec![2], marks: vec![0, 1] }.encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut], DEFAULT_MAX_FRAME).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::Malformed(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = Frame::Shutdown.encode();
        bytes[0] = b'X';
        assert!(matches!(Frame::decode(&bytes, DEFAULT_MAX_FRAME), Err(WireError::BadMagic(_))));
        let mut bytes = Frame::Shutdown.encode();
        bytes[4] = VERSION + 1;
        assert_eq!(
            Frame::decode(&bytes, DEFAULT_MAX_FRAME),
            Err(WireError::BadVersion(VERSION + 1))
        );
    }

    #[test]
    fn oversized_frames_are_rejected_by_declared_length() {
        let bytes = Frame::Msg { from: 0, to: 1, sent_round: 0, payload: 0 }.encode();
        let err = Frame::decode(&bytes, 8).unwrap_err();
        assert_eq!(err, WireError::Oversized { len: 32, max: 8 });
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut bytes = Frame::Msg { from: 0, to: 1, sent_round: 2, payload: 3 }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            Frame::decode(&bytes, DEFAULT_MAX_FRAME),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn unknown_type_and_trailing_bytes_are_rejected() {
        let mut bytes = Frame::Shutdown.encode();
        bytes[5] = 99;
        // Checksum covers only the payload, so the type byte flip is caught
        // by the type dispatch, not the checksum.
        assert_eq!(Frame::decode(&bytes, DEFAULT_MAX_FRAME), Err(WireError::UnknownType(99)));

        let mut bytes = Frame::Shutdown.encode();
        bytes.push(0);
        assert!(matches!(Frame::decode(&bytes, DEFAULT_MAX_FRAME), Err(WireError::Malformed(_))));
    }

    #[test]
    fn absurd_list_length_is_rejected_without_allocating() {
        // A Tick frame claiming u32::MAX blocked entries in a 20-byte
        // payload must fail as malformed, not attempt the allocation.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(6); // tick
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&checksum(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert_eq!(Frame::decode(&bytes, DEFAULT_MAX_FRAME), Err(WireError::Malformed("tick")));
    }
}
