//! Property tests for the wire codec: randomized frames of every type
//! round-trip exactly, every strict prefix of an encoding is rejected,
//! and corruption anywhere in a frame never panics the decoder — payload
//! or checksum corruption is *always* pinned as `ChecksumMismatch`.
//! `encode_into` appends exactly `encode()`, and frames coalesced into one
//! buffer (one daemon write per peer per round) read back one by one
//! through a reader whose buffer every frame straddles.

use std::io::BufReader;

use proptest::prelude::*;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use reconfig_node::wire::{Frame, WireError, DEFAULT_MAX_FRAME, HEADER_LEN};

/// Build a random frame of the given type from a seeded RNG. Lists are
/// kept small so the encodings stay inspectable on failure.
fn arbitrary_frame(kind: u8, seed: u64) -> Frame {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    fn list(rng: &mut ChaCha8Rng, max: usize) -> Vec<u64> {
        let n = rng.random_range(0..max);
        (0..n).map(|_| rng.random::<u64>()).collect()
    }
    match kind % 8 {
        0 => Frame::Hello { node: rng.random(), port: rng.random::<u64>() as u16 },
        1 => Frame::Welcome {
            round: rng.random(),
            n0: rng.random(),
            seed: rng.random(),
            peers: (0..rng.random_range(0..6))
                .map(|_| (rng.random(), rng.random::<u64>() as u16))
                .collect(),
        },
        2 => Frame::Ready { node: rng.random() },
        3 => Frame::Msg {
            from: rng.random(),
            to: rng.random(),
            sent_round: rng.random(),
            payload: rng.random(),
        },
        4 => Frame::RoundMark { from: rng.random(), round: rng.random() },
        5 => Frame::Tick {
            round: rng.random(),
            hold_extra: rng.random_range(0..4),
            blocked: list(&mut rng, 6),
            marks: list(&mut rng, 6),
        },
        6 => Frame::Report {
            node: rng.random(),
            round: rng.random(),
            digest: rng.random(),
            delivered: rng.random(),
            dropped: rng.random(),
            delays: (0..rng.random_range(0..4))
                .map(|_| (rng.random(), rng.random(), rng.random(), rng.random()))
                .collect(),
        },
        _ => Frame::Shutdown,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_frame_type_roundtrips(kind in 0u8..8, seed in 0u64..u64::MAX) {
        let frame = arbitrary_frame(kind, seed);
        let bytes = frame.encode();
        let back = Frame::decode(&bytes, DEFAULT_MAX_FRAME);
        prop_assert_eq!(back.as_ref(), Ok(&frame), "kind {} seed {}", kind, seed);
        // And through the streaming reader, with a trailing second frame
        // to prove framing doesn't over-read.
        let mut stream = bytes.clone();
        stream.extend_from_slice(&Frame::Shutdown.encode());
        let mut cursor = &stream[..];
        let first = Frame::read_from(&mut cursor, DEFAULT_MAX_FRAME);
        prop_assert_eq!(first.as_ref(), Ok(&frame));
        let second = Frame::read_from(&mut cursor, DEFAULT_MAX_FRAME);
        prop_assert_eq!(second, Ok(Frame::Shutdown));
    }

    #[test]
    fn every_strict_prefix_is_rejected(kind in 0u8..8, seed in 0u64..u64::MAX) {
        let bytes = arbitrary_frame(kind, seed).encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut], DEFAULT_MAX_FRAME);
            prop_assert!(err.is_err(), "prefix of {} bytes decoded: {:?}", cut, err);
        }
    }

    #[test]
    fn encode_into_appends_exactly_encode(
        kind in 0u8..8, seed in 0u64..u64::MAX, prefix_len in 1usize..40
    ) {
        let frame = arbitrary_frame(kind, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF00D);
        let prefix: Vec<u8> = (0..prefix_len).map(|_| rng.random::<u64>() as u8).collect();
        let mut out = prefix.clone();
        frame.encode_into(&mut out);
        let mut want = prefix;
        want.extend_from_slice(&frame.encode());
        prop_assert_eq!(out, want, "kind {} seed {}", kind, seed);
    }

    #[test]
    fn coalesced_frames_read_back_through_a_small_buffer(
        seed in 0u64..u64::MAX, count in 1usize..12
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let frames: Vec<Frame> =
            (0..count).map(|_| arbitrary_frame(rng.random::<u64>() as u8, rng.random())).collect();
        let mut wire = Vec::new();
        for frame in &frames {
            frame.encode_into(&mut wire);
        }
        // Seven bytes of buffer: every frame (18-byte header at least)
        // straddles a refill, most of them several.
        let mut reader = BufReader::with_capacity(7, &wire[..]);
        for frame in &frames {
            prop_assert_eq!(Frame::read_from(&mut reader, DEFAULT_MAX_FRAME).as_ref(), Ok(frame));
        }
        prop_assert_eq!(Frame::read_from(&mut reader, DEFAULT_MAX_FRAME), Err(WireError::Truncated));
    }

    #[test]
    fn single_byte_corruption_never_panics(kind in 0u8..8, seed in 0u64..u64::MAX, flip in 0u8..8) {
        let bytes = arbitrary_frame(kind, seed).encode();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << flip;
            // Must return — Ok for a coincidentally-valid reparse is
            // allowed (the checksum only covers the payload), panicking
            // or looping is not.
            let _ = Frame::decode(&bad, DEFAULT_MAX_FRAME);
        }
    }

    #[test]
    fn payload_or_checksum_corruption_is_checksum_mismatch(
        kind in 0u8..8, seed in 0u64..u64::MAX, flip in 0u8..8
    ) {
        let bytes = arbitrary_frame(kind, seed).encode();
        // Corruptible region: the 8 checksum bytes plus the payload.
        for pos in HEADER_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << flip;
            let got = Frame::decode(&bad, DEFAULT_MAX_FRAME);
            prop_assert!(
                matches!(got, Err(WireError::ChecksumMismatch { .. })),
                "byte {} bit {}: {:?}", pos, flip, got
            );
        }
    }
}
