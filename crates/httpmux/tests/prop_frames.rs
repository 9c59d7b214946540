//! Seeded property tests for the mux frame codec, mirroring the
//! `httpwire` property suite: serialize→parse round-trip identity over
//! randomly generated frames of every type, and no-panic robustness of
//! the incremental parser against mutated / truncated / garbage byte
//! streams. Everything is driven by the in-tree seeded PRNG, so all
//! cases are deterministic.

use httpmux::{
    Frame, FrameParser, FramePayload, FLAG_ACK, FLAG_END_STREAM, MAX_FRAME_PAYLOAD, PREFACE,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ROUNDTRIP_CASES: usize = 4096;
const MUTATION_CASES: usize = 4096;
const TRUNCATION_CASES: usize = 1024;
const GARBAGE_CASES: usize = 2048;

fn field_name(rng: &mut SmallRng) -> String {
    const PSEUDO: [&str; 4] = [":method", ":path", ":status", ":scheme"];
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz-0123456789";
    if rng.gen_range(0..4usize) == 0 {
        return PSEUDO[rng.gen_range(0..PSEUDO.len())].to_string();
    }
    let mut s = String::new();
    for _ in 0..rng.gen_range(1..16usize) {
        s.push(CHARS[rng.gen_range(0..CHARS.len())] as char);
    }
    s
}

fn field_value(rng: &mut SmallRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..40usize) {
        s.push(rng.gen_range(b' '..=b'~') as char);
    }
    s
}

fn fields(rng: &mut SmallRng) -> httpwire::HeaderMap {
    let mut block = httpwire::HeaderMap::new();
    for _ in 0..rng.gen_range(0..12usize) {
        // Name first, then value: the order the cases were seeded in.
        let name = field_name(rng);
        block.append(&name, field_value(rng));
    }
    block
}

fn random_frame(rng: &mut SmallRng) -> Frame {
    let stream = rng.gen_range(0..512u32);
    match rng.gen_range(0..6u8) {
        0 => Frame {
            stream: stream + 1,
            flags: if rng.gen_range(0..2u8) == 0 {
                FLAG_END_STREAM
            } else {
                0
            },
            payload: FramePayload::Data(
                (0..rng.gen_range(0..2_000usize))
                    .map(|_| rng.gen())
                    .collect::<Vec<u8>>()
                    .into(),
            ),
        },
        1 => Frame {
            stream: stream + 1,
            flags: if rng.gen_range(0..2u8) == 0 {
                FLAG_END_STREAM
            } else {
                0
            },
            payload: FramePayload::Headers(fields(rng)),
        },
        2 => Frame {
            stream: stream + 1,
            flags: 0,
            payload: FramePayload::RstStream(rng.gen_range(0..16u32)),
        },
        3 => Frame {
            stream: 0,
            flags: if rng.gen_range(0..3u8) == 0 {
                FLAG_ACK
            } else {
                0
            },
            payload: FramePayload::Settings(
                (0..rng.gen_range(0..4usize))
                    .map(|_| (rng.gen_range(1..8u16), rng.gen_range(0..1 << 20)))
                    .collect(),
            ),
        },
        4 => Frame {
            stream: stream | 1,
            flags: 0,
            payload: FramePayload::PushPromise {
                promised: (stream + 2) & !1,
                fields: fields(rng),
            },
        },
        _ => Frame {
            stream,
            flags: 0,
            payload: FramePayload::WindowUpdate(rng.gen_range(1..1 << 24)),
        },
    }
}

/// Serialize a batch of random frames, feed the wire bytes back through
/// the parser in random-sized chunks, and require exact identity —
/// every stream id, flag, and payload field.
#[test]
fn roundtrip_identity() {
    let mut rng = SmallRng::seed_from_u64(0x6d75_785f_7274_5f31);
    let mut done = 0;
    while done < ROUNDTRIP_CASES {
        let batch: Vec<Frame> = (0..rng.gen_range(1..8usize))
            .map(|_| random_frame(&mut rng))
            .collect();
        let mut wire = Vec::new();
        for frame in &batch {
            wire.extend_from_slice(&frame.encode());
        }
        let mut parser = FrameParser::new();
        let mut parsed = Vec::new();
        let mut off = 0;
        while off < wire.len() {
            let step = rng.gen_range(1..=64usize).min(wire.len() - off);
            parser.feed(&wire[off..off + step]);
            off += step;
            while let Some(frame) = parser.next_frame().expect("clean wire must parse") {
                parsed.push(frame);
            }
        }
        assert_eq!(parsed, batch);
        assert_eq!(parser.buffered(), 0);
        done += batch.len();
    }
}

fn mutate(rng: &mut SmallRng, wire: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..=4usize) {
        if wire.is_empty() {
            wire.push(rng.gen());
            continue;
        }
        match rng.gen_range(0..4u8) {
            0 => {
                let i = rng.gen_range(0..wire.len());
                wire[i] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => {
                let i = rng.gen_range(0..wire.len());
                wire.truncate(i);
            }
            2 => {
                let i = rng.gen_range(0..=wire.len());
                wire.insert(i, rng.gen());
            }
            _ => {
                let i = rng.gen_range(0..wire.len());
                wire.remove(i);
            }
        }
    }
}

/// Randomly corrupted valid wire images never panic the parser: every
/// frame either parses or yields a sticky error.
#[test]
fn mutated_streams_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x6d75_785f_6d75_7431);
    for _ in 0..MUTATION_CASES {
        let mut wire = Vec::new();
        for _ in 0..rng.gen_range(1..6usize) {
            wire.extend_from_slice(&random_frame(&mut rng).encode());
        }
        mutate(&mut rng, &mut wire);
        let mut parser = FrameParser::new();
        parser.feed(&wire);
        for _ in 0..64 {
            match parser.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }
}

/// Every prefix of a valid stream is either incomplete or parses the
/// frames that fit — truncation is never an error mid-header.
#[test]
fn truncated_streams_parse_complete_prefix() {
    let mut rng = SmallRng::seed_from_u64(0x6d75_785f_7472_756e);
    for _ in 0..TRUNCATION_CASES {
        let frames: Vec<Frame> = (0..rng.gen_range(1..5usize))
            .map(|_| random_frame(&mut rng))
            .collect();
        let mut wire = Vec::new();
        let mut boundaries = Vec::new();
        for frame in &frames {
            wire.extend_from_slice(&frame.encode());
            boundaries.push(wire.len());
        }
        let cut = rng.gen_range(0..=wire.len());
        let complete = boundaries.iter().filter(|&&b| b <= cut).count();
        let mut parser = FrameParser::new();
        parser.feed(&wire[..cut]);
        let mut parsed = 0;
        while let Ok(Some(frame)) = parser.next_frame() {
            assert_eq!(frame, frames[parsed]);
            parsed += 1;
        }
        assert_eq!(parsed, complete);
    }
}

/// Pure garbage — including garbage that happens to start like the
/// preface — never panics either parser mode.
#[test]
fn garbage_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x6d75_785f_6762_6721);
    for case in 0..GARBAGE_CASES {
        let len = rng.gen_range(0..400usize);
        let mut wire: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        if case % 3 == 0 {
            let keep = rng.gen_range(0..=PREFACE.len());
            wire.splice(0..0, PREFACE[..keep].iter().copied());
        }
        for preface in [false, true] {
            let mut parser = if preface {
                FrameParser::with_preface()
            } else {
                FrameParser::new()
            };
            parser.feed(&wire);
            for _ in 0..64 {
                match parser.next_frame() {
                    Ok(Some(_)) => {}
                    _ => break,
                }
            }
        }
    }
}

/// Encoded frames always fit the declared max payload, and the length
/// prefix always matches the body actually written.
#[test]
fn length_prefix_is_exact() {
    let mut rng = SmallRng::seed_from_u64(0x6d75_785f_6c65_6e21);
    for _ in 0..1024 {
        let frame = random_frame(&mut rng);
        let wire = frame.encode();
        let len = ((wire[0] as usize) << 16) | ((wire[1] as usize) << 8) | wire[2] as usize;
        assert_eq!(len, wire.len() - httpmux::FRAME_HEADER_LEN);
        assert!(len <= MAX_FRAME_PAYLOAD);
    }
}
