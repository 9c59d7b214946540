//! Property-style tests for SACK block generation and wire encoding,
//! driven by a deterministic seeded PRNG (the build environment has no
//! crates.io access, so `proptest` is unavailable).
//!
//! Invariants checked for arbitrary out-of-order span sets:
//! * [`netsim::cc::merged_spans`] yields disjoint, strictly ascending
//!   ranges that cover exactly the input octets above `rcv_nxt`;
//! * [`netsim::cc::wire_sack_blocks`] equals the first four merged
//!   spans (the option-space cap) and never exceeds four blocks;
//! * [`SackBlocks::encode`]/[`SackBlocks::decode`] round-trip, and the
//!   encoding is RFC 2018's: 4 + 8·n bytes, a multiple of four.

use netsim::cc::{merged_spans, wire_sack_blocks};
use netsim::seq::Seq;
use netsim::SackBlocks;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Random receiver state: a `rcv_nxt` and up to `max_spans` out-of-order
/// spans sorted by start, exactly as the receiver's `BTreeMap` iteration
/// yields them. Octet values stay small so exhaustive coverage checks
/// stay cheap and far from sequence wrap.
fn random_spans(rng: &mut SmallRng, max_spans: usize) -> (Vec<(u32, u32)>, u32) {
    // Drawn as `u64`, as the spans always were, so each seed gives the
    // same cases.
    let draw = |rng: &mut SmallRng, below: u64| rng.gen_range(0..below) as u32;
    let rcv_nxt = draw(rng, 500);
    let n = rng.gen_range(0..=max_spans);
    let mut spans: Vec<(u32, u32)> = (0..n)
        .map(|_| {
            let start = draw(rng, 2_000);
            let len = draw(rng, 60);
            (start, start + len)
        })
        .collect();
    spans.sort();
    (spans, rcv_nxt)
}

/// `merged_spans` over wire values, back as wire values.
fn merged(spans: &[(u32, u32)], rcv_nxt: u32) -> Vec<(u32, u32)> {
    merged_spans(seqs(spans), Seq::new(rcv_nxt))
        .into_iter()
        .map(|(s, e)| (s.raw(), e.raw()))
        .collect()
}

/// `wire_sack_blocks` over wire values.
fn wire(spans: &[(u32, u32)], rcv_nxt: u32) -> SackBlocks {
    wire_sack_blocks(seqs(spans), Seq::new(rcv_nxt))
}

fn seqs(spans: &[(u32, u32)]) -> impl Iterator<Item = (Seq, Seq)> + '_ {
    spans.iter().map(|&(s, e)| (Seq::new(s), Seq::new(e)))
}

/// Every octet of `spans` above `rcv_nxt`, as an explicit set.
fn octets_above(spans: &[(u32, u32)], rcv_nxt: u32) -> BTreeSet<u32> {
    spans
        .iter()
        .flat_map(|&(s, e)| s..e)
        .filter(|&o| o >= rcv_nxt)
        .collect()
}

#[test]
fn merged_spans_disjoint_ordered_exact_cover() {
    let mut rng = SmallRng::seed_from_u64(0x5ac1);
    for _ in 0..2_000 {
        let (spans, rcv_nxt) = random_spans(&mut rng, 12);
        let merged = merged(&spans, rcv_nxt);

        // Non-empty, strictly ascending, disjoint (no touching ranges
        // survive the merge).
        for &(s, e) in &merged {
            assert!(s < e, "empty merged span ({s}, {e})");
        }
        for w in merged.windows(2) {
            assert!(
                w[0].1 < w[1].0,
                "spans {:?} and {:?} overlap or touch unmerged",
                w[0],
                w[1]
            );
        }

        // Exact cover: the merged octet set equals the input octet set
        // above rcv_nxt — except octets of a span straddling rcv_nxt,
        // which the generator keeps whole (the cumulative ACK trims
        // them on the wire, not here).
        let covered: BTreeSet<u32> = merged.iter().flat_map(|&(s, e)| s..e).collect();
        let expected = octets_above(&spans, rcv_nxt);
        assert!(
            covered.is_superset(&expected),
            "merged spans lost octets: spans {spans:?} rcv_nxt {rcv_nxt}"
        );
        let input_all: BTreeSet<u32> = spans.iter().flat_map(|&(s, e)| s..e).collect();
        assert!(
            covered.is_subset(&input_all),
            "merged spans invented octets: spans {spans:?} rcv_nxt {rcv_nxt}"
        );
        // Every surviving span must carry at least one octet above
        // rcv_nxt (fully-acknowledged spans are dropped).
        for &(s, e) in &merged {
            assert!(
                (s..e).any(|o| o >= rcv_nxt),
                "span ({s}, {e}) is entirely at or below rcv_nxt {rcv_nxt}"
            );
        }
    }
}

#[test]
fn wire_blocks_are_first_four_merged_spans() {
    let mut rng = SmallRng::seed_from_u64(0x5ac2);
    let mut saw_capped = false;
    for _ in 0..2_000 {
        let (spans, rcv_nxt) = random_spans(&mut rng, 12);
        let merged = merged(&spans, rcv_nxt);
        let wire = wire(&spans, rcv_nxt);

        assert!(wire.len() <= 4);
        let expect: Vec<(u32, u32)> = merged.iter().copied().take(4).collect();
        let got: Vec<(u32, u32)> = wire.iter().collect();
        assert_eq!(
            got, expect,
            "wire option disagrees with merged spans: spans {spans:?} rcv_nxt {rcv_nxt}"
        );
        saw_capped |= merged.len() > 4;
    }
    assert!(
        saw_capped,
        "generator never produced more than four merged spans; cap untested"
    );
}

#[test]
fn wire_roundtrip_and_length() {
    let mut rng = SmallRng::seed_from_u64(0x5ac3);
    for _ in 0..2_000 {
        let (spans, rcv_nxt) = random_spans(&mut rng, 12);
        let wire = wire(&spans, rcv_nxt);

        let mut bytes = Vec::new();
        wire.encode(&mut bytes);
        // NOP NOP kind length, then 8 bytes a block: 4-byte aligned.
        let expect = if wire.is_empty() {
            0
        } else {
            4 + 8 * wire.len()
        };
        assert_eq!(bytes.len(), expect, "encoded length");
        assert_eq!(bytes.len(), wire.encoded_len());
        let decoded = SackBlocks::decode(&bytes).expect("own encoding must parse");
        assert_eq!(decoded, wire, "encode/decode round trip");
    }
}

#[test]
fn decode_rejects_malformed() {
    // Truncated, wrong kind, non-block length: all rejected, while the
    // empty option stays accepted.
    assert_eq!(SackBlocks::decode(&[]), Some(SackBlocks::NONE));
    assert_eq!(SackBlocks::decode(&[SackBlocks::KIND]), None);
    assert_eq!(SackBlocks::decode(&[0x02, 18]), None);
    let mut good = Vec::new();
    let mut one = SackBlocks::NONE;
    one.push(10, 20);
    one.encode(&mut good);
    assert_eq!(SackBlocks::decode(&good), Some(one));
    // Length byte claiming more than the buffer holds.
    let mut short = good.clone();
    short.truncate(10);
    assert_eq!(SackBlocks::decode(&short), None);
    // Length not of the form 2 + 8·n.
    let mut crooked = good.clone();
    crooked[3] = 17;
    assert_eq!(SackBlocks::decode(&crooked), None);
}
