//! Seeded model test: random operation sequences on several `BytesMut`
//! at once, each against a plain `Vec<u8>`. Storage is unobservable —
//! whatever vector a buffer is given by the pool, takes on growth or
//! hands back when it empties, its contents are the model's after every
//! step. The buffers share one thread's pool and the `Bytes` they hand
//! out are held for a while before they drop, so vectors really do
//! circulate from one owner to another.

use bytes::{Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 8;
const STEPS: usize = 4000;
const BUFFERS: usize = 6;

/// Mostly small, sometimes a page, now and then past the largest class.
fn some_len(rng: &mut SmallRng) -> usize {
    match rng.gen_range(0..16u32) {
        0 => rng.gen_range(60_000..140_000),
        1..=3 => rng.gen_range(2_000..50_000),
        4 => 0,
        _ => rng.gen_range(1..2_000),
    }
}

fn some_bytes(rng: &mut SmallRng, tag: u8) -> Vec<u8> {
    let len = some_len(rng);
    (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
}

#[test]
fn contents_follow_the_model_whatever_the_pool_does() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bufs: Vec<(BytesMut, Vec<u8>)> = (0..BUFFERS).map(|_| Default::default()).collect();
        let mut held: Vec<(Bytes, Vec<u8>)> = Vec::new();
        for step in 0..STEPS {
            let which = rng.gen_range(0..BUFFERS);
            let (buf, model) = &mut bufs[which];
            let op = rng.gen_range(0..10u32);
            match op {
                0..=3 => {
                    let data = some_bytes(&mut rng, step as u8);
                    buf.extend_from_slice(&data);
                    model.extend_from_slice(&data);
                }
                4 => buf.reserve(some_len(&mut rng)),
                5 | 6 => {
                    // Half the time to the very end.
                    let at = model.len() - rng.gen_range(0..=model.len()) / 2 * rng.gen_range(0..2);
                    buf.advance(at);
                    model.drain(..at);
                }
                7 => {
                    let at = rng.gen_range(0..=model.len());
                    let taken = buf.split_to_pooled(at);
                    held.push((taken, model.drain(..at).collect()));
                }
                8 => {
                    buf.clear();
                    model.clear();
                }
                _ => {
                    let frozen = std::mem::take(buf).freeze_pooled();
                    held.push((frozen, std::mem::take(model)));
                }
            }
            let (buf, model) = &bufs[which];
            assert_eq!(buf.len(), model.len(), "seed {seed} step {step}");
            assert!(buf[..] == model[..], "seed {seed} step {step}");
            assert!(buf.capacity() >= buf.len());
            // An operation that emptied the buffer left it owning
            // nothing, unless what it owns is past the largest class.
            if op > 4 && buf.is_empty() {
                assert!(buf.capacity() == 0 || buf.capacity() > 1 << 16);
            }
            // Everyone else's bytes are where they were.
            if step % 8 == 0 {
                assert!(bufs.iter().all(|(buf, model)| buf[..] == model[..]));
                assert!(held.iter().all(|(bytes, model)| bytes[..] == model[..]));
            }
            while held.len() > rng.gen_range(0..24usize) {
                let (bytes, model) = held.swap_remove(rng.gen_range(0..held.len()));
                assert!(bytes[..] == model[..], "seed {seed} step {step}");
            }
        }
    }
}
