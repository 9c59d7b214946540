//! Seeded model tests: random operation sequences on several `BytesMut`
//! (then several `BytesQueue`) at once, each against a plain `Vec<u8>`.
//! Storage is unobservable — whatever vector a buffer is given by the
//! pool, takes on growth or hands back when it empties, and wherever a
//! queue's chunks happen to end, the contents are the model's after every
//! step. The buffers share one thread's pool and the `Bytes` they hand
//! out are held for a while before they drop, so vectors really do
//! circulate from one owner to another.

use bytes::{Bytes, BytesMut, BytesQueue};
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
            let op = rng.gen_range(0..9u32);
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

/// A queue holds exactly its model's bytes: chunk by chunk, none of them
/// empty, and as one slice.
fn assert_queue(queue: &BytesQueue, model: &[u8], at: &str) {
    assert_eq!(queue.len(), model.len(), "{at}");
    assert_eq!(queue.is_empty(), model.is_empty(), "{at}");
    let mut rest = model;
    for chunk in queue.chunks() {
        assert!(!chunk.is_empty(), "{at}: an empty chunk is queued");
        assert!(rest.starts_with(chunk), "{at}: a chunk differs");
        rest = &rest[chunk.len()..];
    }
    assert!(rest.is_empty(), "{at}: the chunks fall short");
    assert_eq!(queue.chunk(), queue.chunks().next().map_or(&[][..], |c| c));
    assert!(queue.slice(0, model.len())[..] == *model, "{at}");
}

#[test]
fn a_queue_follows_the_model_wherever_its_chunks_end() {
    const QUEUES: usize = 4;
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x51ED);
        let mut queues: Vec<(BytesQueue, Vec<u8>)> =
            (0..QUEUES).map(|_| Default::default()).collect();
        let mut held: Vec<(Bytes, Vec<u8>)> = Vec::new();
        for step in 0..STEPS {
            let at = format!("seed {seed} step {step}");
            let which = rng.gen_range(0..QUEUES);
            let other = (which + rng.gen_range(1..QUEUES)) % QUEUES;
            match rng.gen_range(0..12u32) {
                0..=2 => {
                    // A view of a larger buffer, as a store's body is.
                    let data = some_bytes(&mut rng, step as u8);
                    let lo = rng.gen_range(0..=data.len());
                    let hi = rng.gen_range(lo..=data.len());
                    let (queue, model) = &mut queues[which];
                    queue.push(Bytes::from(data.clone()).slice(lo..hi));
                    model.extend_from_slice(&data[lo..hi]);
                }
                3 | 4 => {
                    let data = some_bytes(&mut rng, step as u8);
                    let (queue, model) = &mut queues[which];
                    queue.extend_from_slice(&data);
                    model.extend_from_slice(&data);
                }
                5 | 6 => {
                    // Half the time to the very end.
                    let (queue, model) = &mut queues[which];
                    let n = model.len() - rng.gen_range(0..=model.len()) / 2 * rng.gen_range(0..2);
                    queue.advance(n);
                    model.drain(..n);
                }
                7 | 8 => {
                    let (queue, model) = &queues[which];
                    let off = rng.gen_range(0..=model.len());
                    let len = rng.gen_range(0..=model.len() - off).min(some_len(&mut rng));
                    let view = queue.slice(off, len);
                    assert!(view[..] == model[off..off + len], "{at}");
                    held.push((view, model[off..off + len].to_vec()));
                }
                9 | 10 => {
                    let n = queues[which].1.len();
                    let n = n - rng.gen_range(0..=n) / 2 * rng.gen_range(0..2);
                    let (mut from, mut from_model) = std::mem::take(&mut queues[which]);
                    let (to, to_model) = &mut queues[other];
                    from.drain_into(n, to);
                    to_model.extend(from_model.drain(..n));
                    queues[which] = (from, from_model);
                }
                _ => {
                    let (queue, model) = &mut queues[which];
                    queue.clear();
                    model.clear();
                }
            }
            assert_queue(&queues[which].0, &queues[which].1, &at);
            assert_queue(&queues[other].0, &queues[other].1, &at);
            if step % 8 == 0 {
                assert!(held.iter().all(|(bytes, model)| bytes[..] == model[..]));
            }
            while held.len() > rng.gen_range(0..24usize) {
                let (bytes, model) = held.swap_remove(rng.gen_range(0..held.len()));
                assert!(bytes[..] == model[..], "{at}");
            }
        }
    }
}
