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
            // nothing, whatever the size of what it owned.
            if op > 4 && buf.is_empty() {
                assert_eq!(buf.capacity(), 0, "seed {seed} step {step}");
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
                    assert_eq!(
                        queue.bookkeeping_bytes(),
                        0,
                        "{at}: a cleared queue owns nothing"
                    );
                }
            }
            assert_queue(&queues[which].0, &queues[which].1, &at);
            assert_queue(&queues[other].0, &queues[other].1, &at);
            let (queue, model) = &queues[which];
            assert!(*queue == model[..] && queue.clone() == *queue, "{at}");
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

/// Two shared buffers of distinct contents, as two stored bodies are.
fn two_stores() -> [Bytes; 2] {
    [0u8, 0x5A].map(|tag| {
        Bytes::from(
            (0..20_000u32)
                .map(|i| (i % 251) as u8 ^ tag)
                .collect::<Vec<u8>>(),
        )
    })
}

#[test]
fn push_joins_adjacent_views_of_one_storage_and_nothing_else() {
    let stores = two_stores();
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x701E);
        let mut queue = BytesQueue::new();
        let mut model = Vec::new();
        // The chunks the queue must hold: (store, or `None` for a copy,
        // start, end), adjacent views of one store merged.
        let mut runs: Vec<(Option<usize>, usize, usize)> = Vec::new();
        // Where the next adjacent piece of each store starts.
        let mut next = [0usize; 2];
        for step in 0..400 {
            let s = rng.gen_range(0..2);
            let op = rng.gen_range(0..10u32);
            let mut start = next[s];
            match op {
                6 => start += rng.gen_range(1..50),                      // a gap
                7 => start = start.saturating_sub(rng.gen_range(1..50)), // overlap
                _ => {}
            }
            if start >= stores[s].len() {
                next[s] = 0;
                continue;
            }
            let end = (start + rng.gen_range(0..3_000)).min(stores[s].len());
            if op == 8 {
                // A copy of the very bytes that would have joined.
                queue.extend_from_slice(&stores[s][start..end]);
                if end > start {
                    runs.push((None, start, end));
                }
            } else {
                queue.push(stores[s].slice(start..end));
                match runs.last_mut() {
                    _ if end == start => {}
                    Some((Some(t), _, last)) if *t == s && *last == start => *last = end,
                    _ => runs.push((Some(s), start, end)),
                }
            }
            model.extend_from_slice(&stores[s][start..end]);
            next[s] = end;
            assert_queue(&queue, &model, &format!("seed {seed} step {step}"));
        }
        assert_eq!(queue.chunks().count(), runs.len(), "seed {seed}");
        let mut off = 0;
        for (chunk, &(store, start, end)) in queue.chunks().zip(&runs) {
            assert_eq!(chunk.len(), end - start, "seed {seed}");
            let run_off = off;
            off += end - start;
            let Some(s) = store else { continue };
            assert_eq!(chunk.as_ptr(), stores[s][start..].as_ptr(), "seed {seed}");
            // Anywhere inside a joined run, a slice is a view of it.
            let at = rng.gen_range(0..end - start);
            let len = rng.gen_range(1..=end - start - at);
            let view = queue.slice(run_off + at, len);
            assert_eq!(
                view.as_ptr(),
                stores[s][start + at..].as_ptr(),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn equality_and_clone_go_by_content_whatever_the_chunking() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE0);
        let data = [some_bytes(&mut rng, 1), some_bytes(&mut rng, 2)].concat();
        let shared = Bytes::from(data.clone());
        let chop = |rng: &mut SmallRng| {
            let mut queue = BytesQueue::new();
            let mut at = 0;
            while at < data.len() {
                let end = (at + rng.gen_range(0..4_000)).min(data.len());
                if rng.gen_range(0..2) == 0 {
                    queue.push(shared.slice(at..end));
                } else {
                    queue.extend_from_slice(&data[at..end]);
                }
                at = end;
            }
            queue
        };
        let (a, b) = (chop(&mut rng), chop(&mut rng));
        assert!(a == b && a == data && a == data[..], "seed {seed}");
        assert_eq!(format!("{a:?}"), format!("{data:?}"));
        // A clone is the same chunks, shared.
        let copy = a.clone();
        assert!(
            copy == b
                && copy
                    .chunks()
                    .map(|c| c.as_ptr())
                    .eq(a.chunks().map(|c| c.as_ptr()))
        );
        // One byte more, one fewer or one different is another queue.
        let mut longer = b.clone();
        longer.extend_from_slice(b"x");
        assert!(a != longer, "seed {seed}");
        if let Some(last) = data.len().checked_sub(1) {
            let mut shorter = b.clone();
            shorter.advance(1);
            let mut flipped = data.clone();
            flipped[last] ^= 1;
            assert!(a != shorter && a != flipped, "seed {seed}");
        }
        // Cleared, a clone or the original owns nothing.
        let (mut a, mut copy) = (a, copy);
        a.clear();
        copy.clear();
        assert!(a.is_empty() && a.bookkeeping_bytes() == 0 && copy.bookkeeping_bytes() == 0);
        assert!(a == BytesQueue::new() && a.clone().bookkeeping_bytes() == 0);
    }
}
