//! High-volume property tests for the HTTP wire layer, complementing
//! `proptest_parser.rs` with full serialize→parse *identity* (every field,
//! every header, both message kinds) and parser no-panic robustness against
//! mutated byte streams, and the header map against a reference model
//! under random operation sequences. Driven by the in-tree seeded PRNG; all
//! cases are deterministic. Combined volume exceeds 10k cases.

use bytes::{Bytes, BytesMut};
use httpwire::{
    HeaderMap, Method, Request, RequestParser, Response, ResponseParser, StatusCode, Version,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const REQUEST_CASES: usize = 4096;
const RESPONSE_CASES: usize = 3072;
const MUTATION_CASES: usize = 4096;
const MODEL_CASES: usize = 512;

const METHODS: [Method; 4] = [Method::Get, Method::Head, Method::Post, Method::Put];
const VERSIONS: [Version; 2] = [Version::Http10, Version::Http11];
const STATUSES: [u16; 6] = [200, 206, 301, 302, 404, 500];

fn pick_char(rng: &mut SmallRng, alphabet: &[u8]) -> char {
    alphabet[rng.gen_range(0..alphabet.len())] as char
}

fn token(rng: &mut SmallRng) -> String {
    const FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-";
    let mut s = String::new();
    s.push(pick_char(rng, FIRST));
    for _ in 0..rng.gen_range(0..12usize) {
        s.push(pick_char(rng, REST));
    }
    s
}

fn header_value(rng: &mut SmallRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..32usize) {
        s.push(rng.gen_range(b' '..=b'~') as char);
    }
    s.trim().to_string()
}

fn path(rng: &mut SmallRng) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/._-";
    let mut s = String::from("/");
    for _ in 0..rng.gen_range(0..24usize) {
        s.push(pick_char(rng, CHARS));
    }
    s
}

fn random_bytes(rng: &mut SmallRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen()).collect()
}

/// Header names that change framing or would collide with headers the
/// serializer manages itself.
fn reserved(name: &str) -> bool {
    name.eq_ignore_ascii_case("content-length") || name.eq_ignore_ascii_case("transfer-encoding")
}

fn headers_of(h: &HeaderMap) -> Vec<(String, String)> {
    h.iter()
        .map(|(name, value)| (name.to_string(), value.to_string()))
        .collect()
}

/// Parse one message out of `wire` delivered in `frag`-sized pieces.
fn parse_request(wire: &[u8], frag: usize) -> Request {
    let mut parser = RequestParser::new();
    let mut parsed = None;
    for chunk in wire.chunks(frag) {
        parser.feed(chunk);
        if let Some(r) = parser.next().expect("valid wire image") {
            parsed = Some(r);
        }
    }
    if parsed.is_none() {
        parsed = parser.next().expect("valid wire image");
    }
    let parsed = parsed.expect("complete request parses");
    assert_eq!(parser.buffered(), 0, "no leftovers after one message");
    parsed
}

/// Serialize→parse must reproduce the request exactly: method, target,
/// version, the full ordered header list, and the body.
#[test]
fn request_serialize_parse_identity() {
    let mut rng = SmallRng::seed_from_u64(0x5CA1_E001);
    for case in 0..REQUEST_CASES {
        let method = METHODS[rng.gen_range(0..METHODS.len())];
        let version = VERSIONS[rng.gen_range(0..VERSIONS.len())];
        let mut req = Request::new(method, path(&mut rng), version);
        for _ in 0..rng.gen_range(0..6usize) {
            let name = token(&mut rng);
            if reserved(&name) {
                continue;
            }
            req.headers.append(&name, header_value(&mut rng));
        }
        if matches!(method, Method::Post | Method::Put) {
            let body = random_bytes(&mut rng, 384);
            // Set the framing header explicitly so the parsed header block
            // is byte-for-byte comparable to the one we built.
            req.headers.set("Content-Length", body.len().to_string());
            req.body = body.into();
        }
        let frag = rng.gen_range(1..80usize);

        let parsed = parse_request(&req.to_bytes(), frag);
        assert_eq!(parsed.method, req.method, "case {case}");
        assert_eq!(parsed.target(), req.target(), "case {case}");
        assert_eq!(parsed.version, req.version, "case {case}");
        assert_eq!(
            headers_of(&parsed.headers),
            headers_of(&req.headers),
            "case {case}: header block must round-trip in order"
        );
        assert_eq!(parsed.body, req.body, "case {case}");
    }
}

/// The same identity property for responses, across versions, status codes
/// and request methods (HEAD responses carry no body on the wire).
#[test]
fn response_serialize_parse_identity() {
    let mut rng = SmallRng::seed_from_u64(0x5CA1_E002);
    for case in 0..RESPONSE_CASES {
        let version = VERSIONS[rng.gen_range(0..VERSIONS.len())];
        let status = StatusCode(STATUSES[rng.gen_range(0..STATUSES.len())]);
        let body = random_bytes(&mut rng, 512);
        let mut resp = Response::new(version, status)
            .with_header("Content-Length", body.len().to_string())
            .with_body(Bytes::from(body));
        for _ in 0..rng.gen_range(0..6usize) {
            let name = token(&mut rng);
            if reserved(&name) {
                continue;
            }
            resp.headers.append(&name, header_value(&mut rng));
        }
        let frag = rng.gen_range(1..80usize);

        let mut parser = ResponseParser::new();
        parser.expect(Method::Get);
        let wire = resp.to_bytes();
        let mut parsed = None;
        for chunk in wire.chunks(frag) {
            parser.feed(chunk);
            if let Some(r) = parser.next().expect("valid wire image") {
                parsed = Some(r);
            }
        }
        let parsed = parsed.expect("complete response parses");
        assert_eq!(parsed.version, resp.version, "case {case}");
        assert_eq!(parsed.status, resp.status, "case {case}");
        assert_eq!(
            headers_of(&parsed.headers),
            headers_of(&resp.headers),
            "case {case}"
        );
        assert_eq!(parsed.body, resp.body, "case {case}");
        assert_eq!(parser.buffered(), 0, "case {case}");
    }
}

/// The names the map indexes, one slot each (`KNOWN` in `headers.rs`).
const KNOWN: [&str; 12] = [
    "ETag",
    "Range",
    "If-Range",
    "Connection",
    "Content-Type",
    "If-None-Match",
    "Last-Modified",
    "Content-Length",
    "Accept-Encoding",
    "Content-Encoding",
    "If-Modified-Since",
    "Transfer-Encoding",
];

/// Names the map finds by walking its lines, some a known name's prefix
/// or extension.
const OTHERS: [&str; 6] = ["Host", "X-A", "X-AB", "Content-Lengt", "ETags", "Range-X"];

/// A name for the model test: drawn from a small pool, so operations
/// collide, in a random case, so lookups must fold it. Half the draws are
/// names the map indexes, half are names it walks its lines for.
fn pooled_name(rng: &mut SmallRng) -> String {
    let pool: &[&str] = if rng.gen_range(0..2u8) == 0 {
        &KNOWN
    } else {
        &OTHERS
    };
    let name = pool[rng.gen_range(0..pool.len())];
    match rng.gen_range(0..3u8) {
        0 => name.to_string(),
        1 => name.to_ascii_lowercase(),
        _ => name.to_ascii_uppercase(),
    }
}

/// `get`, `get_all`, `contains` and `has_token` on `map` for `name` agree
/// with the model.
fn lookups_agree(map: &HeaderMap, model: &[(String, String)], name: &str, at: &str) {
    let hits: Vec<&str> = model
        .iter()
        .filter(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
        .collect();
    assert_eq!(map.get_all(name).collect::<Vec<_>>(), hits, "{at}: {name}");
    assert_eq!(map.get(name), hits.first().copied(), "{at}: {name}");
    assert_eq!(map.contains(name), !hits.is_empty(), "{at}: {name}");
    let listed = |token: &str| {
        hits.iter()
            .flat_map(|v| v.split(','))
            .any(|t| t.trim().eq_ignore_ascii_case(token))
    };
    for token in ["close", "a", "7"] {
        assert_eq!(map.has_token(name, token), listed(token), "{at}: {name}");
    }
}

/// `append` / `set` / `remove` on the indexed map agree with the same
/// operations on a plain list of owned pairs, after every step: order,
/// spelling, every lookup of every known name and of a drawn one, and the
/// wire form — which a parser reads back into an equal map.
#[test]
fn header_map_agrees_with_a_reference_model() {
    let mut rng = SmallRng::seed_from_u64(0x5CA1_E004);
    for case in 0..MODEL_CASES {
        let mut map = HeaderMap::new();
        let mut model: Vec<(String, String)> = Vec::new();
        for step in 0..rng.gen_range(1..24usize) {
            let name = pooled_name(&mut rng);
            let same = |(n, _): &(String, String)| n.eq_ignore_ascii_case(&name);
            match rng.gen_range(0..4u8) {
                0 | 1 => {
                    let value = header_value(&mut rng);
                    map.append(&name, &value);
                    model.push((name.clone(), value));
                }
                2 => {
                    let value = rng.gen_range(0..100_000u32);
                    map.set(&name, value);
                    model.retain(|pair| !same(pair));
                    model.push((name.clone(), value.to_string()));
                }
                _ => {
                    let existed = model.iter().any(same);
                    assert_eq!(map.remove(&name), existed, "case {case} step {step}");
                    model.retain(|pair| !same(pair));
                }
            }

            let at = format!("case {case} step {step}");
            assert_eq!(headers_of(&map), model, "{at}");
            assert_eq!(map.len(), model.len(), "{at}");
            assert_eq!(map.is_empty(), model.is_empty(), "{at}");
            for known in KNOWN {
                lookups_agree(&map, &model, known, &at);
            }
            lookups_agree(&map, &model, &pooled_name(&mut rng), &at);
        }

        let wire: String = model.iter().map(|(n, v)| format!("{n}: {v}\r\n")).collect();
        let mut out = BytesMut::new();
        map.write_to(&mut out);
        assert_eq!(&out[..], wire.as_bytes(), "case {case}");
        assert_eq!(map.wire_len(), wire.len(), "case {case}");

        // A parsed head is in the same canonical form, whatever spacing
        // and line ends it arrived with. (The answer to a HEAD: whatever
        // length the model's lines declare, no body follows.)
        let sloppy: String = model.iter().map(|(n, v)| format!("{n}:  {v} \n")).collect();
        let mut parser = ResponseParser::new();
        parser.expect(Method::Head);
        parser.feed(format!("HTTP/1.1 200 OK\n{sloppy}\n").as_bytes());
        let parsed = parser.next().expect("parses").expect("complete");
        let mut out = BytesMut::new();
        parsed.headers.write_to(&mut out);
        assert_eq!(&out[..], wire.as_bytes(), "case {case}");
        assert_eq!(headers_of(&parsed.headers), model, "case {case}");
    }
}

/// Apply 1–4 random mutations (flips, truncations, insertions, deletions)
/// to a byte stream.
fn mutate(rng: &mut SmallRng, wire: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..5usize) {
        if wire.is_empty() {
            wire.extend(random_bytes(rng, 16));
            continue;
        }
        match rng.gen_range(0..4u32) {
            0 => {
                let i = rng.gen_range(0..wire.len());
                wire[i] = rng.gen();
            }
            1 => {
                let i = rng.gen_range(0..wire.len());
                wire.truncate(i);
            }
            2 => {
                let i = rng.gen_range(0..=wire.len());
                let insert = random_bytes(rng, 12);
                wire.splice(i..i, insert);
            }
            _ => {
                let i = rng.gen_range(0..wire.len());
                let j = (i + rng.gen_range(1..16usize)).min(wire.len());
                wire.drain(i..j);
            }
        }
    }
}

fn drain_requests(parser: &mut RequestParser) {
    while let Ok(Some(_)) = parser.next() {}
}

fn drain_responses(parser: &mut ResponseParser) {
    while let Ok(Some(_)) = parser.next() {}
}

/// Mutated wire images — valid messages with bytes flipped, spliced or cut
/// — must never panic either parser, only parse or error. Mutating valid
/// traffic reaches far deeper parser states than pure random bytes.
#[test]
fn mutated_streams_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x5CA1_E003);
    for _ in 0..MUTATION_CASES {
        let method = METHODS[rng.gen_range(0..METHODS.len())];
        let mut req = Request::new(method, path(&mut rng), Version::Http11);
        for _ in 0..rng.gen_range(0..4usize) {
            req.headers.append(&token(&mut rng), header_value(&mut rng));
        }
        let body = random_bytes(&mut rng, 128);
        let resp = Response::new(Version::Http11, StatusCode(200))
            .with_header("Content-Length", body.len().to_string())
            .with_body(Bytes::from(body));

        let mut wire = req.to_bytes();
        wire.extend_from_slice(&resp.to_bytes());
        mutate(&mut rng, &mut wire);
        let frag = rng.gen_range(1..64usize);

        let mut rp = RequestParser::new();
        let mut sp = ResponseParser::new();
        sp.expect(method);
        sp.expect(Method::Get);
        for chunk in wire.chunks(frag) {
            rp.feed(chunk);
            drain_requests(&mut rp);
            sp.feed(chunk);
            drain_responses(&mut sp);
        }
        let _ = sp.finish();
    }
}
