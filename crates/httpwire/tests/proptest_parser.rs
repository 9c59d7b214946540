//! Property-style tests for the HTTP message layer, driven by a
//! deterministic seeded PRNG (the build environment has no crates.io
//! access, so `proptest` is unavailable): serialization/parse roundtrips
//! under arbitrary network fragmentation, chunked-coding roundtrips, and
//! robustness against arbitrary bytes.

use bytes::Bytes;
use httpwire::{
    Method, ParseError, Request, RequestParser, Response, ResponseParser, StatusCode, Version,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const METHODS: [Method; 4] = [Method::Get, Method::Head, Method::Post, Method::Put];

fn pick_char(rng: &mut SmallRng, alphabet: &[u8]) -> char {
    alphabet[rng.gen_range(0..alphabet.len())] as char
}

fn token(rng: &mut SmallRng) -> String {
    const FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-";
    let mut s = String::new();
    s.push(pick_char(rng, FIRST));
    for _ in 0..rng.gen_range(0..16usize) {
        s.push(pick_char(rng, REST));
    }
    s
}

fn header_value(rng: &mut SmallRng) -> String {
    // Printable ASCII (no CR/LF), then trimmed like the proptest strategy.
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..41usize) {
        s.push(rng.gen_range(b' '..=b'~') as char);
    }
    s.trim().to_string()
}

fn path(rng: &mut SmallRng) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/._-";
    let mut s = String::from("/");
    for _ in 0..rng.gen_range(0..31usize) {
        s.push(pick_char(rng, CHARS));
    }
    s
}

fn random_bytes(rng: &mut SmallRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen()).collect()
}

#[test]
fn request_roundtrip_under_fragmentation() {
    let mut rng = SmallRng::seed_from_u64(0x0047_7401);
    for case in 0..64 {
        let method = METHODS[rng.gen_range(0..METHODS.len())];
        let target = path(&mut rng);
        let headers: Vec<(String, String)> = (0..rng.gen_range(0..8usize))
            .map(|_| (token(&mut rng), header_value(&mut rng)))
            .collect();
        let body = random_bytes(&mut rng, 256);
        let frag = rng.gen_range(1..64usize);

        let mut req = Request::new(method, target.clone(), Version::Http11);
        for (name, value) in &headers {
            // Skip names that collide with framing headers.
            if name.eq_ignore_ascii_case("content-length")
                || name.eq_ignore_ascii_case("transfer-encoding")
            {
                continue;
            }
            req.headers.append(name, value.clone());
        }
        if method == Method::Post || method == Method::Put {
            req.body = body.clone().into();
        }
        let wire = req.to_bytes();

        let mut parser = RequestParser::new();
        let mut parsed = None;
        for chunk in wire.chunks(frag) {
            parser.feed(chunk);
            if let Some(r) = parser.next().unwrap() {
                parsed = Some(r);
            }
        }
        // A final poll in case the last chunk completed it.
        if parsed.is_none() {
            parsed = parser.next().unwrap();
        }
        let parsed = parsed.expect("complete request parses");
        assert_eq!(parsed.method, method, "case {case}");
        assert_eq!(parsed.target(), target, "case {case}");
        if method == Method::Post || method == Method::Put {
            assert_eq!(parsed.body, body, "case {case}");
        }
        assert_eq!(parser.buffered(), 0, "case {case}");
    }
}

#[test]
fn pipelined_responses_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x0047_7402);
    for case in 0..64 {
        let bodies: Vec<Vec<u8>> = (0..rng.gen_range(1..6usize))
            .map(|_| random_bytes(&mut rng, 200))
            .collect();
        let frag = rng.gen_range(1..48usize);

        let mut wire = Vec::new();
        let mut parser = ResponseParser::new();
        for body in &bodies {
            parser.expect(Method::Get);
            let resp = Response::new(Version::Http11, StatusCode::OK)
                .with_header("Content-Length", body.len().to_string())
                .with_body(Bytes::from(body.clone()));
            wire.extend_from_slice(&resp.to_bytes());
        }

        let mut got = Vec::new();
        for chunk in wire.chunks(frag) {
            parser.feed(chunk);
            while let Some(r) = parser.next().unwrap() {
                got.push(r);
            }
        }
        assert_eq!(got.len(), bodies.len(), "case {case}");
        for (resp, body) in got.iter().zip(&bodies) {
            assert_eq!(resp.body, *body, "case {case}");
        }
    }
}

#[test]
fn chunked_roundtrip_any_chunk_size() {
    let mut rng = SmallRng::seed_from_u64(0x0047_7403);
    for case in 0..64 {
        let body = random_bytes(&mut rng, 600);
        let chunk_size = rng.gen_range(1..128usize);
        let frag = rng.gen_range(1..32usize);

        let enc = httpwire::chunked::encode(&body, chunk_size);
        let mut resp_wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        resp_wire.extend_from_slice(&enc);
        let mut parser = ResponseParser::new();
        parser.expect(Method::Get);
        let mut got = None;
        for chunk in resp_wire.chunks(frag) {
            parser.feed(chunk);
            if let Some(r) = parser.next().unwrap() {
                got = Some(r);
            }
        }
        let got = got.expect("chunked response completes");
        assert_eq!(got.body, body, "case {case}");
    }
}

/// Feed `wire` in the given pieces, polling after each as the client does.
fn responses_from(pieces: &[&[u8]], expected: usize) -> Vec<Response> {
    let mut parser = ResponseParser::new();
    for _ in 0..expected {
        parser.expect(Method::Get);
    }
    let mut got = Vec::new();
    for piece in pieces {
        parser.feed(piece);
        while let Some(r) = parser.next().unwrap() {
            got.push(r);
        }
    }
    assert_eq!(parser.buffered(), 0);
    got
}

#[test]
fn every_split_point_yields_the_same_messages() {
    let mut rng = SmallRng::seed_from_u64(0x0047_7407);
    let chunked_body = random_bytes(&mut rng, 300);
    let mut chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    chunked.extend_from_slice(&httpwire::chunked::encode(&chunked_body, 37));

    let mut pipelined = Vec::new();
    for _ in 0..2 {
        let body = random_bytes(&mut rng, 120);
        let resp = Response::new(Version::Http11, StatusCode::OK)
            .with_header("Content-Length", body.len().to_string())
            .with_body(Bytes::from(body));
        pipelined.extend_from_slice(&resp.to_bytes());
    }
    // Heads as sloppy peers send them: no space after the colon, padded
    // values, bare LF line ends.
    let sloppy: &[u8] =
        b"HTTP/1.1 200 OK\nContent-Length:3\nX-Pad:   padded  \r\nETag:\"s\"\n\nabc\
HTTP/1.1 304 Not Modified\r\nConnection:  keep-alive \n\r\n";
    pipelined.extend_from_slice(sloppy);
    pipelined.extend_from_slice(&chunked);

    let canonical = |resp: &Response| {
        let mut out = bytes::BytesMut::new();
        resp.headers.write_to(&mut out);
        out.to_vec()
    };
    let sloppy_heads = responses_from(&[sloppy], 2);
    assert_eq!(
        canonical(&sloppy_heads[0]),
        b"Content-Length: 3\r\nX-Pad: padded\r\nETag: \"s\"\r\n"
    );
    assert_eq!(sloppy_heads[0].body, b"abc"[..]);
    assert!(sloppy_heads[1]
        .headers
        .has_token("connection", "keep-alive"));

    for (wire, count) in [(&chunked[..], 1), (sloppy, 2), (&pipelined[..], 5)] {
        let whole = responses_from(&[wire], count);
        assert_eq!(whole.len(), count);
        if wire != sloppy {
            assert_eq!(whole[count - 1].body, chunked_body);
        }
        for at in 0..=wire.len() {
            let split = responses_from(&[&wire[..at], &wire[at..]], count);
            assert_eq!(split, whole, "split at {at}");
        }
    }
}

#[test]
fn absurd_lengths_are_errors_or_waits_never_panics() {
    let length = b"Content-Length: 18446744073709551615\r\n\r\nbody";
    let chunk = b"Transfer-Encoding: chunked\r\n\r\n10000000000000000\r\nbody";
    for framing in [&length[..], &chunk[..]] {
        let mut rp = RequestParser::new();
        rp.feed(b"POST /f HTTP/1.1\r\n");
        rp.feed(framing);
        let req = rp.next();
        let mut sp = ResponseParser::new();
        sp.expect(Method::Get);
        sp.feed(b"HTTP/1.1 200 OK\r\n");
        sp.feed(framing);
        let resp = sp.next();
        if framing == &chunk[..] {
            assert_eq!(req.unwrap_err(), ParseError::BadChunk);
            assert_eq!(resp.unwrap_err(), ParseError::BadChunk);
            assert_eq!(sp.finish().unwrap_err(), ParseError::BadChunk);
        } else {
            assert!(req.unwrap().is_none());
            assert!(resp.unwrap().is_none());
            assert!(sp.finish().unwrap().is_none());
        }
    }
}

/// Every header name a parser let through is an RFC 7230 `token`.
fn assert_names_are_tokens(headers: &httpwire::HeaderMap) {
    for (name, _) in headers.iter() {
        let tchar = |b: u8| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b);
        assert!(
            !name.is_empty() && name.bytes().all(tchar),
            "accepted the header name {name:?}"
        );
    }
}

#[test]
fn arbitrary_bytes_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x0047_7404);
    for case in 0..256 {
        let mut data = random_bytes(&mut rng, 512);
        // Random bytes rarely get past the first line: every other case
        // puts them where the header block is, under one that parses.
        let (request_line, status_line): (&[u8], &[u8]) = if case % 2 == 1 {
            data.retain(|&b| b != b'\n');
            data.extend_from_slice(b"\r\n\r\n");
            (b"GET / HTTP/1.1\r\n", b"HTTP/1.1 200 OK\r\n")
        } else {
            (b"", b"")
        };
        let mut rp = RequestParser::new();
        rp.feed(request_line);
        rp.feed(&data);
        if let Ok(Some(req)) = rp.next() {
            assert_names_are_tokens(&req.headers);
        }
        let mut sp = ResponseParser::new();
        sp.expect(Method::Get);
        sp.feed(status_line);
        sp.feed(&data);
        if let Ok(Some(resp)) = sp.next() {
            assert_names_are_tokens(&resp.headers);
        }
        if let Ok(Some(resp)) = sp.finish() {
            assert_names_are_tokens(&resp.headers);
        }
    }
}

/// One header line of arbitrary bytes (no line ends) between two good
/// ones: the head parses exactly when the line's name is a token, and
/// then holds the value without the OWS (SP, HTAB) at its edges.
#[test]
fn a_line_of_arbitrary_bytes_is_a_token_named_header_or_an_error() {
    let mut rng = SmallRng::seed_from_u64(0x0047_7408);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..2048 {
        let mut line: Vec<u8> = (0..rng.gen_range(1..24usize))
            .map(|_| match rng.gen_range(0..4u8) {
                0 => rng.gen(),
                1 => b':',
                _ => rng.gen_range(b'!'..=b'~'),
            })
            .filter(|&b| b != b'\n' && b != b'\r')
            .collect();
        if line.is_empty() {
            line.push(b'x');
        }
        let mut wire = b"GET / HTTP/1.1\r\nHost: a\r\n".to_vec();
        wire.extend_from_slice(&line);
        wire.extend_from_slice(b"\r\nAccept: b\r\n\r\n");
        let mut rp = RequestParser::new();
        rp.feed(&wire);
        match rp.next() {
            Ok(Some(req)) => {
                accepted += 1;
                assert_names_are_tokens(&req.headers);
                let line = std::str::from_utf8(&line).expect("accepted heads are UTF-8");
                let (name, value) = line.split_once(':').expect("accepted lines have a colon");
                let got: Vec<_> = req.headers.iter().collect();
                let value = value.trim_matches([' ', '\t']);
                assert_eq!(got, [("Host", "a"), (name, value), ("Accept", "b")]);
            }
            Ok(None) => panic!("the head is complete"),
            Err(e) => {
                rejected += 1;
                assert!(matches!(
                    e,
                    ParseError::BadHeader | ParseError::BadRequestLine
                ));
            }
        }
    }
    assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
}

#[test]
fn http_dates_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x0047_7405);
    for _ in 0..64 {
        let secs = rng.gen_range(0u64..4_000_000_000);
        let s = httpwire::HttpDate(secs).to_string();
        assert_eq!(httpwire::parse_http_date(&s), Some(secs));
    }
}

#[test]
fn range_headers_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x0047_7406);
    for _ in 0..64 {
        let first = rng.gen_range(0u64..100_000);
        let len = rng.gen_range(1u64..100_000);
        let hdr = httpwire::range::format_range_header(&[httpwire::ByteRange::FromTo(
            first,
            Some(first + len - 1),
        )]);
        let parsed = httpwire::parse_range_header(&hdr).expect("parses");
        assert_eq!(parsed.len(), 1);
        let resolved = parsed[0].resolve(first + len).expect("satisfiable");
        assert_eq!(resolved, (first, len));
    }
}
