//! A declared length allocates nothing by itself: a head that announces
//! the largest body there is costs what a head that announces four bytes
//! costs, and the body is held as it arrives. One test, so nothing else in
//! the process allocates while a region is counted.

use counting_alloc::{allocated_bytes, CountingAlloc};
use httpwire::{Method, RequestParser, ResponseParser};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const BODY: &[u8] = b"body";

/// A request head and a response head declaring `length`.
fn heads(length: &str) -> [Vec<u8>; 2] {
    [
        format!("POST /f HTTP/1.1\r\nContent-Length: {length}\r\n\r\n").into_bytes(),
        format!("HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\n").into_bytes(),
    ]
}

/// Feed each head and then [`BODY`] to its parser and poll it; returns
/// whether each message is complete. One that is not holds every byte fed.
fn parse([request, response]: &[Vec<u8>; 2]) -> [bool; 2] {
    let mut rp = RequestParser::new();
    rp.feed(request);
    rp.feed(BODY);
    let request_done = rp.next().expect("a valid head").is_some();
    let mut sp = ResponseParser::new();
    sp.expect(Method::Get);
    sp.feed(response);
    sp.feed(BODY);
    let response_done = sp.next().expect("a valid head").is_some();
    for (done, buffered, head) in [
        (request_done, rp.buffered(), request),
        (response_done, sp.buffered(), response),
    ] {
        assert_eq!(buffered, if done { 0 } else { head.len() + BODY.len() });
    }
    [request_done, response_done]
}

/// Bytes allocated by the last of a few runs of `f` (the first ones warm
/// the buffer pool).
fn allocated(mut f: impl FnMut()) -> u64 {
    let mut last = 0;
    for _ in 0..3 {
        let before = allocated_bytes();
        f();
        last = allocated_bytes() - before;
    }
    last
}

#[test]
fn a_declared_length_allocates_nothing_by_itself() {
    // Twenty digits each, so the two heads are the same size.
    let (absurd, four) = (heads("18446744073709551615"), heads("00000000000000000004"));
    let mut complete = [true; 2];
    let declared = allocated(|| complete = parse(&absurd));
    assert_eq!(complete, [false; 2], "u64::MAX bytes cannot have arrived");
    let exact = allocated(|| complete = parse(&four));
    assert_eq!(complete, [true; 2]);
    assert!(
        declared < exact + 1024,
        "a head declaring u64::MAX bytes cost {declared} B, one declaring 4 cost {exact} B"
    );
}
