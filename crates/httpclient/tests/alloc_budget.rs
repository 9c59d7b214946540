//! What a message costs the allocator, pinned as exact counts: a head is
//! one buffer from the buffer pool however many fields it has, it goes
//! back there when the message drops, and an engine writes it into a
//! buffer it already owns. One test, so nothing else in the process
//! allocates while a region is counted.

use bytes::{Bytes, BytesMut};
use counting_alloc::{allocations, CountingAlloc};
use httpclient::RequestStyle;
use httpmux::{MuxConn, MuxEvent};
use httpwire::{Method, Request, RequestParser, Response, ResponseParser, StatusCode, Version};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocations of the last of a few runs of `f` (the first ones warm the
/// buffer pool and whatever `f` reuses).
fn allocs(mut f: impl FnMut()) -> u64 {
    let mut last = 0;
    for _ in 0..3 {
        let before = allocations();
        f();
        last = allocations() - before;
    }
    last
}

/// The six-header response the ledger's `httpwire.allocs_per_message`
/// round-trips.
fn gif_response() -> Response {
    Response::new(Version::Http11, StatusCode::OK)
        .with_header("Date", "Mon, 27 Oct 1997 12:00:00 GMT")
        .with_header("Server", "Jigsaw/1.0beta2")
        .with_header("Content-Type", "image/gif")
        .with_header("ETag", "\"697-1761566400\"")
        .with_header("Last-Modified", "Fri, 24 Oct 1997 12:00:00 GMT")
        .with_header("Content-Length", 697)
        .with_body(vec![0u8; 697])
}

fn robot_request() -> Request {
    let host = "microscape.example";
    RequestStyle::Robot.request(Method::Get, "/images/banner.gif", Version::Http11, host)
}

/// Everything `from` has queued for the wire, handed to `to` chunk by
/// chunk and by reference, as a socket would deliver it.
fn shuttle(from: &mut MuxConn, to: &mut MuxConn) {
    let wire = from.outgoing();
    while !wire.is_empty() {
        let chunk = wire.slice(0, wire.chunk().len());
        wire.advance(chunk.len());
        to.push(chunk);
    }
}

/// `streams` requests answered with `body` bytes each, between two
/// engines, until both are idle.
fn mux_exchange(streams: u32, body: &[u8]) {
    let req = Request::new(Method::Get, "/x", Version::Http11);
    let resp = Response::new(Version::Http11, StatusCode::OK);
    let mut client = MuxConn::client(false);
    let mut server = MuxConn::server();
    for _ in 0..streams {
        client.open_stream(&req, true);
    }
    let (mut answered, mut delivered) = (0, 0);
    while answered < streams || !(client.idle() && server.idle()) {
        shuttle(&mut client, &mut server);
        while let Some(event) = server.poll_event() {
            if let MuxEvent::Headers { stream, .. } = event {
                server.send_headers(stream, &resp, false);
                server.send_data(stream, body, true);
                answered += 1;
            }
        }
        shuttle(&mut server, &mut client);
        while let Some(event) = client.poll_event() {
            if let MuxEvent::Data { data, .. } = event {
                delivered += data.len();
            }
        }
    }
    assert_eq!(delivered, streams as usize * body.len());
}

#[test]
fn a_message_stays_inside_its_allocation_budget() {
    // The response: its wire image (handed out as a `Vec`, so it leaves
    // the pool), the parser's expectation queue and the handle of the
    // copy `feed` takes. The copy's storage and the parsed head's buffer
    // come from the pool; the body is a view of the copy.
    let resp = gif_response();
    let round_trip = allocs(|| {
        let wire = resp.to_bytes();
        let mut parser = ResponseParser::new();
        parser.expect(Method::Get);
        parser.feed(&wire);
        let parsed = parser.next().expect("parses").expect("complete");
        assert_eq!(parsed.headers.len(), 6);
    });
    assert_eq!(round_trip, 3, "response round trip");

    // The request: built in a pooled buffer and written into a
    // connection's buffer, as the robot does; `to_bytes` costs its own
    // buffer and nothing else.
    let mut conn = BytesMut::new();
    let build = allocs(|| {
        conn.clear();
        robot_request().write_to(&mut conn);
    });
    assert_eq!(build, 0, "request build + serialise");
    let to_bytes = allocs(|| drop(robot_request().to_bytes()));
    assert_eq!(to_bytes, 1, "request build + to_bytes");

    // Parsed from the bytes as received: the head's buffer is pooled.
    let mut parser = RequestParser::new();
    let received = Bytes::copy_from_slice(&conn);
    let parse = allocs(|| {
        parser.push(received.clone());
        let req = parser.next().expect("parses").expect("complete");
        assert_eq!(req.target(), "/images/banner.gif");
    });
    assert_eq!(parse, 0, "request parse");

    // The ledger's `httpmux.allocs_per_stream` exchange: 64 streams,
    // 8 KiB each, 2.05 a stream. The written bytes of a hand-off are
    // sealed once, however many DATA frames they head (a seal per frame
    // read 521), a DATA payload arrives as a view of what was handed over
    // (a pooled copy per frame read 460), and a field block's map is
    // pooled (a buffer and a span table per block read 389).
    let body = vec![0xC3u8; 8 * 1024];
    let exchange = allocs(|| mux_exchange(64, &body));
    assert_eq!(exchange, 131, "mux exchange for 64 streams");
}
