//! What a message costs the allocator, pinned as the `alloc_budget` group
//! of the count table (`count_table/mod.rs`): a head is one buffer from
//! the buffer pool however many fields it has, it goes back there when
//! the message drops, and an engine writes it into a buffer it already
//! owns. The rows are measured while the buffer pools hold only what
//! they return. One test, so nothing else in the process allocates while
//! a row is counted.

mod count_table;

use bytes::{Bytes, BytesMut};
use count_table::{measure, Measured};
use counting_alloc::CountingAlloc;
use httpipe_core::prelude::*;
use httpmux::{MuxConn, MuxEvent};
use httpwire::{Method, Request, RequestParser, Response, ResponseParser, StatusCode, Version};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

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
/// engines, until both are idle; returns the body bytes delivered.
fn mux_exchange(streams: u32, body: &[u8]) -> usize {
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
    delivered
}

#[test]
fn a_message_stays_inside_its_allocation_budget() {
    let mut table = Measured::new("alloc_budget");
    // The response round trip costs its wire image (handed out as a
    // `Vec`, so it leaves the pool), the parser's expectation queue and
    // the handle of the copy `feed` takes; a request is built in a pooled
    // buffer and written into a buffer the connection owns, and parsed
    // from the bytes as received.
    let resp = gif_response();
    let (headers, cost) = measure(
        || (),
        |()| {
            let wire = resp.to_bytes();
            let mut parser = ResponseParser::new();
            parser.expect(Method::Get);
            parser.feed(&wire);
            parser
                .next()
                .expect("parses")
                .expect("complete")
                .headers
                .len()
        },
    );
    assert_eq!(headers, 6);
    table.row("wire round trip", 0, cost);
    let mut conn = BytesMut::new();
    let ((), cost) = measure(
        || (),
        |()| {
            conn.clear();
            robot_request().write_to(&mut conn);
        },
    );
    table.row("wire build", 0, cost);
    let (_, cost) = measure(|| (), |()| robot_request().to_bytes());
    table.row("wire to_bytes", 0, cost);
    let mut parser = RequestParser::new();
    let received = Bytes::copy_from_slice(&conn);
    let (target, cost) = measure(
        || received.clone(),
        |bytes| {
            parser.push(bytes);
            let req = parser.next().expect("parses").expect("complete");
            req.target().len()
        },
    );
    assert_eq!(target, "/images/banner.gif".len());
    table.row("wire parse", 0, cost);
    // The written bytes of a hand-off are sealed once however many DATA
    // frames they head, a DATA payload arrives as a view of what was
    // handed over, and a field block's map is pooled.
    let body = vec![0xC3u8; 8 * 1024];
    let (delivered, cost) = measure(|| (), |()| mux_exchange(64, &body));
    assert_eq!(delivered, 64 * body.len());
    table.row("mux 64 streams", 0, cost);
    table.verify();
}
