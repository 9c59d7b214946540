//! The exact response heads both server profiles put on the wire, pinned
//! byte for byte: 200 (plain and deflated), 304, 206 and 404 from Jigsaw
//! and from Apache, over HTTP/1.1 and over HTTP/1.0 with Keep-Alive. What
//! each profile says, and in what order, is part of the reproduction (the
//! Jigsaw 304 repeats the entity's metadata, Apache's does not).

use httpserver::{Entity, HttpServer, ServerConfig, SiteStore};
use netsim::sim::{App, AppEvent, Ctx};
use netsim::{LinkConfig, Simulator, SockAddr};

/// Sends one preformatted batch of requests and keeps every byte of the
/// answer.
struct Capture {
    server: SockAddr,
    requests: &'static str,
    stream: Vec<u8>,
}

impl App for Capture {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent) {
        match event {
            AppEvent::Start => {
                ctx.connect(self.server);
            }
            AppEvent::Connected(sock) => {
                ctx.send(sock, self.requests.replace('\n', "\r\n").as_bytes());
                ctx.shutdown_write(sock);
            }
            AppEvent::Readable(sock) => {
                self.stream.extend_from_slice(&ctx.recv(sock, usize::MAX));
            }
            _ => {}
        }
    }
}

/// The heads in `stream`, bodies skipped by their declared length.
fn heads(mut stream: &[u8]) -> String {
    let mut out = String::new();
    while !stream.is_empty() {
        let end = stream
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("a complete head")
            + 4;
        let head = std::str::from_utf8(&stream[..end]).expect("ASCII head");
        let body = head
            .split("\r\n")
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .filter(|_| !head.contains(" 304 "))
            .map_or(0, |n| n.parse::<usize>().expect("a length"));
        out.push_str(head);
        stream = &stream[end + body..];
    }
    out
}

fn served(config: ServerConfig, requests: &'static str) -> String {
    let mut store = SiteStore::new();
    let page = b"<html><body>golden golden golden golden golden</body></html>".repeat(8);
    store.insert(
        "/index.html",
        Entity::new(page, "text/html", 877_953_600).with_deflate(),
    );
    store.insert(
        "/logo.gif",
        Entity::new(vec![7u8; 697], "image/gif", 877_694_400),
    );
    let mut sim = Simulator::new();
    let client = sim.add_host("client");
    let server = sim.add_host("server");
    sim.add_link(client, server, LinkConfig::lan());
    sim.install_app(
        server,
        Box::new(HttpServer::new(config, store.into_shared())),
    );
    let capture = Capture {
        server: SockAddr::new(server, 80),
        requests,
        stream: Vec::new(),
    };
    sim.install_app(client, Box::new(capture));
    sim.run_until_idle();
    heads(&sim.app_mut::<Capture>(client).unwrap().stream)
}

/// 200, deflated 200, 304, 206, 404, then a 200 that closes.
const HTTP11: &str = "\
GET /logo.gif HTTP/1.1
Host: x

GET /index.html HTTP/1.1
Host: x
Accept-Encoding: deflate

GET /logo.gif HTTP/1.1
Host: x
If-None-Match: \"4618da4e-2b9-34508dc0\"

GET /logo.gif HTTP/1.1
Host: x
Range: bytes=0-99

GET /nope.gif HTTP/1.1
Host: x

GET /logo.gif HTTP/1.1
Host: x
Connection: close

";

/// A kept-alive 200 and 304 by date, then a 200 the server closes after.
const HTTP10: &str = "\
GET /logo.gif HTTP/1.0
Connection: Keep-Alive

GET /logo.gif HTTP/1.0
Connection: Keep-Alive
If-Modified-Since: Fri, 24 Oct 1997 12:00:00 GMT

GET /logo.gif HTTP/1.0

";

/// `golden` is written with bare newlines; on the wire each is CRLF.
fn assert_wire(got: String, golden: &str) {
    assert_eq!(got, golden.replace('\n', "\r\n"));
}

#[test]
fn apache_heads() {
    let config = ServerConfig::apache(80).with_deflate(true);
    assert_wire(served(config.clone(), HTTP11), APACHE_11);
    assert_wire(served(config, HTTP10), APACHE_10);
}

#[test]
fn jigsaw_heads() {
    let config = ServerConfig::jigsaw(80).with_deflate(true);
    assert_wire(served(config.clone(), HTTP11), JIGSAW_11);
    assert_wire(served(config, HTTP10), JIGSAW_10);
}

const APACHE_11: &str = "\
HTTP/1.1 200 OK
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Apache/1.2b10
Content-Type: image/gif
Content-Length: 697
ETag: \"4618da4e-2b9-34508dc0\"
Last-Modified: Fri, 24 Oct 1997 12:00:00 GMT

HTTP/1.1 200 OK
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Apache/1.2b10
Content-Type: text/html
Content-Length: 41
Content-Encoding: deflate
ETag: \"75d76385-1e0-34548240\"
Last-Modified: Mon, 27 Oct 1997 12:00:00 GMT

HTTP/1.1 304 Not Modified
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Apache/1.2b10
ETag: \"4618da4e-2b9-34508dc0\"

HTTP/1.1 206 Partial Content
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Apache/1.2b10
Content-Type: image/gif
Content-Length: 100
Content-Range: bytes 0-99/697
ETag: \"4618da4e-2b9-34508dc0\"
Last-Modified: Fri, 24 Oct 1997 12:00:00 GMT

HTTP/1.1 404 Not Found
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Apache/1.2b10
Content-Type: text/html
Content-Length: 49

HTTP/1.1 200 OK
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Apache/1.2b10
Content-Type: image/gif
Content-Length: 697
ETag: \"4618da4e-2b9-34508dc0\"
Last-Modified: Fri, 24 Oct 1997 12:00:00 GMT
Connection: close

";

const APACHE_10: &str = "\
HTTP/1.0 200 OK
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Apache/1.2b10
Content-Type: image/gif
Content-Length: 697
ETag: \"4618da4e-2b9-34508dc0\"
Last-Modified: Fri, 24 Oct 1997 12:00:00 GMT
Connection: Keep-Alive

HTTP/1.0 304 Not Modified
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Apache/1.2b10
ETag: \"4618da4e-2b9-34508dc0\"
Connection: Keep-Alive

HTTP/1.0 200 OK
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Apache/1.2b10
Content-Type: image/gif
Content-Length: 697
ETag: \"4618da4e-2b9-34508dc0\"
Last-Modified: Fri, 24 Oct 1997 12:00:00 GMT

";

const JIGSAW_11: &str = "\
HTTP/1.1 200 OK
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Jigsaw/1.06
MIME-Version: 1.0
Content-Type: image/gif
Content-Length: 697
ETag: \"4618da4e-2b9-34508dc0\"
Last-Modified: Fri, 24 Oct 1997 12:00:00 GMT

HTTP/1.1 200 OK
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Jigsaw/1.06
MIME-Version: 1.0
Content-Type: text/html
Content-Length: 41
Content-Encoding: deflate
ETag: \"75d76385-1e0-34548240\"
Last-Modified: Mon, 27 Oct 1997 12:00:00 GMT

HTTP/1.1 304 Not Modified
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Jigsaw/1.06
ETag: \"4618da4e-2b9-34508dc0\"
Last-Modified: Fri, 24 Oct 1997 12:00:00 GMT
Content-Type: image/gif

HTTP/1.1 206 Partial Content
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Jigsaw/1.06
MIME-Version: 1.0
Content-Type: image/gif
Content-Length: 100
Content-Range: bytes 0-99/697
ETag: \"4618da4e-2b9-34508dc0\"
Last-Modified: Fri, 24 Oct 1997 12:00:00 GMT

HTTP/1.1 404 Not Found
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Jigsaw/1.06
Content-Type: text/html
Content-Length: 49

HTTP/1.1 200 OK
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Jigsaw/1.06
MIME-Version: 1.0
Content-Type: image/gif
Content-Length: 697
ETag: \"4618da4e-2b9-34508dc0\"
Last-Modified: Fri, 24 Oct 1997 12:00:00 GMT
Connection: close

";

const JIGSAW_10: &str = "\
HTTP/1.0 200 OK
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Jigsaw/1.06
MIME-Version: 1.0
Content-Type: image/gif
Content-Length: 697
ETag: \"4618da4e-2b9-34508dc0\"
Last-Modified: Fri, 24 Oct 1997 12:00:00 GMT
Connection: Keep-Alive

HTTP/1.0 304 Not Modified
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Jigsaw/1.06
ETag: \"4618da4e-2b9-34508dc0\"
Last-Modified: Fri, 24 Oct 1997 12:00:00 GMT
Content-Type: image/gif
Connection: Keep-Alive

HTTP/1.0 200 OK
Date: Mon, 02 Jun 1997 00:00:00 GMT
Server: Jigsaw/1.06
MIME-Version: 1.0
Content-Type: image/gif
Content-Length: 697
ETag: \"4618da4e-2b9-34508dc0\"
Last-Modified: Fri, 24 Oct 1997 12:00:00 GMT

";
