//! The exact request heads the client puts on the wire, pinned byte for
//! byte: the robot over HTTP/1.0 and HTTP/1.1 with and without its
//! conditionals and `Accept-Encoding`, and the two browser profiles.
//! Header order and spelling are what Tables 10–11 measure, so a change
//! here is a change to the reproduction, not a refactor.

use httpclient::{
    ClientCache, ClientConfig, HttpClient, ProtocolMode, RequestStyle, RevalidationStyle, Workload,
};
use netsim::sim::{App, AppEvent, Ctx};
use netsim::{LinkConfig, Simulator, SockAddr, SocketId};
use std::collections::BTreeMap;

/// Answers every request head with a bodyless `304` and keeps the heads.
#[derive(Default)]
struct Recorder {
    inbox: BTreeMap<SocketId, Vec<u8>>,
    heads: Vec<String>,
}

impl App for Recorder {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent) {
        match event {
            AppEvent::Start => ctx.listen(80),
            AppEvent::Readable(sock) => {
                let inbox = self.inbox.entry(sock).or_default();
                inbox.extend_from_slice(&ctx.recv(sock, usize::MAX));
                while let Some(end) = inbox.windows(4).position(|w| w == b"\r\n\r\n") {
                    let head: Vec<u8> = inbox.drain(..end + 4).collect();
                    let head = String::from_utf8(head).expect("ASCII head");
                    let old = head.contains(" HTTP/1.0\r\n");
                    self.heads.push(head);
                    if old {
                        ctx.send(sock, b"HTTP/1.0 304 Not Modified\r\n\r\n");
                        ctx.shutdown_write(sock);
                    } else {
                        ctx.send(sock, b"HTTP/1.1 304 Not Modified\r\n\r\n");
                    }
                }
            }
            AppEvent::PeerFin(sock) => ctx.shutdown_write(sock),
            _ => {}
        }
    }
}

/// A cache holding the page and its one image, as a first visit left it.
fn cache() -> ClientCache {
    let mut cache = ClientCache::new();
    let embedded = vec!["/images/logo.gif".to_string()];
    cache.prime(
        "/index.html",
        b"<img src=/images/logo.gif>",
        "text/html",
        877_953_600,
        embedded,
    );
    cache.prime(
        "/images/logo.gif",
        b"GIF89a",
        "image/gif",
        877_694_400,
        vec![],
    );
    cache
}

/// Revalidate the cached page and image; the heads in arrival order.
fn heads(
    mode: ProtocolMode,
    style: RevalidationStyle,
    config: impl FnOnce(ClientConfig) -> ClientConfig,
) -> Vec<String> {
    let mut sim = Simulator::new();
    let client = sim.add_host("client");
    let server = sim.add_host("server");
    sim.add_link(client, server, LinkConfig::lan());
    sim.install_app(server, Box::<Recorder>::default());
    let config = config(ClientConfig::robot(mode, SockAddr::new(server, 80)));
    let start = "/index.html".to_string();
    let workload = Workload::Revalidate { start, style };
    let robot = HttpClient::with_cache(config, workload, cache());
    sim.install_app(client, Box::new(robot));
    sim.run_until_idle();
    assert!(sim.app_mut::<HttpClient>(client).unwrap().stats.done);
    std::mem::take(&mut sim.app_mut::<Recorder>(server).unwrap().heads)
}

const HTTP10: ProtocolMode = ProtocolMode::Http10Parallel { max_connections: 1 };

/// `golden` is written with bare newlines; on the wire each is CRLF.
fn assert_wire(got: &[String], golden: &str, what: &str) {
    assert_eq!(got.concat(), golden.replace('\n', "\r\n"), "{what}");
}

#[test]
fn robot_http11_with_entity_tags_and_deflate() {
    let got = heads(
        ProtocolMode::Http11Pipelined,
        RevalidationStyle::ConditionalGetEtag,
        |c| c.with_deflate(true),
    );
    assert_wire(&got, ROBOT_11_ETAG_DEFLATE, "robot 1.1");
}

#[test]
fn robot_http10_with_dates_and_with_head() {
    let dates = heads(HTTP10, RevalidationStyle::ConditionalGetDate, |c| c);
    assert_wire(&dates, ROBOT_10_DATE, "robot 1.0 dates");
    let head = heads(HTTP10, RevalidationStyle::HeadRequests, |c| c);
    assert_wire(&head, ROBOT_10_HEAD, "robot 1.0 HEAD");
}

#[test]
fn browser_profiles_in_both_versions() {
    for (style, mode, golden) in [
        (RequestStyle::Navigator, HTTP10, NAVIGATOR_10),
        (
            RequestStyle::Navigator,
            ProtocolMode::Http11Persistent,
            NAVIGATOR_11,
        ),
        (RequestStyle::Explorer, HTTP10, EXPLORER_10),
        (
            RequestStyle::Explorer,
            ProtocolMode::Http11Persistent,
            EXPLORER_11,
        ),
    ] {
        // Explorer's observed revisit: the page unconditionally, the
        // images by date.
        let got = heads(mode, RevalidationStyle::ConditionalGetDateFullHtml, |c| {
            c.with_style(style)
        });
        assert_wire(&got, golden, &format!("{style:?} {mode:?}"));
    }
}

const ROBOT_11_ETAG_DEFLATE: &str = "\
GET /index.html HTTP/1.1
Host: www.microscape.example
User-Agent: libwww-robot/5.1
Accept: image/gif, image/jpeg, text/html, */*
Accept-Encoding: deflate
If-None-Match: \"2b5ed832-1a-34548240\"

GET /images/logo.gif HTTP/1.1
Host: www.microscape.example
User-Agent: libwww-robot/5.1
Accept: image/gif, image/jpeg, text/html, */*
If-None-Match: \"8bb73e85-6-34508dc0\"

";

const ROBOT_10_DATE: &str = "\
GET /index.html HTTP/1.0
Host: www.microscape.example
User-Agent: libwww-robot/5.1
Accept: image/gif, image/jpeg, text/html, */*
If-Modified-Since: Mon, 27 Oct 1997 12:00:00 GMT

GET /images/logo.gif HTTP/1.0
Host: www.microscape.example
User-Agent: libwww-robot/5.1
Accept: image/gif, image/jpeg, text/html, */*
If-Modified-Since: Fri, 24 Oct 1997 12:00:00 GMT

";

const ROBOT_10_HEAD: &str = "\
GET /index.html HTTP/1.0
Host: www.microscape.example
User-Agent: libwww-robot/5.1
Accept: image/gif, image/jpeg, text/html, */*

HEAD /images/logo.gif HTTP/1.0
Host: www.microscape.example
User-Agent: libwww-robot/5.1
Accept: image/gif, image/jpeg, text/html, */*

";

const NAVIGATOR_10: &str = "\
GET /index.html HTTP/1.0
Host: www.microscape.example
User-Agent: Mozilla/4.04 [en] (WinNT; I)
Accept: image/gif, image/x-xbitmap, image/jpeg, image/pjpeg, */*
Accept-Language: en
Accept-Charset: iso-8859-1,*,utf-8
Connection: Keep-Alive

GET /images/logo.gif HTTP/1.0
Host: www.microscape.example
User-Agent: Mozilla/4.04 [en] (WinNT; I)
Accept: image/gif, image/x-xbitmap, image/jpeg, image/pjpeg, */*
Accept-Language: en
Accept-Charset: iso-8859-1,*,utf-8
Connection: Keep-Alive
If-Modified-Since: Fri, 24 Oct 1997 12:00:00 GMT

";

const NAVIGATOR_11: &str = "\
GET /index.html HTTP/1.1
Host: www.microscape.example
User-Agent: Mozilla/4.04 [en] (WinNT; I)
Accept: image/gif, image/x-xbitmap, image/jpeg, image/pjpeg, */*
Accept-Language: en
Accept-Charset: iso-8859-1,*,utf-8

GET /images/logo.gif HTTP/1.1
Host: www.microscape.example
User-Agent: Mozilla/4.04 [en] (WinNT; I)
Accept: image/gif, image/x-xbitmap, image/jpeg, image/pjpeg, */*
Accept-Language: en
Accept-Charset: iso-8859-1,*,utf-8
If-Modified-Since: Fri, 24 Oct 1997 12:00:00 GMT

";

const EXPLORER_10: &str = "\
GET /index.html HTTP/1.0
Accept: image/gif, image/x-xbitmap, image/jpeg, image/pjpeg, application/vnd.ms-excel, application/msword, application/vnd.ms-powerpoint, */*
Accept-Language: en-us
User-Agent: Mozilla/4.0 (compatible; MSIE 4.0b1; Windows NT)
Host: www.microscape.example
Connection: Keep-Alive

GET /images/logo.gif HTTP/1.0
Accept: image/gif, image/x-xbitmap, image/jpeg, image/pjpeg, application/vnd.ms-excel, application/msword, application/vnd.ms-powerpoint, */*
Accept-Language: en-us
User-Agent: Mozilla/4.0 (compatible; MSIE 4.0b1; Windows NT)
Host: www.microscape.example
Connection: Keep-Alive
If-Modified-Since: Fri, 24 Oct 1997 12:00:00 GMT

";

const EXPLORER_11: &str = "\
GET /index.html HTTP/1.1
Accept: image/gif, image/x-xbitmap, image/jpeg, image/pjpeg, application/vnd.ms-excel, application/msword, application/vnd.ms-powerpoint, */*
Accept-Language: en-us
User-Agent: Mozilla/4.0 (compatible; MSIE 4.0b1; Windows NT)
Host: www.microscape.example

GET /images/logo.gif HTTP/1.1
Accept: image/gif, image/x-xbitmap, image/jpeg, image/pjpeg, application/vnd.ms-excel, application/msword, application/vnd.ms-powerpoint, */*
Accept-Language: en-us
User-Agent: Mozilla/4.0 (compatible; MSIE 4.0b1; Windows NT)
Host: www.microscape.example
If-Modified-Since: Fri, 24 Oct 1997 12:00:00 GMT

";
