//! Integration tests driving the server over the simulated network with
//! a raw-bytes test client (deliberately *not* the `httpclient` robot, so
//! the server is exercised against an independent implementation).

use httpserver::{AdmissionPolicy, Entity, HttpServer, ServerConfig, SiteStore};
use httpwire::{Method, ResponseParser};
use netsim::sim::{App, AppEvent, Ctx};
use netsim::{LinkConfig, Simulator, SockAddr, SocketId};
use std::sync::Arc;

/// Sends a fixed preformatted byte blob, collects responses.
struct RawClient {
    server: SockAddr,
    to_send: Vec<u8>,
    expect: Vec<Method>,
    parser: ResponseParser,
    responses: Vec<httpwire::Response>,
    sock: Option<SocketId>,
    half_close_after_send: bool,
}

impl RawClient {
    fn new(server: SockAddr, to_send: Vec<u8>, expect: Vec<Method>) -> Self {
        RawClient {
            server,
            to_send,
            expect,
            parser: ResponseParser::new(),
            responses: Vec::new(),
            sock: None,
            half_close_after_send: true,
        }
    }
}

impl App for RawClient {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                for m in &self.expect {
                    self.parser.expect(*m);
                }
                self.sock = Some(ctx.connect(self.server));
            }
            AppEvent::Connected(s) => {
                let data = std::mem::take(&mut self.to_send);
                ctx.send(s, &data);
                if self.half_close_after_send {
                    ctx.shutdown_write(s);
                }
            }
            AppEvent::Readable(s) => {
                self.parser.push(ctx.recv(s, usize::MAX));
                while let Ok(Some(resp)) = self.parser.next() {
                    self.responses.push(resp);
                }
            }
            AppEvent::PeerFin(_) => {
                if let Ok(Some(resp)) = self.parser.finish() {
                    self.responses.push(resp);
                }
            }
            _ => {}
        }
    }
}

fn store() -> Arc<SiteStore> {
    let mut s = SiteStore::new();
    s.insert(
        "/index.html",
        Entity::new(
            "<html><body>test page body</body></html>"
                .repeat(20)
                .into_bytes(),
            "text/html",
            865_000_000,
        )
        .with_deflate(),
    );
    s.insert(
        "/big.gif",
        Entity::new(vec![7u8; 20_000], "image/gif", 865_000_000),
    );
    s.into_shared()
}

fn run_raw(
    server_cfg: ServerConfig,
    wire: Vec<u8>,
    expect: Vec<Method>,
) -> Vec<httpwire::Response> {
    let mut sim = Simulator::new();
    let c = sim.add_host("client");
    let s = sim.add_host("server");
    sim.add_link(c, s, LinkConfig::lan());
    sim.install_app(s, Box::new(HttpServer::new(server_cfg, store())));
    sim.install_app(
        c,
        Box::new(RawClient::new(SockAddr::new(s, 80), wire, expect)),
    );
    sim.run_until_idle();
    sim.app_mut::<RawClient>(c).unwrap().responses.clone()
}

#[test]
fn serves_pipelined_batch_in_order() {
    let wire = b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n\
                 GET /big.gif HTTP/1.1\r\nHost: x\r\n\r\n\
                 GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"
        .to_vec();
    let resps = run_raw(
        ServerConfig::apache(80),
        wire,
        vec![Method::Get, Method::Get, Method::Get],
    );
    assert_eq!(resps.len(), 3);
    assert_eq!(resps[0].headers.get("Content-Type"), Some("text/html"));
    assert_eq!(resps[1].body.len(), 20_000);
    assert_eq!(resps[2].status.0, 200);
}

#[test]
fn http10_connection_closes_after_response() {
    let wire = b"GET /big.gif HTTP/1.0\r\n\r\n".to_vec();
    let resps = run_raw(ServerConfig::apache(80), wire, vec![Method::Get]);
    assert_eq!(resps.len(), 1);
    assert!(!resps[0].keeps_alive());
}

#[test]
fn http10_keep_alive_honoured() {
    let wire = b"GET /big.gif HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n".to_vec();
    let resps = run_raw(ServerConfig::apache(80), wire, vec![Method::Get]);
    assert_eq!(resps.len(), 1);
    assert!(resps[0].keeps_alive());
    assert_eq!(resps[0].headers.get("Connection"), Some("Keep-Alive"));
}

#[test]
fn bad_request_gets_400() {
    let wire = b"BOGUS REQUEST LINE\r\n\r\n".to_vec();
    let resps = run_raw(ServerConfig::apache(80), wire, vec![Method::Get]);
    assert_eq!(resps.len(), 1);
    assert_eq!(resps[0].status.0, 400);
}

#[test]
fn request_limit_marks_last_response_close() {
    let wire = b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n\
                 GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n\
                 GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"
        .to_vec();
    let resps = run_raw(
        ServerConfig::apache(80).with_max_requests(2),
        wire,
        vec![Method::Get, Method::Get, Method::Get],
    );
    // Only two answered; the second carries Connection: close.
    assert_eq!(resps.len(), 2);
    assert!(resps[0].keeps_alive());
    assert!(!resps[1].keeps_alive());
}

#[test]
fn deflate_served_when_negotiated() {
    let wire = b"GET /index.html HTTP/1.1\r\nHost: x\r\nAccept-Encoding: deflate\r\n\r\n".to_vec();
    let resps = run_raw(
        ServerConfig::apache(80).with_deflate(true),
        wire,
        vec![Method::Get],
    );
    assert_eq!(resps[0].headers.get("Content-Encoding"), Some("deflate"));
    let body = httpwire::coding::decode(httpwire::ContentCoding::Deflate, &resps[0].body.to_vec())
        .expect("valid deflate body");
    assert!(String::from_utf8_lossy(&body).contains("test page body"));
}

#[test]
fn conditional_get_roundtrip_over_network() {
    // First fetch to learn the ETag, second conditional fetch gets 304.
    let wire = b"GET /big.gif HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
    let resps = run_raw(ServerConfig::apache(80), wire, vec![Method::Get]);
    let etag = resps[0]
        .headers
        .get("ETag")
        .expect("etag present")
        .to_string();

    let wire2 =
        format!("GET /big.gif HTTP/1.1\r\nHost: x\r\nIf-None-Match: {etag}\r\n\r\n").into_bytes();
    let resps2 = run_raw(ServerConfig::apache(80), wire2, vec![Method::Get]);
    assert_eq!(resps2[0].status.0, 304);
    assert!(resps2[0].body.is_empty());
}

#[test]
fn range_request_over_network() {
    let wire = b"GET /big.gif HTTP/1.1\r\nHost: x\r\nRange: bytes=100-199\r\n\r\n".to_vec();
    let resps = run_raw(ServerConfig::apache(80), wire, vec![Method::Get]);
    assert_eq!(resps[0].status.0, 206);
    assert_eq!(resps[0].body, vec![7u8; 100]);
    assert_eq!(
        resps[0].headers.get("Content-Range"),
        Some("bytes 100-199/20000")
    );
}

#[test]
fn head_over_network_sends_no_body() {
    let wire = b"HEAD /big.gif HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
    let resps = run_raw(ServerConfig::apache(80), wire, vec![Method::Head]);
    assert_eq!(resps[0].status.0, 200);
    assert!(resps[0].body.is_empty());
    assert_eq!(resps[0].headers.get_int("Content-Length"), Some(20_000));
}

/// Minimal one-request HTTP/1.0 client for admission tests: records
/// whether it was served or reset.
struct AdmClient {
    server: SockAddr,
    parser: ResponseParser,
    responses: u32,
    reset: bool,
}

impl AdmClient {
    fn new(server: SockAddr) -> Self {
        AdmClient {
            server,
            parser: ResponseParser::new(),
            responses: 0,
            reset: false,
        }
    }
}

impl App for AdmClient {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                self.parser.expect(Method::Get);
                ctx.connect(self.server);
            }
            AppEvent::Connected(s) => {
                ctx.send(s, b"GET /big.gif HTTP/1.0\r\n\r\n");
            }
            AppEvent::Readable(s) => {
                self.parser.push(ctx.recv(s, usize::MAX));
                while let Ok(Some(_)) = self.parser.next() {
                    self.responses += 1;
                }
            }
            AppEvent::PeerFin(s) => {
                if let Ok(Some(_)) = self.parser.finish() {
                    self.responses += 1;
                }
                ctx.close(s);
            }
            AppEvent::Reset(_) => self.reset = true,
            _ => {}
        }
    }
}

/// Run `n` simultaneous one-shot clients against one server; returns
/// (per-client (responses, reset), server stats, server host id, sim).
fn run_fleet(n: usize, server_cfg: ServerConfig) -> (Vec<(u32, bool)>, httpserver::ServerStats) {
    let mut sim = Simulator::new();
    let clients: Vec<_> = (0..n)
        .map(|i| sim.add_host(&format!("client{i}")))
        .collect();
    let s = sim.add_host("server");
    for &c in &clients {
        sim.add_link(c, s, LinkConfig::lan());
    }
    sim.install_app(s, Box::new(HttpServer::new(server_cfg, store())));
    for &c in &clients {
        sim.install_app(c, Box::new(AdmClient::new(SockAddr::new(s, 80))));
    }
    sim.run_until_idle();
    let outcomes = clients
        .iter()
        .map(|&c| {
            let app = sim.app_mut::<AdmClient>(c).unwrap();
            (app.responses, app.reset)
        })
        .collect();
    let stats = sim.app_mut::<HttpServer>(s).unwrap().stats;
    (outcomes, stats)
}

#[test]
fn connection_cap_rst_policy_refuses_excess_clients() {
    let cfg = ServerConfig::apache(80).with_max_connections(2, AdmissionPolicy::Rst);
    let (outcomes, stats) = run_fleet(4, cfg);
    let served = outcomes.iter().filter(|(r, _)| *r == 1).count();
    let reset = outcomes.iter().filter(|(_, r)| *r).count();
    assert_eq!(served, 2, "cap admits exactly two: {outcomes:?}");
    assert_eq!(reset, 2, "the excess two are RST: {outcomes:?}");
    assert_eq!(stats.refused_connections, 2);
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.peak_connections, 2);
}

#[test]
fn connection_cap_queue_policy_parks_and_eventually_serves_all() {
    let cfg = ServerConfig::apache(80).with_max_connections(1, AdmissionPolicy::Queue);
    let (outcomes, stats) = run_fleet(4, cfg);
    assert!(
        outcomes.iter().all(|&(r, reset)| r == 1 && !reset),
        "every parked client is eventually served: {outcomes:?}"
    );
    assert_eq!(stats.queued_connections, 3);
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.peak_connections, 1, "never more than one in service");
}

#[test]
fn listen_backlog_plumbed_through_and_recovered_by_retransmission() {
    let cfg = ServerConfig::apache(80).with_listen_backlog(2);
    let mut sim = Simulator::new();
    let clients: Vec<_> = (0..6)
        .map(|i| sim.add_host(&format!("client{i}")))
        .collect();
    let s = sim.add_host("server");
    for &c in &clients {
        sim.add_link(c, s, LinkConfig::lan());
    }
    sim.install_app(s, Box::new(HttpServer::new(cfg, store())));
    for &c in &clients {
        sim.install_app(c, Box::new(AdmClient::new(SockAddr::new(s, 80))));
    }
    sim.run_until_idle();
    assert!(
        sim.socket_stats(s).syn_drops > 0,
        "six simultaneous SYNs must overflow a backlog of two"
    );
    for &c in &clients {
        assert_eq!(
            sim.app_mut::<AdmClient>(c).unwrap().responses,
            1,
            "SYN retransmission recovers every dropped client"
        );
    }
}

#[test]
fn memory_accounting_tracks_buffered_responses() {
    let mut sim = Simulator::new();
    let c = sim.add_host("client");
    let s = sim.add_host("server");
    sim.add_link(c, s, LinkConfig::lan());
    sim.install_app(
        s,
        Box::new(HttpServer::new(ServerConfig::apache(80), store())),
    );
    let mut wire = Vec::new();
    let mut expect = Vec::new();
    for _ in 0..10 {
        wire.extend_from_slice(b"GET /big.gif HTTP/1.1\r\nHost: x\r\n\r\n");
        expect.push(Method::Get);
    }
    sim.install_app(
        c,
        Box::new(RawClient::new(SockAddr::new(s, 80), wire, expect)),
    );
    sim.run_until_idle();
    let stats = sim.app_mut::<HttpServer>(s).unwrap().stats;
    // Ten 20 kB entities against a bounded socket buffer: at least one
    // full response must have sat in the output buffer at some point.
    assert!(
        stats.peak_conn_memory >= 20_000,
        "peak_conn_memory = {}",
        stats.peak_conn_memory
    );
    assert!(stats.peak_total_memory >= stats.peak_conn_memory);
    assert_eq!(stats.peak_connections, 1);
}

#[test]
fn big_response_buffer_backpressure() {
    // Ten large objects pipelined: the server must handle socket
    // backpressure (SendSpace) without losing or reordering data.
    let mut wire = Vec::new();
    let mut expect = Vec::new();
    for _ in 0..10 {
        wire.extend_from_slice(b"GET /big.gif HTTP/1.1\r\nHost: x\r\n\r\n");
        expect.push(Method::Get);
    }
    let resps = run_raw(ServerConfig::apache(80), wire, expect);
    assert_eq!(resps.len(), 10);
    for r in &resps {
        assert_eq!(r.body.len(), 20_000);
        assert_eq!(r.body, vec![7u8; 20_000]);
    }
}

#[test]
fn head_and_first_body_bytes_share_the_first_segment() {
    // The head is written, the body queued behind it by reference; both
    // must reach the socket in one write, or the head leaves in a short
    // segment of its own and every packet count of the experiments moves.
    let mut sim = Simulator::new();
    let c = sim.add_host("client");
    let s = sim.add_host("server");
    sim.add_link(c, s, LinkConfig::lan());
    sim.install_app(
        s,
        Box::new(HttpServer::new(ServerConfig::apache(80), store())),
    );
    let wire = b"GET /big.gif HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
    let client = RawClient::new(SockAddr::new(s, 80), wire, vec![Method::Get]);
    sim.install_app(c, Box::new(client));
    sim.run_until_idle();
    let resps = &sim.app_mut::<RawClient>(c).unwrap().responses;
    assert_eq!(resps[0].body.len(), 20_000);
    let head_len = resps[0].head_to_bytes().len();
    let first = sim
        .trace()
        .records()
        .iter()
        .map(|r| &r.segment)
        .find(|seg| seg.src.host == s && seg.has_payload())
        .expect("the server sent data");
    assert_eq!(first.payload.len(), 1460, "a full first segment");
    assert!(first.payload.starts_with(b"HTTP/1.1 200 OK\r\n"));
    assert!(head_len < 1460 && first.payload[head_len..].iter().all(|&b| b == 7));
}
