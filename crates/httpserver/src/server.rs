//! The HTTP origin server as a simulated application.
//!
//! One [`HttpServer`] instance drives one host. It implements the
//! behaviours the paper studied server-side:
//!
//! * **response buffering** — responses accumulate in a per-connection
//!   output buffer flushed when full or when the connection goes idle,
//!   which is what aggregates many 304s into single segments;
//! * **a global CPU model** — per-request service time serializes across
//!   connections (the testbed server was a single-CPU SPARC), so four
//!   parallel HTTP/1.0 connections do not get a 4× CPU speedup;
//! * **connection limits and the close hazard** — an optional
//!   max-requests-per-connection with either a correct independent
//!   half-close (drain the read side) or the naive simultaneous close
//!   that RSTs pipelined clients;
//! * **conditional requests, HEAD, byte ranges, and pre-deflated
//!   entities**.
//!
//! The CPU is a plain queue: each request's service completes no earlier
//! than the one scheduled before it (it starts when the CPU is free), and
//! timers due at the same instant fire in the order they were set, so the
//! request whose timer fires is always the oldest.

mod conns;
mod mux;

use crate::config::{AdmissionPolicy, ServerConfig, ServerKind};
use crate::store::SiteStore;
use bytes::{Bytes, BytesQueue};
use conns::ConnTable;
use httpwire::coding;
use httpwire::range;
use httpwire::validators::{evaluate_conditional, if_range_matches, CondResult};
use httpwire::{HttpDate, Method, Request, RequestParser, Response, StatusCode, Version};
use netsim::sim::{App, AppEvent, Ctx};
use netsim::{Metric, SimTime, SocketId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Counters exposed after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered.
    pub requests: u64,
    /// The responses 200.
    pub responses_200: u64,
    /// The responses 206.
    pub responses_206: u64,
    /// The responses 304.
    pub responses_304: u64,
    /// The responses 4xx.
    pub responses_4xx: u64,
    /// Entity bytes transmitted.
    pub body_bytes_sent: u64,
    /// Responses served with the deflate coding.
    pub deflate_responses: u64,
    /// Connections closed by the per-connection request limit.
    pub connections_closed_by_limit: u64,
    /// Connections refused (RST) at the `max_connections` cap.
    pub refused_connections: u64,
    /// Connections parked behind the `max_connections` cap before being
    /// serviced.
    pub queued_connections: u64,
    /// High-water mark of concurrently serviced connections.
    pub peak_connections: u64,
    /// Largest buffer footprint (output buffer + parser backlog) any
    /// single connection reached, in bytes.
    pub peak_conn_memory: u64,
    /// Largest aggregate buffer footprint across all connections, in
    /// bytes.
    pub peak_total_memory: u64,
    /// Responses pushed unsolicited on multiplexed connections.
    pub pushed_responses: u64,
    /// Entity bytes in pushed responses.
    pub pushed_bytes: u64,
    /// Pushes the client refused with RST_STREAM.
    pub cancelled_pushes: u64,
    /// DATA bytes already emitted on pushes the client cancelled (pure
    /// wire waste).
    pub cancelled_push_bytes: u64,
}

#[derive(Debug)]
struct Conn {
    parser: RequestParser,
    /// Responses generated but not yet accepted by the socket: heads
    /// written, bodies by reference.
    outbuf: BytesQueue,
    /// Requests received but not yet answered.
    in_service: u32,
    /// Responses generated on this connection.
    served: u32,
    /// We have decided to close once the buffer drains.
    closing: bool,
    /// We half-closed and are draining (ignoring) further requests.
    draining: bool,
    peer_closed: bool,
    /// Buffer bytes (output + parser backlog) currently charged to this
    /// connection in the server's memory accounting.
    mem: u64,
    /// First bytes received, held until we know whether they are an HTTP
    /// request line or the `httpmux` connection preface.
    pre: Vec<u8>,
    /// The HTTP-or-mux decision has been made.
    decided: bool,
    /// Framed-transport state once the mux preface has been seen.
    mux: Option<Box<mux::MuxServerConn>>,
}

impl Conn {
    fn new() -> Conn {
        Conn {
            parser: RequestParser::new(),
            outbuf: BytesQueue::new(),
            in_service: 0,
            served: 0,
            closing: false,
            draining: false,
            peer_closed: false,
            mem: 0,
            pre: Vec::new(),
            decided: false,
            mux: None,
        }
    }
}

/// The server application.
pub struct HttpServer {
    config: ServerConfig,
    store: Arc<SiteStore>,
    conns: ConnTable<Conn>,
    /// Accepted connections parked behind the `max_connections` cap
    /// (Queue policy); not read from until a service slot frees.
    parked: VecDeque<SocketId>,
    /// Aggregate buffer bytes across all serviced connections.
    total_mem: u64,
    /// Requests in service, oldest first: connection, request, mux stream
    /// if framed, whether this is a server push. The oldest one's timer
    /// token is `next_token - pending.len()`.
    pending: VecDeque<(SocketId, Request, Option<u32>, bool)>,
    next_token: u64,
    /// The single-CPU service queue.
    cpu_busy_until: SimTime,
    /// Run statistics.
    pub stats: ServerStats,
}

impl HttpServer {
    /// Create a new, empty instance.
    pub fn new(config: ServerConfig, store: Arc<SiteStore>) -> HttpServer {
        HttpServer {
            config,
            store,
            conns: ConnTable::new(),
            parked: VecDeque::new(),
            total_mem: 0,
            pending: VecDeque::new(),
            next_token: 1,
            cpu_busy_until: SimTime::ZERO,
            stats: ServerStats::default(),
        }
    }

    /// The configuration this server runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// What every response starts with: `Date` (the virtual wall clock)
    /// and `Server`.
    fn start_response(&self, version: Version, status: StatusCode, now: SimTime) -> Response {
        let date = HttpDate(self.config.date_base + now.as_secs_f64() as u64);
        Response::new(version, status)
            .with_header("Date", date)
            .with_header("Server", self.config.kind.server_header())
    }

    /// Recompute the connection's buffer footprint and fold the change
    /// into the aggregate and peak counters.
    fn account(&mut self, sock: SocketId) {
        let Some(conn) = self.conns.get_mut(sock) else {
            return;
        };
        let mem = conn.outbuf.len() as u64
            + conn.parser.buffered() as u64
            + conn.pre.len() as u64
            + conn.mux.as_ref().map_or(0, |m| {
                (m.engine.output_len() + m.engine.pending_send_bytes()) as u64
            });
        self.total_mem = self.total_mem - conn.mem + mem;
        conn.mem = mem;
        self.stats.peak_conn_memory = self.stats.peak_conn_memory.max(mem);
        self.stats.peak_total_memory = self.stats.peak_total_memory.max(self.total_mem);
    }

    /// Drop a connection from service, releasing its memory charge.
    fn remove_conn(&mut self, sock: SocketId) {
        if let Some(conn) = self.conns.remove(sock) {
            self.total_mem -= conn.mem;
        }
    }

    /// Begin servicing an accepted connection.
    fn admit(&mut self, ctx: &mut Ctx<'_>, sock: SocketId) {
        self.stats.connections += 1;
        ctx.set_nodelay(sock, self.config.nodelay);
        self.conns.insert(sock, Conn::new());
        self.stats.peak_connections = self.stats.peak_connections.max(self.conns.len() as u64);
        // Accepting costs CPU (fork / thread spawn): requests on any
        // connection queue behind it.
        let now = ctx.now();
        self.cpu_busy_until = self.cpu_busy_until.max(now) + self.config.per_connection_cost;
    }

    /// Move parked connections into service while slots are free.
    fn promote_parked(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(cap) = self.config.max_connections {
            if self.conns.len() >= cap as usize {
                return;
            }
            let Some(sock) = self.parked.pop_front() else {
                return;
            };
            self.admit(ctx, sock);
            // Bytes the client sent while the connection sat parked are
            // waiting in the socket's receive buffer.
            self.on_readable(ctx, sock);
        }
    }

    fn schedule_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        sock: SocketId,
        req: Request,
        stream: Option<u32>,
        is_push: bool,
    ) {
        let service = match req.method {
            Method::Head => self.config.service_time_validate,
            _ if req.headers.contains("If-None-Match")
                || req.headers.contains("If-Modified-Since") =>
            {
                self.config.service_time_validate
            }
            _ => self.config.service_time_get,
        };
        let now = ctx.now();
        let start = self.cpu_busy_until.max(now);
        let done = start + service;
        self.cpu_busy_until = done;
        ctx.probe_span(sock, netsim::SpanEvent::ServerThink { start, end: done });
        let token = self.next_token;
        self.next_token += 1;
        self.pending.push_back((sock, req, stream, is_push));
        ctx.set_timer(token, done.since(now));
    }

    /// Build the response for one request.
    fn respond(&mut self, req: &Request, now: SimTime) -> Response {
        let version = req.version;
        let Some(entity) = self.store.get(req.target()) else {
            self.stats.responses_4xx += 1;
            let body = Bytes::from_static(b"<HTML><BODY><H1>404 Not Found</H1></BODY></HTML>\n");
            let resp = self
                .start_response(version, StatusCode::NOT_FOUND, now)
                .with_header("Content-Type", "text/html")
                .with_header("Content-Length", body.len());
            // A response to HEAD ends with its head (RFC 9110 §9.3.2).
            return match req.method {
                Method::Head => resp,
                _ => resp.with_body(body),
            };
        };

        // Cache validation.
        if evaluate_conditional(&req.headers, &entity.validators) == CondResult::NotModified {
            self.stats.responses_304 += 1;
            let mut resp = self.start_response(version, StatusCode::NOT_MODIFIED, now);
            if let Some(etag) = &entity.validators.etag {
                resp.headers.set("ETag", etag);
            }
            if self.config.kind == ServerKind::Jigsaw {
                // Jigsaw's 304s repeated the entity metadata.
                if let Some(lm) = entity.validators.last_modified {
                    resp.headers.set("Last-Modified", HttpDate(lm));
                }
                resp.headers.set("Content-Type", &entity.content_type);
            }
            return resp;
        }

        // Choose the representation: deflated when negotiated for HTML.
        let mut content_encoding = None;
        let mut body = entity.body.clone();
        if self.config.serve_deflate
            && entity.content_type == "text/html"
            && coding::accepts(&req.headers, httpwire::ContentCoding::Deflate)
        {
            if let Some(d) = &entity.deflated {
                body = d.clone();
                content_encoding = Some("deflate");
            }
        }

        // Byte ranges (only single ranges; multipart/byteranges is beyond
        // what the experiments need). An empty entity has no non-empty
        // range, so it is served whole: RFC 9110 §14.2 lets a server
        // ignore `Range`.
        let mut status = StatusCode::OK;
        let mut content_range = None;
        if let Some(raw_range) = req.headers.get("Range").filter(|_| !body.is_empty()) {
            if if_range_matches(&req.headers, &entity.validators) {
                if let Some(ranges) = range::parse_range_header(raw_range) {
                    if ranges.len() == 1 {
                        match ranges[0].resolve(body.len() as u64) {
                            Some((off, len)) => {
                                status = StatusCode::PARTIAL_CONTENT;
                                content_range =
                                    Some(range::content_range(off, len, body.len() as u64));
                                body = body.slice(off as usize..(off + len) as usize);
                            }
                            None => {
                                self.stats.responses_4xx += 1;
                                return self
                                    .start_response(version, StatusCode::RANGE_NOT_SATISFIABLE, now)
                                    .with_header("Content-Length", "0");
                            }
                        }
                    }
                }
            }
        }

        let mut resp = self.start_response(version, status, now);
        if self.config.kind == ServerKind::Jigsaw {
            resp.headers.set("MIME-Version", "1.0");
        }
        resp.headers.set("Content-Type", &entity.content_type);
        resp.headers.set("Content-Length", body.len());
        if let Some(enc) = content_encoding {
            resp.headers.set("Content-Encoding", enc);
            self.stats.deflate_responses += 1;
        }
        if let Some(cr) = content_range {
            resp.headers.set("Content-Range", cr);
        }
        entity.validators.write_headers(&mut resp.headers);

        match status {
            StatusCode::PARTIAL_CONTENT => self.stats.responses_206 += 1,
            _ => self.stats.responses_200 += 1,
        }

        if req.method == Method::Head {
            // Headers describe the entity; no body is transmitted.
            return resp;
        }
        self.stats.body_bytes_sent += body.len() as u64;
        resp.with_body(body)
    }

    /// Append a generated response to the connection's buffer, applying
    /// keep-alive and connection-limit policy.
    fn queue_response(&mut self, ctx: &mut Ctx<'_>, sock: SocketId, req: Request) {
        // Requests that were already parsed when the connection-limit
        // decision landed are dropped, exactly like a real server that
        // stops reading: the client must retry them elsewhere.
        if self.conns.get(sock).is_none_or(|c| c.closing || c.draining) {
            if let Some(conn) = self.conns.get_mut(sock) {
                conn.in_service = conn.in_service.saturating_sub(1);
                self.flush(ctx, sock);
            }
            return;
        }
        let now = ctx.now();
        let mut resp = self.respond(&req, now);
        self.stats.requests += 1;

        let Some(conn) = self.conns.get_mut(sock) else {
            return; // connection vanished (reset) while the request was in service
        };
        conn.in_service = conn.in_service.saturating_sub(1);
        conn.served += 1;

        let mut close_after = !req.wants_keep_alive();
        if let Some(limit) = self.config.max_requests_per_connection {
            if conn.served >= limit {
                close_after = true;
                self.stats.connections_closed_by_limit += 1;
            }
        }
        if close_after {
            if req.version == Version::Http11 {
                resp.headers.set("Connection", "close");
            }
            conn.closing = true;
        } else if req.version == Version::Http10 {
            // Honouring HTTP/1.0 Keep-Alive requires saying so.
            resp.headers.set("Connection", "Keep-Alive");
        }

        // The head written, the body (the store's shared bytes) behind it
        // by reference. Both reach the socket in one write: written apart,
        // the head would leave in a segment of its own.
        resp.queue_onto(&mut conn.outbuf);
        self.account(sock);
        self.flush(ctx, sock);
    }

    /// Flush policy: push buffered bytes when the buffer is full or the
    /// connection has no requests in flight (idle).
    fn flush(&mut self, ctx: &mut Ctx<'_>, sock: SocketId) {
        let Some(conn) = self.conns.get_mut(sock) else {
            return;
        };
        if conn.mux.is_some() {
            // Framed connections have their own drain/close policy.
            self.mux_flush(ctx, sock);
            return;
        }
        let idle = conn.in_service == 0;
        if conn.outbuf.len() < self.config.output_buffer && !idle && !conn.closing {
            return;
        }
        ctx.send_from(sock, &mut conn.outbuf);
        self.account(sock);
        let conn = self.conns.get_mut(sock).expect("still present");
        if !conn.outbuf.is_empty() || conn.in_service > 0 || !(conn.closing || conn.peer_closed) {
            return;
        }
        if conn.closing && self.config.naive_close {
            // The hazard: closing both halves at once resets any
            // pipelined requests already in flight.
            ctx.close(sock);
            self.remove_conn(sock);
            self.promote_parked(ctx);
            return;
        }
        // Closing: half-close and drain the read side. Or the client
        // finished and everything is answered: close our half.
        ctx.shutdown_write(sock);
        conn.draining |= conn.closing;
        if conn.peer_closed && conn.mem == 0 {
            // Finished: only its socket's close is still to come.
            self.conns.retire(sock);
        }
    }

    fn on_readable(&mut self, ctx: &mut Ctx<'_>, sock: SocketId) {
        if !self.conns.contains(sock) {
            // Parked (or already-gone) connection: leave the bytes in the
            // socket's receive buffer so TCP window backpressure holds the
            // client until a service slot frees.
            return;
        }
        let data = ctx.recv(sock, usize::MAX);
        let conn = self.conns.get_mut(sock).expect("checked above");
        if conn.mux.is_some() {
            self.mux_on_data(ctx, sock, data);
            return;
        }
        if !conn.decided {
            // We cannot tell an HTTP request line from the mux preface
            // until enough bytes arrive: stash and compare. Bytes that
            // decide it by themselves go on as they are.
            let data = if conn.pre.is_empty() {
                data
            } else {
                conn.pre.extend_from_slice(&data);
                Bytes::from(std::mem::take(&mut conn.pre))
            };
            let mux = httpmux::preface_candidate(&data);
            if mux && data.len() < httpmux::PREFACE.len() {
                conn.pre = data.to_vec();
                self.account(sock);
                return; // could still be either; wait for more bytes
            }
            conn.decided = true;
            if mux {
                self.mux_start(ctx, sock, data);
                return;
            }
            conn.parser.push(data);
        } else {
            if conn.draining {
                return; // reading only to drain; requests beyond the limit are dropped
            }
            conn.parser.push(data);
        }
        self.account(sock);
        loop {
            match self.conns.get_mut(sock).unwrap().parser.next() {
                Ok(Some(req)) => {
                    let conn = self.conns.get_mut(sock).unwrap();
                    if conn.closing || conn.draining {
                        continue; // arrived after the limit: dropped
                    }
                    conn.in_service += 1;
                    self.schedule_request(ctx, sock, req, None, false);
                }
                Ok(None) => break,
                Err(_) => {
                    // Malformed request: 400 and close.
                    let conn = self.conns.get_mut(sock).unwrap();
                    self.stats.responses_4xx += 1;
                    let resp = Response::new(Version::Http10, StatusCode::BAD_REQUEST)
                        .with_header("Content-Length", "0")
                        .with_header("Connection", "close");
                    resp.queue_onto(&mut conn.outbuf);
                    conn.closing = true;
                    self.flush(ctx, sock);
                    break;
                }
            }
        }
        self.account(sock);
    }
}

impl App for HttpServer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent) {
        match event {
            AppEvent::Start => match self.config.listen_backlog {
                Some(backlog) => ctx.listen_with_backlog(self.config.port, backlog),
                None => ctx.listen(self.config.port),
            },
            AppEvent::Accepted { socket, .. } => {
                let at_cap = self
                    .config
                    .max_connections
                    .is_some_and(|cap| self.conns.len() >= cap as usize);
                if at_cap {
                    match self.config.admission_policy {
                        AdmissionPolicy::Rst => {
                            self.stats.refused_connections += 1;
                            ctx.abort(socket);
                        }
                        AdmissionPolicy::Queue => {
                            self.stats.queued_connections += 1;
                            self.parked.push_back(socket);
                        }
                    }
                } else {
                    self.admit(ctx, socket);
                }
            }
            AppEvent::Readable(s) => self.on_readable(ctx, s),
            AppEvent::Timer(token) => {
                let oldest = self.next_token - self.pending.len() as u64;
                debug_assert_eq!(token, oldest, "requests complete in the order queued");
                if let Some((sock, req, stream, is_push)) = self.pending.pop_front() {
                    if self.conns.contains(sock) {
                        match stream {
                            Some(stream) => {
                                self.queue_mux_response(ctx, sock, stream, req, is_push)
                            }
                            None => self.queue_response(ctx, sock, req),
                        }
                    }
                }
            }
            AppEvent::SendSpace(s) => self.flush(ctx, s),
            AppEvent::PeerFin(s) => {
                if let Some(conn) = self.conns.get_mut(s) {
                    conn.peer_closed = true;
                    self.flush(ctx, s);
                }
            }
            AppEvent::Reset(s) | AppEvent::Closed(s) => {
                self.parked.retain(|&p| p != s);
                self.remove_conn(s);
                self.promote_parked(ctx);
            }
            _ => {}
        }
        if ctx.telemetry_enabled() {
            ctx.telemetry_gauge(Metric::ServerConnections, self.conns.len() as u64);
            ctx.telemetry_gauge(Metric::ServerQueuedConnections, self.parked.len() as u64);
            ctx.telemetry_gauge(Metric::ServerBufferedBytes, self.total_mem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Entity;
    use httpwire::ETag;

    fn store() -> Arc<SiteStore> {
        let mut s = SiteStore::new();
        s.insert(
            "/index.html",
            Entity::new(
                "<html>hello world hello world</html>"
                    .repeat(10)
                    .into_bytes(),
                "text/html",
                1000,
            )
            .with_deflate(),
        );
        s.insert("/a.gif", Entity::new(vec![0u8; 500], "image/gif", 1000));
        s.into_shared()
    }

    fn server() -> HttpServer {
        HttpServer::new(ServerConfig::apache(80), store())
    }

    #[test]
    fn respond_200_with_validators() {
        let mut srv = server();
        let req = Request::new(Method::Get, "/a.gif", Version::Http11);
        let resp = srv.respond(&req, SimTime::ZERO);
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.headers.get_int("Content-Length"), Some(500));
        assert!(resp.headers.contains("ETag"));
        assert!(resp.headers.contains("Last-Modified"));
        assert_eq!(resp.body.len(), 500);
    }

    #[test]
    fn respond_304_on_matching_etag() {
        let mut srv = server();
        let etag = srv
            .store
            .get("/a.gif")
            .unwrap()
            .validators
            .etag
            .clone()
            .unwrap();
        let req = Request::new(Method::Get, "/a.gif", Version::Http11)
            .with_header("If-None-Match", &etag);
        let resp = srv.respond(&req, SimTime::ZERO);
        assert_eq!(resp.status, StatusCode::NOT_MODIFIED);
        assert!(resp.body.is_empty());
        assert_eq!(srv.stats.responses_304, 1);
    }

    #[test]
    fn respond_200_on_stale_etag() {
        let mut srv = server();
        let req = Request::new(Method::Get, "/a.gif", Version::Http11)
            .with_header("If-None-Match", ETag::strong("stale"));
        let resp = srv.respond(&req, SimTime::ZERO);
        assert_eq!(resp.status, StatusCode::OK);
    }

    #[test]
    fn head_has_headers_but_no_body() {
        let mut srv = server();
        let req = Request::new(Method::Head, "/a.gif", Version::Http10);
        let resp = srv.respond(&req, SimTime::ZERO);
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.headers.get_int("Content-Length"), Some(500));
        assert!(resp.body.is_empty());
    }

    #[test]
    fn deflate_negotiated_for_html_only() {
        let mut srv = HttpServer::new(ServerConfig::apache(80).with_deflate(true), store());
        let req = Request::new(Method::Get, "/index.html", Version::Http11)
            .with_header("Accept-Encoding", "deflate");
        let resp = srv.respond(&req, SimTime::ZERO);
        assert_eq!(resp.headers.get("Content-Encoding"), Some("deflate"));
        let plain_len: usize = 37 * 10;
        assert!(resp.body.len() < plain_len);

        // GIFs are never deflated.
        let req = Request::new(Method::Get, "/a.gif", Version::Http11)
            .with_header("Accept-Encoding", "deflate");
        let resp = srv.respond(&req, SimTime::ZERO);
        assert!(!resp.headers.contains("Content-Encoding"));

        // And without Accept-Encoding the HTML stays plain.
        let req = Request::new(Method::Get, "/index.html", Version::Http11);
        let resp = srv.respond(&req, SimTime::ZERO);
        assert!(!resp.headers.contains("Content-Encoding"));
    }

    #[test]
    fn range_request_served() {
        let mut srv = server();
        let req =
            Request::new(Method::Get, "/a.gif", Version::Http11).with_header("Range", "bytes=0-99");
        let resp = srv.respond(&req, SimTime::ZERO);
        assert_eq!(resp.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.body.len(), 100);
        assert_eq!(resp.headers.get("Content-Range"), Some("bytes 0-99/500"));
    }

    #[test]
    fn if_range_mismatch_serves_full_entity() {
        let mut srv = server();
        let req = Request::new(Method::Get, "/a.gif", Version::Http11)
            .with_header("Range", "bytes=0-99")
            .with_header("If-Range", "\"different\"");
        let resp = srv.respond(&req, SimTime::ZERO);
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body.len(), 500);
    }

    #[test]
    fn unsatisfiable_range_rejected() {
        let mut srv = server();
        let req = Request::new(Method::Get, "/a.gif", Version::Http11)
            .with_header("Range", "bytes=900-999");
        let resp = srv.respond(&req, SimTime::ZERO);
        assert_eq!(resp.status, StatusCode::RANGE_NOT_SATISFIABLE);
    }

    #[test]
    fn a_range_of_an_empty_entity_serves_it_whole() {
        let mut store = SiteStore::new();
        store.insert("/empty.txt", Entity::new(Vec::new(), "text/plain", 1000));
        let mut srv = HttpServer::new(ServerConfig::apache(80), store.into_shared());
        for range in ["bytes=-5", "bytes=0-"] {
            let req = Request::new(Method::Get, "/empty.txt", Version::Http11)
                .with_header("Range", range);
            let resp = srv.respond(&req, SimTime::ZERO);
            assert_eq!(resp.status, StatusCode::OK, "{range}");
            assert!(!resp.headers.contains("Content-Range"), "{range}");
            assert_eq!(resp.headers.get_int("Content-Length"), Some(0));
        }
    }

    #[test]
    fn missing_object_is_404() {
        let mut srv = server();
        let req = Request::new(Method::Get, "/nope.gif", Version::Http11);
        let resp = srv.respond(&req, SimTime::ZERO);
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        assert!(!resp.body.is_empty());
        let declared = resp.headers.get_int("Content-Length");
        assert_eq!(declared, Some(resp.body.len() as u64));

        // The same answer to HEAD declares the page and carries none of it.
        let head = Request::new(Method::Head, "/nope.gif", Version::Http11);
        let resp = srv.respond(&head, SimTime::ZERO);
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        assert_eq!(resp.headers.get_int("Content-Length"), declared);
        assert!(resp.body.is_empty());
    }

    #[test]
    fn jigsaw_304_is_more_verbose_than_apache() {
        let st = store();
        let etag = st.get("/a.gif").unwrap().validators.etag.clone().unwrap();
        let req = Request::new(Method::Get, "/a.gif", Version::Http11)
            .with_header("If-None-Match", &etag);
        let mut apache = HttpServer::new(ServerConfig::apache(80), st.clone());
        let mut jigsaw = HttpServer::new(ServerConfig::jigsaw(80), st);
        let a = apache.respond(&req, SimTime::ZERO).wire_len();
        let j = jigsaw.respond(&req, SimTime::ZERO).wire_len();
        assert!(j > a, "jigsaw 304 ({j}) should exceed apache ({a})");
    }
}
