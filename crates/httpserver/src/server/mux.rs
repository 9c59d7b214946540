//! The server's multiplexed dispatcher: connections whose first bytes
//! are the `httpmux` preface are switched from the HTTP/1.x parser to a
//! [`MuxConn`] engine. Requests arrive as HEADERS frames, are costed on
//! the same single-CPU service queue as HTTP/1.x requests, and are
//! answered through [`HttpServer::respond`] — one response generator
//! for every transport.
//!
//! Push policy: when a 200 `text/html` response is generated on a
//! parent stream and the client advertised ENABLE_PUSH (and the config
//! enables it), the body is scanned for inline images and stylesheet
//! links; every one present in the store is promised *before* the
//! parent HEADERS go out and then serviced as a normal CPU-costed
//! response on its even stream. A client RST on a promised stream
//! cancels it, and the DATA bytes already emitted are counted as waste.

use super::*;
use httpmux::{MuxConn, MuxEvent};

/// Mux state attached to a connection after preface detection.
#[derive(Debug)]
pub(super) struct MuxServerConn {
    pub(super) engine: MuxConn,
    /// Client advertised ENABLE_PUSH and the config allows pushing.
    push_ok: bool,
    /// Responses (requests + pushes) not yet generated.
    pub(super) svc: u32,
    /// Paths already promised on this connection.
    pushed_paths: std::collections::BTreeSet<String>,
}

impl HttpServer {
    /// Preface matched: switch the connection to framed mode and feed
    /// it everything received so far (preface included).
    pub(super) fn mux_start(&mut self, ctx: &mut Ctx<'_>, sock: SocketId, bytes: Bytes) {
        if let Some(conn) = self.conns.get_mut(&sock) {
            conn.mux = Some(Box::new(MuxServerConn {
                engine: MuxConn::server(),
                push_ok: false,
                svc: 0,
                pushed_paths: std::collections::BTreeSet::new(),
            }));
        }
        self.mux_on_data(ctx, sock, bytes);
    }

    /// Bytes arrived on a framed connection.
    pub(super) fn mux_on_data(&mut self, ctx: &mut Ctx<'_>, sock: SocketId, data: Bytes) {
        let Some(m) = self.conns.get_mut(&sock).and_then(|c| c.mux.as_deref_mut()) else {
            return;
        };
        m.engine.push(data);
        loop {
            let Some(m) = self.conns.get_mut(&sock).and_then(|c| c.mux.as_deref_mut()) else {
                return;
            };
            let Some(ev) = m.engine.poll_event() else {
                break;
            };
            match ev {
                MuxEvent::Settings { enable_push } => {
                    m.push_ok = enable_push && self.config.mux_push;
                }
                MuxEvent::Headers { stream, fields, .. } => {
                    let Some(req) = request_from(&fields) else {
                        // Unintelligible request stream: refuse it.
                        m.engine.reset_stream(stream, httpmux::ERR_PROTOCOL);
                        self.stats.responses_4xx += 1;
                        continue;
                    };
                    m.svc += 1;
                    self.schedule_request(ctx, sock, req, Some(stream), false);
                }
                MuxEvent::Data { .. } => {
                    // Request bodies are outside the experiments' scope.
                }
                MuxEvent::Reset {
                    stream, data_sent, ..
                } => {
                    if stream % 2 == 0 {
                        // Client refused one of our pushes; the DATA bytes
                        // already on the wire were pure waste.
                        self.stats.cancelled_pushes += 1;
                        self.stats.cancelled_push_bytes += data_sent;
                    }
                }
                MuxEvent::PushPromise { .. } | MuxEvent::CancelledData { .. } => {
                    // Clients cannot push.
                }
                MuxEvent::ProtocolError(_) => {
                    ctx.abort(sock);
                    self.remove_conn(sock);
                    self.promote_parked(ctx);
                    return;
                }
            }
        }
        self.account(sock);
        self.mux_flush(ctx, sock);
    }

    /// A service timer fired for a stream: generate the response, run
    /// push discovery, and emit the frames.
    pub(super) fn queue_mux_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        sock: SocketId,
        stream: u32,
        req: Request,
        is_push: bool,
    ) {
        let Some(m) = self.conns.get_mut(&sock).and_then(|c| c.mux.as_deref_mut()) else {
            return; // connection vanished while the request was in service
        };
        m.svc = m.svc.saturating_sub(1);
        if m.engine.is_cancelled(stream) {
            // The stream was reset while the response was being computed:
            // the CPU time is spent, but nothing goes on the wire.
            self.mux_flush(ctx, sock);
            return;
        }
        let push_ok = m.push_ok;
        let now = ctx.now();
        let mut resp = self.respond(&req, now);
        self.stats.requests += 1;
        if is_push {
            self.stats.pushed_responses += 1;
            self.stats.pushed_bytes += resp.body.len() as u64;
        }

        // Push discovery: scan served HTML for subresources we hold.
        let mut push_paths: Vec<String> = Vec::new();
        if !is_push
            && push_ok
            && resp.status == StatusCode::OK
            && resp.headers.get("Content-Type") == Some("text/html")
            && !resp.headers.contains("Content-Encoding")
        {
            let m = self
                .conns
                .get_mut(&sock)
                .and_then(|c| c.mux.as_deref_mut())
                .expect("mux conn still present");
            resp.body.with_prefix(resp.body.len(), |html| {
                webcontent::html::walk(html, true, |token| {
                    if let Some(path) = webcontent::html::subresource(&token) {
                        if !m.pushed_paths.contains(&*path)
                            && !push_paths.iter().any(|p| *p == path)
                        {
                            push_paths.push(path.into_owned());
                        }
                    }
                })
            });
            push_paths.retain(|p| self.store.get(p).is_some());
        }

        // Emit: promises first (they must precede the parent HEADERS),
        // then the parent response. A promise's field block is the
        // request it stands for, a response's the response itself.
        let mut promised_streams: Vec<(u32, Request)> = Vec::new();
        {
            let m = self
                .conns
                .get_mut(&sock)
                .and_then(|c| c.mux.as_deref_mut())
                .expect("mux conn still present");
            for path in push_paths {
                let push_req = Request::new(Method::Get, &path, Version::Http11);
                let promised = m.engine.push_promise(stream, &push_req);
                m.pushed_paths.insert(path);
                m.svc += 1;
                promised_streams.push((promised, push_req));
            }
            m.engine.send_headers(stream, &resp, resp.body.is_empty());
            if !resp.body.is_empty() {
                m.engine
                    .send_bytes(stream, std::mem::take(&mut resp.body), true);
            }
        }

        // Pushed responses cost CPU like any other: queue each behind
        // the service queue.
        for (promised, push_req) in promised_streams {
            self.schedule_request(ctx, sock, push_req, Some(promised), true);
        }

        self.account(sock);
        self.mux_flush(ctx, sock);
    }

    /// Drain engine output through the socket; half-close once the
    /// client has finished and everything is answered and drained.
    pub(super) fn mux_flush(&mut self, ctx: &mut Ctx<'_>, sock: SocketId) {
        let Some(conn) = self.conns.get_mut(&sock) else {
            return;
        };
        let Some(m) = conn.mux.as_deref_mut() else {
            return;
        };
        // What the socket does not take stays queued: resume on SendSpace.
        ctx.send_from(sock, m.engine.outgoing());
        let done = conn.peer_closed && m.svc == 0 && m.engine.idle();
        self.account(sock);
        if done {
            ctx.shutdown_write(sock);
        }
    }
}

/// The request a HEADERS field block describes (`:method`, `:path`, then
/// its headers), so the shared `respond()` path (conditionals, ranges,
/// HEAD, deflate) works unchanged on framed requests.
fn request_from(fields: &httpwire::HeaderMap) -> Option<Request> {
    let method = fields.get(":method")?.parse().ok()?;
    let mut req = Request::new(method, fields.get(":path")?, Version::Http11);
    for (name, value) in fields.iter().filter(|(name, _)| !name.starts_with(':')) {
        req.headers.append(name, value);
    }
    Some(req)
}
