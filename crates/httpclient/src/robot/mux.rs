//! The robot's multiplexed transport: one framed connection
//! (`crates/httpmux`), every request a concurrent stream, pushed
//! subresources accepted straight into the cache.
//!
//! This is a child module of `robot` so it can drive the same CPU
//! model, cache, discovery, and statistics machinery as the HTTP/1.x
//! paths — a response that arrives on a stream is processed by exactly
//! the same `handle_response` as one that arrives on a socket.

use super::*;
use httpmux::{MuxConn, MuxEvent, ERR_CANCEL};
use httpwire::{HeaderMap, StatusCode, Version};

/// What a stream has before its HEADERS arrive: a peer that sends DATA
/// first, or nothing at all, gets a response nothing recognises.
fn headless() -> Response {
    Response::new(Version::Http11, StatusCode(0))
}

/// State of the single multiplexed connection.
#[derive(Debug)]
pub(super) struct MuxState {
    pub(super) sock: SocketId,
    engine: MuxConn,
    connected: bool,
    /// Our request streams awaiting responses.
    jobs: BTreeMap<u32, Job>,
    /// Accepted push streams (server-initiated, even ids).
    promised: BTreeMap<u32, Job>,
    /// Responses under assembly, ours and pushed: the head, and the
    /// body so far as the DATA payloads it arrived in.
    resp: BTreeMap<u32, Response>,
    first_byte_seen: bool,
}

impl MuxState {
    /// Anything still owed to us on this connection?
    pub(super) fn outstanding(&self) -> bool {
        !self.jobs.is_empty() || !self.promised.is_empty()
    }
}

impl HttpClient {
    pub(super) fn mux_outstanding(&self) -> bool {
        self.mux.as_ref().is_some_and(|m| m.outstanding())
    }

    pub(super) fn mux_sock(&self) -> Option<SocketId> {
        self.mux.as_ref().map(|m| m.sock)
    }

    /// In cautious (post-recovery) mode, serialize requests until one
    /// response survives — mirroring the pipelined path.
    pub(super) fn mux_may_issue(&self) -> bool {
        !self.cautious || self.mux.as_ref().map_or(true, |m| m.jobs.is_empty())
    }

    pub(super) fn mux_ensure_conn(&mut self, ctx: &mut Ctx<'_>) {
        if self.mux.is_some() {
            return;
        }
        let sock = ctx.connect(self.config.server);
        ctx.set_nodelay(sock, self.config.nodelay);
        self.stats.connections_opened += 1;
        self.mux = Some(MuxState {
            sock,
            engine: MuxConn::client(self.config.mode.push_enabled()),
            connected: false,
            jobs: BTreeMap::new(),
            promised: BTreeMap::new(),
            resp: BTreeMap::new(),
            first_byte_seen: false,
        });
    }

    /// A generated request is ready: open a stream for it.
    pub(super) fn mux_place(&mut self, ctx: &mut Ctx<'_>, job: Job) {
        self.mux_ensure_conn(ctx);
        // The stream's field block is the request: `:method`, `:path`,
        // then its headers.
        let req = Request::new(job.method, &job.path, Version::Http11);
        let req = self.finish_request(&job, req);
        let m = self.mux.as_mut().expect("mux conn just ensured");
        if ctx.probe_enabled() {
            ctx.probe_span(
                m.sock,
                SpanEvent::RequestQueued {
                    path: job.path.clone(),
                },
            );
        }
        let stream = m.engine.open_stream(&req, true);
        ctx.probe_span(
            m.sock,
            SpanEvent::RequestWritten {
                count: 1,
                cause: FlushCause::App,
            },
        );
        m.jobs.insert(stream, job);
        self.stats.requests_sent += 1;
        self.mux_push_out(ctx);
    }

    /// Drain engine output into the socket.
    pub(super) fn mux_push_out(&mut self, ctx: &mut Ctx<'_>) {
        let Some(m) = self.mux.as_mut() else {
            return;
        };
        if !m.connected {
            return; // transmitted on Connected
        }
        // What the socket does not take stays queued: resume on SendSpace.
        ctx.send_from(m.sock, m.engine.outgoing());
    }

    pub(super) fn mux_on_connected(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(m) = self.mux.as_mut() {
            m.connected = true;
        }
        self.mux_push_out(ctx);
    }

    pub(super) fn mux_on_readable(&mut self, ctx: &mut Ctx<'_>) {
        let Some(m) = self.mux.as_mut() else {
            return;
        };
        let sock = m.sock;
        let data = ctx.recv(sock, usize::MAX);
        if !data.is_empty() && !m.first_byte_seen && m.outstanding() {
            m.first_byte_seen = true;
            ctx.probe_span(sock, SpanEvent::FirstByte);
        }
        m.engine.push(data);
        loop {
            let Some(ev) = self.mux.as_mut().and_then(|m| m.engine.poll_event()) else {
                break;
            };
            match ev {
                MuxEvent::Settings { .. } => {}
                MuxEvent::Headers {
                    stream,
                    fields,
                    end_stream,
                } => {
                    if let Some(m) = self.mux.as_mut() {
                        // The head is the block itself, less its `:status`.
                        let head = m.resp.entry(stream).or_insert_with(headless);
                        if let Some(status) = fields.get(":status") {
                            head.status = StatusCode(status.parse().unwrap_or(200));
                        }
                        head.headers = fields;
                        head.headers.remove(":status");
                    }
                    if end_stream {
                        self.mux_complete_stream(ctx, stream);
                    }
                }
                MuxEvent::Data {
                    stream,
                    mut data,
                    end_stream,
                } => {
                    if let Some(m) = self.mux.as_mut() {
                        let body = &mut m.resp.entry(stream).or_insert_with(headless).body;
                        data.drain_into(data.len(), body);
                    }
                    self.mux_streaming_discovery(ctx, stream);
                    if end_stream {
                        self.mux_complete_stream(ctx, stream);
                    }
                }
                MuxEvent::PushPromise {
                    promised, fields, ..
                } => {
                    self.mux_on_push_promise(promised, fields);
                }
                MuxEvent::CancelledData { len, .. } => {
                    // Bytes the server had in flight on a push we refused.
                    self.stats.cancelled_push_bytes += len as u64;
                }
                MuxEvent::Reset { stream, .. } => {
                    // Server abandoned a stream: re-queue ours, drop pushes.
                    let job = self.mux.as_mut().and_then(|m| {
                        m.jobs
                            .remove(&stream)
                            .or_else(|| m.promised.remove(&stream))
                    });
                    if let Some(job) = job {
                        self.stats.retries += 1;
                        self.pending.push_back(job);
                    }
                }
                MuxEvent::ProtocolError(_) => {
                    ctx.abort(sock);
                    self.mux_recover(ctx);
                    return;
                }
            }
        }
        self.mux_push_out(ctx); // WINDOW_UPDATEs and SETTINGS acks
        self.pump(ctx);
        self.maybe_finish(ctx);
    }

    /// Decide whether to accept a promised subresource.
    fn mux_on_push_promise(&mut self, promised: u32, fields: HeaderMap) {
        let path = fields.get(":path").unwrap_or_default().to_string();
        let accept = self.config.mode.push_enabled()
            && !path.is_empty()
            && !self.completed.contains(&path)
            && !self
                .mux
                .as_ref()
                .is_some_and(|m| m.jobs.values().any(|j| j.path == path));
        if !accept {
            if let Some(m) = self.mux.as_mut() {
                m.engine.reset_stream(promised, ERR_CANCEL);
            }
            self.stats.cancelled_pushes += 1;
            return;
        }
        // The push replaces any fetch we were about to issue ourselves.
        self.pending.retain(|j| j.path != path);
        self.discovered.insert(path.clone());
        if let Some(m) = self.mux.as_mut() {
            m.promised.insert(promised, Job::get(path));
        }
    }

    /// A stream finished: synthesize an `httpwire::Response` and run it
    /// through the shared response-processing CPU path.
    fn mux_complete_stream(&mut self, ctx: &mut Ctx<'_>, stream: u32) {
        let Some(m) = self.mux.as_mut() else {
            return;
        };
        let sock = m.sock;
        let resp = m.resp.remove(&stream).unwrap_or_else(headless);
        let pushed = m.promised.contains_key(&stream);
        let Some(job) = m
            .jobs
            .remove(&stream)
            .or_else(|| m.promised.remove(&stream))
        else {
            return; // completion of a stream we already cancelled
        };
        m.first_byte_seen = false;
        if pushed {
            self.stats.pushed_responses += 1;
            self.stats.pushed_bytes += resp.body.len() as u64;
        }
        if ctx.probe_enabled() {
            ctx.probe_span(
                sock,
                SpanEvent::BodyComplete {
                    path: job.path.clone(),
                },
            );
        }
        self.schedule_cpu(
            ctx,
            CpuOp::Proc { job, resp },
            self.config.response_proc_time,
        );
    }

    /// Issue requests for subresources already visible in the partial
    /// HTML body, if `stream` is the one carrying the start page.
    fn mux_streaming_discovery(&mut self, ctx: &mut Ctx<'_>, stream: u32) {
        let Workload::Browse { start } = &self.workload else {
            return;
        };
        let Some(resp) = self
            .mux
            .as_ref()
            .filter(|m| m.jobs.get(&stream).is_some_and(|job| job.path == *start))
            .and_then(|m| m.resp.get(&stream))
        else {
            return;
        };
        let before = self.pending.len();
        let deflated = coding::declared_coding(&resp.headers) == Ok(ContentCoding::Deflate);
        self.page.advance(&resp.body, deflated, false, |src| {
            queue_image(&mut self.discovered, &mut self.pending, src)
        });
        if self.pending.len() > before {
            self.pump(ctx);
        }
    }

    /// The mux connection died with work outstanding: re-queue it all on
    /// a fresh connection.
    pub(super) fn mux_recover(&mut self, ctx: &mut Ctx<'_>) {
        let Some(m) = self.mux.take() else {
            return;
        };
        let outstanding = m.jobs.len() + m.promised.len();
        if outstanding > 0 {
            self.stats.retries += outstanding as u64;
            self.cautious = true;
            // Requests first (stream order), then interrupted pushes —
            // those become ordinary fetches on the new connection.
            for (_, job) in m.promised.into_iter().rev() {
                self.pending.push_front(job);
            }
            for (_, job) in m.jobs.into_iter().rev() {
                self.pending.push_front(job);
            }
        }
        self.pump(ctx);
    }
}
