//! The HTTP robot — the paper's libwww-based client — as a simulated
//! application.
//!
//! Implements the three connection strategies under test (HTTP/1.0 with
//! parallel connections, HTTP/1.1 persistent-serialized, HTTP/1.1
//! buffered pipelining), the request-buffer flush machinery (size
//! threshold, flush timer, explicit application flush), streaming HTML
//! parsing so pipelined image requests are issued while the document is
//! still arriving, deflate content decoding, a persistent cache with
//! HTTP/1.1 validators, and recovery from early server closes (both the
//! graceful half-close and the RST hazard).
//!
//! ## The client CPU model
//!
//! The paper found the client implementation mattered as much as the
//! protocol: libwww's disk-backed persistent cache (two files per object)
//! made building conditional requests and storing responses expensive
//! enough to dominate the initial Table 3 numbers, and the final runs
//! moved it to a memory file system. The robot models this with a single
//! client CPU: constructing each request costs
//! [`ClientConfig::request_gen_time`] and handling each response costs
//! [`ClientConfig::response_proc_time`], both serialized FIFO. Request
//! generation gates transmission; response processing gates the *next*
//! request in serialized modes (and is invisible to packet timing in
//! pipelined mode, exactly as the paper observed).
//!
//! The CPU is a plain queue: each op completes no earlier than the one
//! queued before it (it starts when the CPU is free), and timers due at
//! the same instant fire in the order they were set, so the op whose
//! timer fires is always the oldest.

use crate::cache::{CacheEntry, ClientCache};
use crate::config::{ClientConfig, ProtocolMode, RevalidationStyle, Workload};
use bytes::{BytesMut, BytesQueue};
use httpwire::coding;
use httpwire::validators::Validators;
use httpwire::{ContentCoding, ETag, HttpDate, Method, Request, Response, ResponseParser};
use netsim::sim::{App, AppEvent, Ctx};
use netsim::{FlushCause, SimTime, SocketId, SpanEvent};
use objects::Objects;
use std::collections::VecDeque;
use std::sync::Arc;

mod mux;
mod objects;

/// Flush-timer token (CPU-op tokens start at 1).
const FLUSH_TOKEN: u64 = 0;

/// Reset-backoff timer token (CPU-op tokens count up from 1 and can
/// never reach it).
const BACKOFF_TOKEN: u64 = u64::MAX;

/// The outcome of one fetched object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchRecord {
    /// Request path.
    pub path: Arc<str>,
    /// HTTP status code received.
    pub status: u16,
    /// Decoded entity bytes received (0 for 304 / HEAD).
    pub body_len: usize,
    /// Entity bytes as transferred (differs from `body_len` under
    /// deflate).
    pub wire_body_len: usize,
    /// The entity arrived deflate-coded.
    pub deflated: bool,
    /// True when the fetch was answered `304 Not Modified`.
    pub validated: bool,
}

/// Client-side counters.
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Every completed fetch, in completion order.
    pub fetched: Vec<FetchRecord>,
    /// Requests transmitted (including retries).
    pub requests_sent: u64,
    /// TCP connections opened over the run.
    pub connections_opened: u64,
    /// Requests re-sent after an early server close.
    pub retries: u64,
    /// Connection resets observed.
    pub resets: u64,
    /// Pushed responses accepted into the cache (multiplexed mode).
    pub pushed_responses: u64,
    /// Entity bytes that arrived via accepted pushes.
    pub pushed_bytes: u64,
    /// PUSH_PROMISEs refused with RST_STREAM.
    pub cancelled_pushes: u64,
    /// Wasted wire bytes: push DATA that arrived after we cancelled.
    pub cancelled_push_bytes: u64,
    /// All work completed.
    pub done: bool,
}

impl ClientStats {
    /// Count of 304 responses.
    pub fn validated(&self) -> usize {
        self.fetched.iter().filter(|f| f.validated).count()
    }

    /// Total decoded entity bytes.
    pub fn body_bytes(&self) -> usize {
        self.fetched.iter().map(|f| f.body_len).sum()
    }
}

/// A queued unit of work.
#[derive(Debug, Clone)]
struct Job {
    path: Arc<str>,
    method: Method,
    /// The conditional revisit this request is part of, if any: which of
    /// the cached copy's validators it offers, read when the head is written.
    conditional: Option<RevalidationStyle>,
}

impl Job {
    /// A plain `GET` of `path`.
    fn get(path: Arc<str>) -> Job {
        Job {
            path,
            method: Method::Get,
            conditional: None,
        }
    }
}

/// Work scheduled on the client CPU.
#[derive(Debug)]
enum CpuOp {
    /// Build and transmit a request.
    Gen(Job),
    /// Process a received response.
    Proc {
        /// The fetch this response answers.
        job: Job,
        /// The parsed response.
        resp: Response,
    },
}

#[derive(Debug)]
struct Conn {
    parser: ResponseParser,
    /// Jobs transmitted and awaiting responses (front = next response).
    sent: VecDeque<Job>,
    /// Request bytes not yet flushed to the socket (pipeline buffer).
    reqbuf: BytesMut,
    /// Flushed request batches the socket has not yet accepted.
    outbuf: BytesQueue,
    connected: bool,
    /// Anything has been flushed on this connection yet.
    flushed_any: bool,
    /// This connection's work is done (awaiting close).
    finished: bool,
    /// Requests queued in `reqbuf` since the last flush (probe spans).
    unwritten: u32,
    /// The current front-of-line response has already produced a
    /// `FirstByte` span mark.
    first_byte_seen: bool,
}

impl Conn {
    fn new() -> Conn {
        Conn {
            parser: ResponseParser::new(),
            sent: VecDeque::new(),
            reqbuf: BytesMut::new(),
            outbuf: BytesQueue::new(),
            connected: false,
            flushed_any: false,
            finished: false,
            unwritten: 0,
            first_byte_seen: false,
        }
    }
}

/// The robot's connections, in the order they were opened. A host numbers
/// its sockets as it opens them, so that is `SocketId` order: the order
/// the idle-connection search, flush-all and finish checks visit them in.
#[derive(Debug, Default)]
struct Conns(Vec<(SocketId, Conn)>);

impl Conns {
    fn get(&self, sock: SocketId) -> Option<&Conn> {
        self.0.iter().find(|(s, _)| *s == sock).map(|(_, c)| c)
    }

    fn get_mut(&mut self, sock: SocketId) -> Option<&mut Conn> {
        self.0.iter_mut().find(|(s, _)| *s == sock).map(|(_, c)| c)
    }

    fn open(&mut self, sock: SocketId) {
        debug_assert!(self.0.last().is_none_or(|(s, _)| *s < sock));
        self.0.push((sock, Conn::new()));
    }

    fn remove(&mut self, sock: SocketId) -> Option<Conn> {
        let i = self.0.iter().position(|(s, _)| *s == sock)?;
        Some(self.0.remove(i).1)
    }

    fn values(&self) -> impl Iterator<Item = &Conn> {
        self.0.iter().map(|(_, c)| c)
    }
}

/// The one pass over the start page as it arrives: each wire byte goes
/// through the resumable zlib reader once (if the body is deflated), each
/// page byte through `webcontent::html::walk` once. The reader keeps no
/// page but DEFLATE's 32 KiB window and hands the scan each run it
/// decodes; the walk takes the runs (or an identity body's new bytes,
/// read where they lie) and carries over only the tag it has not seen
/// the end of. The reader wants the stream from its first byte in one
/// slice and a body is chunks, so a deflated body is copied as it
/// arrives: the one copy a received body byte gets, and only this page's.
/// At most one such response is in flight per client, so the client owns
/// the scan, not each connection; it starts over whenever the page's
/// request is placed.
#[derive(Debug, Default)]
struct PageScan {
    /// The deflated wire body and its reader, once the body has declared
    /// the `deflate` coding.
    inflating: Option<Box<Inflating>>,
    /// The page as walked so far.
    page: PageWalk,
    /// Wire body bytes read over the client's life, restarts included.
    /// Counted for the tests only — a field here is paid for by every
    /// client of a fleet.
    #[cfg(test)]
    wire_read: usize,
}

/// A deflated start page being read.
#[derive(Debug, Default)]
struct Inflating {
    /// The wire body so far: copied in as it arrives.
    wire: BytesMut,
    reader: flate::zlib::Decompressor,
}

/// The walk's side of a [`PageScan`]: the page bytes handed to it so far,
/// in runs, and what it found in them.
#[derive(Debug, Default)]
struct PageWalk {
    /// Page bytes handed over: the decoded length so far.
    len: usize,
    /// The page from the first `<` the walk could not finish yet — a tag,
    /// comment or declaration whose end has not arrived — to the end of
    /// what has.
    carry: BytesMut,
    /// The `src` of every `<img>` walked past, in document order: the
    /// cache's `embedded` list once the page is complete.
    sources: Vec<Arc<str>>,
    /// Page bytes walked past over the client's life, restarts included;
    /// for the tests only, like [`PageScan::wire_read`].
    #[cfg(test)]
    walked: usize,
}

impl PageWalk {
    /// Walk `run`, the page bytes that follow those handed over before.
    fn take(&mut self, mut run: &[u8], found: &mut impl FnMut(&str) -> Arc<str>) {
        self.len += run.len();
        // A carried tag is finished first: the run's bytes move across to
        // it up to each `>` in turn until the walk gets past it.
        while !self.carry.is_empty() && !run.is_empty() {
            let take = bytes::find_byte(run, b'>').map_or(run.len(), |gt| gt + 1);
            self.carry.extend_from_slice(&run[..take]);
            run = &run[take..];
            let used = self.walk(false, found);
            self.carry.advance(used);
        }
        if self.carry.is_empty() {
            let used = walk_sources(run, false, &mut self.sources, found);
            self.count(used);
            self.carry.extend_from_slice(&run[used..]);
        }
    }

    /// The page is complete: walk what is carried as its end.
    fn finish(&mut self, found: &mut impl FnMut(&str) -> Arc<str>) {
        self.walk(true, found);
        self.carry.clear();
    }

    /// Start the page over, giving up the sources found.
    fn reset(&mut self) -> Vec<Arc<str>> {
        self.len = 0;
        self.carry.clear();
        std::mem::take(&mut self.sources)
    }

    /// Walk the carry, returning how far the walk got.
    fn walk(&mut self, at_end: bool, found: &mut impl FnMut(&str) -> Arc<str>) -> usize {
        let used = walk_sources(&self.carry, at_end, &mut self.sources, found);
        self.count(used);
        used
    }

    fn count(&mut self, _walked: usize) {
        #[cfg(test)]
        {
            self.walked += _walked;
        }
    }
}

/// [`webcontent::html::walk`] over `page`, adding to `sources` what
/// `found` keeps for each image source passed.
fn walk_sources(
    page: &[u8],
    at_end: bool,
    sources: &mut Vec<Arc<str>>,
    found: &mut impl FnMut(&str) -> Arc<str>,
) -> usize {
    webcontent::html::walk(page, at_end, |token| {
        if let Some(src) = webcontent::html::image_source(&token) {
            sources.push(found(&src));
        }
    })
}

/// The chunks of `body` past its first `skip` bytes.
fn new_runs(body: &BytesQueue, mut skip: usize) -> impl Iterator<Item = &[u8]> {
    body.chunks().filter_map(move |chunk| {
        let new = &chunk[skip.min(chunk.len())..];
        skip = skip.saturating_sub(chunk.len());
        (!new.is_empty()).then_some(new)
    })
}

impl PageScan {
    /// Take in what is new of `body`, the page's body as received so far
    /// — all of it when `at_end` — calling `found` with each image source
    /// passed, which returns the path to keep for it. Returns the decoded
    /// length so far.
    ///
    /// Mid-stream a coded body that will not decode shows nothing more.
    /// At the end it gets the forgiving reading a finished response
    /// always got (a raw DEFLATE stream, else the bytes as sent), read
    /// from the response body and walked from the top.
    fn advance(
        &mut self,
        body: &BytesQueue,
        deflated: bool,
        at_end: bool,
        mut found: impl FnMut(&str) -> Arc<str>,
    ) -> usize {
        let page = &mut self.page;
        if deflated {
            let Inflating { wire, reader } = &mut **self.inflating.get_or_insert_with(Box::default);
            for run in new_runs(body, wire.len()) {
                wire.extend_from_slice(run);
            }
            #[cfg(test)]
            let before = reader.consumed();
            let read = reader.advance(wire, at_end, |run| page.take(run, &mut found));
            #[cfg(test)]
            {
                self.wire_read += reader.consumed() - before;
            }
            match read {
                Ok(()) => {}
                Err(_) if !at_end => return 0,
                Err(_) => {
                    page.reset();
                    body.with_prefix(body.len(), |wire| {
                        match coding::decode(ContentCoding::Deflate, wire) {
                            Ok(forgiven) => page.take(&forgiven, &mut found),
                            Err(_) => page.take(wire, &mut found),
                        }
                    });
                }
            }
        } else {
            // An identity body's page bytes are its wire bytes.
            for run in new_runs(body, page.len) {
                #[cfg(test)]
                {
                    self.wire_read += run.len();
                }
                page.take(run, &mut found);
            }
        }
        if at_end {
            page.finish(&mut found);
        }
        page.len
    }

    /// Forget the body being read — it is complete, or its connection is
    /// gone — and give up the sources found in it.
    fn restart(&mut self) -> Vec<Arc<str>> {
        if let Some(mut inflating) = self.inflating.take() {
            inflating.wire.clear(); // its storage back to the pool
        }
        self.page.reset()
    }
}

/// The robot application. Install on a host with
/// `sim.install_app(host, Box::new(client))`; read results back through
/// [`HttpClient::stats`] after the run.
pub struct HttpClient {
    config: ClientConfig,
    workload: Workload,
    /// The persistent cache (primed by revalidation experiments).
    pub cache: ClientCache,
    /// Work not yet assigned to a connection.
    pending: VecDeque<Job>,
    /// Every object named so far: its one path, and whether it has been
    /// discovered and completed.
    objects: Objects,
    conns: Conns,
    /// The single connection used by the 1.1 modes.
    main_conn: Option<SocketId>,
    /// The single framed connection used by the multiplexed mode.
    mux: Option<mux::MuxState>,
    /// The start-page response being read, if one is.
    page: PageScan,
    /// The HTML page has fully arrived and been parsed.
    discovery_complete: bool,
    flush_armed: bool,
    /// A reset-backoff pause is in progress: no new requests go out
    /// until its timer fires.
    backoff_armed: bool,
    /// After an unexpected connection loss the client stops pipelining
    /// until one response completes on the fresh connection: without this
    /// a server that resets mid-pipeline (the naive-close hazard) can
    /// livelock a client that always re-pipelines the full batch.
    cautious: bool,
    /// Client CPU: outstanding ops, oldest first. The oldest op's timer
    /// token is `next_token - cpu_ops.len()`.
    cpu_ops: VecDeque<CpuOp>,
    next_token: u64,
    cpu_busy: SimTime,
    /// A request-generation op is in flight (they are strictly serial).
    gen_scheduled: bool,
    /// Run statistics.
    pub stats: ClientStats,
}

impl HttpClient {
    /// Create a new, empty instance.
    pub fn new(config: ClientConfig, workload: Workload) -> HttpClient {
        HttpClient::with_cache(config, workload, ClientCache::new())
    }

    /// Create with a primed cache (revalidation experiments).
    pub fn with_cache(config: ClientConfig, workload: Workload, cache: ClientCache) -> HttpClient {
        HttpClient {
            config,
            workload,
            cache,
            pending: VecDeque::new(),
            objects: Objects::default(),
            conns: Conns::default(),
            main_conn: None,
            mux: None,
            page: PageScan::default(),
            discovery_complete: false,
            flush_armed: false,
            backoff_armed: false,
            cautious: false,
            cpu_ops: VecDeque::new(),
            next_token: 1,
            cpu_busy: SimTime::ZERO,
            gen_scheduled: false,
            stats: ClientStats::default(),
        }
    }

    /// The configuration this client runs with.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Workload expansion
    // ------------------------------------------------------------------

    fn expand_workload(&mut self) {
        match &self.workload {
            Workload::Browse { start } => {
                let start = self.objects.name(start, &self.cache);
                self.pending.push_back(Job::get(start.path.clone()));
                // Images are discovered from the arriving HTML.
            }
            Workload::Revalidate { start, style } => {
                let style = *style;
                self.discovery_complete = true;
                let embedded = self.cache.get(start).map_or(&[][..], |e| &e.embedded);
                self.objects.reserve(1 + embedded.len());
                // IE's profile re-fetches the page unconditionally; old
                // libwww 4.1D (`HeadRequests`, which has no conditionals)
                // sends a plain GET for the page and HEAD for every image.
                let (method, conditional) = match style {
                    RevalidationStyle::HeadRequests => (Method::Head, None),
                    _ => (Method::Get, Some(style)),
                };
                let mut page = Job::get(self.objects.name(start, &self.cache).path.clone());
                if style != RevalidationStyle::ConditionalGetDateFullHtml {
                    page.conditional = conditional;
                }
                self.pending.push_back(page);
                for path in embedded {
                    let object = self.objects.entry(path, || path.clone());
                    self.pending.push_back(Job {
                        path: object.path.clone(),
                        method,
                        conditional,
                    });
                }
            }
            Workload::FetchList { paths } => {
                self.discovery_complete = true;
                self.objects.reserve(paths.len());
                for path in paths {
                    let path = self.objects.name(path, &self.cache).path.clone();
                    self.pending.push_back(Job::get(path));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The client CPU
    // ------------------------------------------------------------------

    fn schedule_cpu(&mut self, ctx: &mut Ctx<'_>, op: CpuOp, cost: netsim::SimDuration) {
        let now = ctx.now();
        let start = self.cpu_busy.max(now);
        let done = start + cost;
        self.cpu_busy = done;
        let token = self.next_token;
        self.next_token += 1;
        self.cpu_ops.push_back(op);
        ctx.set_timer(token, done.since(now));
    }

    /// Start generating the next request if the mode allows it.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        if self.gen_scheduled || self.backoff_armed {
            return;
        }
        if self.pending.is_empty() {
            self.maybe_finish(ctx);
            return;
        }
        let allowed = match self.config.mode {
            ProtocolMode::Http11Pipelined => {
                // Open the connection early so the handshake overlaps
                // request generation.
                self.ensure_main_conn(ctx);
                if self.cautious {
                    // Recovering from a lost connection: serialize until
                    // one response survives.
                    let sock = self.main_conn.unwrap();
                    self.conns.get(sock).expect("live conn").sent.is_empty()
                } else {
                    true
                }
            }
            ProtocolMode::Http11Persistent => {
                self.ensure_main_conn(ctx);
                let sock = self.main_conn.unwrap();
                self.conns.get(sock).expect("live conn").sent.is_empty()
            }
            ProtocolMode::Http10Parallel { max_connections } => {
                // A slot is free, or an idle Keep-Alive connection can be
                // reused.
                self.active_conns() < max_connections || self.has_idle_conn()
            }
            ProtocolMode::Multiplexed { .. } => {
                // Streams are concurrent; open the connection early so the
                // handshake overlaps request generation.
                self.mux_ensure_conn(ctx);
                self.mux_may_issue()
            }
        };
        if allowed {
            let job = self.pending.pop_front().unwrap();
            self.gen_scheduled = true;
            self.schedule_cpu(ctx, CpuOp::Gen(job), self.config.request_gen_time);
        }
    }

    fn active_conns(&self) -> usize {
        self.conns.values().filter(|c| !c.finished).count()
    }

    /// An established Keep-Alive connection with nothing outstanding.
    fn has_idle_conn(&self) -> bool {
        self.conns
            .values()
            .any(|c| !c.finished && c.connected && c.sent.is_empty() && c.reqbuf.is_empty())
    }

    fn ensure_main_conn(&mut self, ctx: &mut Ctx<'_>) {
        let alive = matches!(self.main_conn, Some(s) if self.conns.get(s).is_some());
        if !alive {
            let s = self.open_conn(ctx);
            self.main_conn = Some(s);
        }
    }

    /// A generated request is ready: place it on a connection.
    fn place_request(&mut self, ctx: &mut Ctx<'_>, job: Job) {
        if self.is_start_page(&job.path) {
            // Whatever was read of an earlier answer will never complete.
            self.page.restart();
        }
        match self.config.mode {
            ProtocolMode::Http11Pipelined => {
                self.ensure_main_conn(ctx);
                let sock = self.main_conn.unwrap();
                self.queue_request(ctx, sock, job);
                let conn = self.conns.get(sock).expect("live conn");
                let buffered = conn.reqbuf.len();
                let first_flush = !conn.flushed_any;
                if buffered >= self.config.pipeline_buffer {
                    self.flush_requests(ctx, sock, FlushCause::Buffer);
                } else if self.config.app_flush && first_flush {
                    // The paper's tuning: force the first (HTML) request
                    // out immediately.
                    self.flush_requests(ctx, sock, FlushCause::App);
                } else if self.config.app_flush
                    && self.discovery_complete
                    && self.pending.is_empty()
                {
                    // No more requests can ever join this batch.
                    self.flush_requests(ctx, sock, FlushCause::App);
                } else {
                    self.arm_flush_timer(ctx);
                }
            }
            ProtocolMode::Http11Persistent => {
                self.ensure_main_conn(ctx);
                let sock = self.main_conn.unwrap();
                self.queue_request(ctx, sock, job);
                self.flush_requests(ctx, sock, FlushCause::App);
            }
            ProtocolMode::Http10Parallel { .. } => {
                // Prefer an idle keep-alive connection, else open one.
                let idle = self
                    .conns
                    .0
                    .iter()
                    .find(|(_, c)| !c.finished && c.connected && c.sent.is_empty())
                    .map(|(s, _)| *s);
                let sock = idle.unwrap_or_else(|| self.open_conn(ctx));
                self.queue_request(ctx, sock, job);
                self.flush_requests(ctx, sock, FlushCause::App);
            }
            ProtocolMode::Multiplexed { .. } => {
                self.mux_place(ctx, job);
            }
        }
    }

    // ------------------------------------------------------------------
    // Request transmission
    // ------------------------------------------------------------------

    fn build_request(&self, job: &Job) -> Request {
        let mut req = self.config.style.request(
            job.method,
            &job.path,
            self.config.mode.version(),
            &self.config.host,
        );
        // Transport compression is negotiated for documents, not for
        // already-compressed image formats.
        if self.config.accept_deflate && is_html_path(&job.path) {
            req.headers.append("Accept-Encoding", "deflate");
        }
        self.finish_request(job, req)
    }

    /// What a request ends with on every transport: the job's conditional,
    /// resolved against the cache, and the experiment's fixed headers.
    fn finish_request(&self, job: &Job, mut req: Request) -> Request {
        if let (Some(style), Some(entry)) = (job.conditional, self.cache.get(&job.path)) {
            let validators = &entry.validators;
            if style == RevalidationStyle::ConditionalGetEtag {
                if let Some(etag) = &validators.etag {
                    req.headers.append("If-None-Match", etag);
                }
            } else if let Some(modified) = validators.last_modified {
                req.headers.append("If-Modified-Since", HttpDate(modified));
            }
        }
        for (name, value) in &self.config.extra_headers {
            req.headers.append(name, value);
        }
        req
    }

    /// Append a job's request to a connection's pipeline buffer.
    fn queue_request(&mut self, ctx: &mut Ctx<'_>, sock: SocketId, job: Job) {
        if ctx.probe_enabled() {
            ctx.probe_span(
                sock,
                SpanEvent::RequestQueued {
                    path: job.path.clone(),
                },
            );
        }
        let req = self.build_request(&job);
        let conn = self.conns.get_mut(sock).expect("live conn");
        conn.parser.expect(job.method);
        // Straight into the batch being gathered (or opening one).
        req.write_to(&mut conn.reqbuf);
        conn.sent.push_back(job);
        conn.unwritten += 1;
        self.stats.requests_sent += 1;
    }

    /// Push already-flushed bytes into the socket.
    fn push_out(&mut self, ctx: &mut Ctx<'_>, sock: SocketId) {
        let Some(conn) = self.conns.get_mut(sock) else {
            return;
        };
        if !conn.connected {
            return; // transmitted on Connected
        }
        ctx.send_from(sock, &mut conn.outbuf);
    }

    /// Flush decision taken: move the request buffer to the socket.
    fn flush_requests(&mut self, ctx: &mut Ctx<'_>, sock: SocketId, cause: FlushCause) {
        let Some(conn) = self.conns.get_mut(sock) else {
            return;
        };
        if !conn.reqbuf.is_empty() {
            conn.outbuf
                .push(std::mem::take(&mut conn.reqbuf).freeze_pooled());
            conn.flushed_any = true;
            let count = std::mem::take(&mut conn.unwritten);
            ctx.probe_span(sock, SpanEvent::RequestWritten { count, cause });
        }
        self.push_out(ctx, sock);
    }

    fn flush_all(&mut self, ctx: &mut Ctx<'_>, cause: FlushCause) {
        // Flushing neither opens nor drops a connection.
        for i in 0..self.conns.0.len() {
            self.flush_requests(ctx, self.conns.0[i].0, cause);
        }
    }

    fn arm_flush_timer(&mut self, ctx: &mut Ctx<'_>) {
        if !self.flush_armed {
            self.flush_armed = true;
            ctx.set_timer(FLUSH_TOKEN, self.config.flush_timeout);
        }
    }

    fn open_conn(&mut self, ctx: &mut Ctx<'_>) -> SocketId {
        let sock = ctx.connect(self.config.server);
        ctx.set_nodelay(sock, self.config.nodelay);
        self.conns.open(sock);
        self.stats.connections_opened += 1;
        sock
    }

    /// All work complete? Then half-close everything and mark done.
    fn maybe_finish(&mut self, ctx: &mut Ctx<'_>) {
        if self.stats.done
            || self.gen_scheduled
            || !self.pending.is_empty()
            || !self.discovery_complete
            || self.conns.values().any(|c| !c.sent.is_empty())
            || self.mux_outstanding()
        {
            return;
        }
        self.stats.done = true;
        for &(s, _) in &self.conns.0 {
            ctx.shutdown_write(s);
        }
        if let Some(s) = self.mux_sock() {
            ctx.shutdown_write(s);
        }
    }

    // ------------------------------------------------------------------
    // Response handling
    // ------------------------------------------------------------------

    /// Complete processing of a response (runs after the CPU proc delay).
    fn handle_response(&mut self, ctx: &mut Ctx<'_>, job: Job, resp: Response) {
        // A completed response proves the path works again.
        self.cautious = false;
        let deflated = coding::declared_coding(&resp.headers) == Ok(ContentCoding::Deflate);
        let mut embedded = Vec::new();
        let body_len = if self.is_start_page(&job.path) {
            // The scan has read all but the last piece already: finish it.
            let browsing = matches!(self.workload, Workload::Browse { .. });
            let len = self.page.advance(&resp.body, deflated, true, |src| {
                if browsing {
                    queue_image(&mut self.objects, &self.cache, &mut self.pending, src)
                } else {
                    self.objects.name(src, &self.cache).path.clone()
                }
            });
            self.discovery_complete = true;
            embedded = self.page.restart();
            len
        } else if deflated {
            let wire = resp.body.len();
            resp.body.with_prefix(wire, |body| {
                coding::decode(ContentCoding::Deflate, body).map_or(wire, |b| b.len())
            })
        } else {
            resp.body.len()
        };

        // Update the cache from the response validators.
        if resp.status.0 == 200 {
            let etag = resp.headers.get("ETag").and_then(ETag::parse);
            let last_modified = resp
                .headers
                .get("Last-Modified")
                .and_then(httpwire::parse_http_date);
            self.cache.insert(
                job.path.clone(),
                CacheEntry {
                    validators: Validators {
                        etag,
                        last_modified,
                    },
                    body_len,
                    embedded,
                },
            );
        }
        self.objects.entry(&job.path, || job.path.clone()).completed = true;
        self.stats.fetched.push(FetchRecord {
            path: job.path,
            status: resp.status.0,
            body_len,
            wire_body_len: resp.body.len(),
            deflated,
            validated: resp.status.0 == 304,
        });

        self.pump(ctx);
        self.maybe_finish(ctx);
    }

    fn is_start_page(&self, path: &str) -> bool {
        match &self.workload {
            Workload::Browse { start } | Workload::Revalidate { start, .. } => start == path,
            Workload::FetchList { .. } => false,
        }
    }

    /// Streaming discovery: look at the in-progress HTML response and
    /// queue requests for images already visible (the caller pumps).
    fn streaming_discovery(&mut self, sock: SocketId) {
        let Workload::Browse { start } = &self.workload else {
            return;
        };
        // Only the front-of-line response can be in progress; discovery
        // applies when that is the start page.
        let Some((headers, partial)) = self
            .conns
            .get_mut(sock)
            .filter(|conn| conn.sent.front().is_some_and(|job| *job.path == **start))
            .and_then(|conn| conn.parser.in_progress())
        else {
            return;
        };
        // `page`, `objects`, `cache` and `pending` are disjoint fields from
        // `conns`, so the scan takes what is new of the body while it is
        // still borrowed from there.
        let deflated = coding::declared_coding(headers) == Ok(ContentCoding::Deflate);
        self.page.advance(partial, deflated, false, |src| {
            queue_image(&mut self.objects, &self.cache, &mut self.pending, src)
        });
    }

    /// Server went away with requests outstanding: requeue and retry.
    fn recover_outstanding(&mut self, ctx: &mut Ctx<'_>, sock: SocketId) {
        let Some(mut conn) = self.conns.remove(sock) else {
            return;
        };
        if self.main_conn == Some(sock) {
            self.main_conn = None;
        }
        // Parse anything already buffered first (data that survived),
        // scheduling normal response processing for it.
        while let Ok(Some(resp)) = conn.parser.next() {
            if let Some(job) = conn.sent.pop_front() {
                self.schedule_cpu(
                    ctx,
                    CpuOp::Proc { job, resp },
                    self.config.response_proc_time,
                );
            }
        }
        let outstanding = conn.sent.len();
        if outstanding > 0 {
            self.stats.retries += outstanding as u64;
            self.cautious = true;
            for job in conn.sent.into_iter().rev() {
                self.pending.push_front(job);
            }
        }
        self.pump(ctx);
    }

    fn on_readable(&mut self, ctx: &mut Ctx<'_>, sock: SocketId) {
        let data = ctx.recv(sock, usize::MAX);
        let Some(conn) = self.conns.get_mut(sock) else {
            return;
        };
        if !data.is_empty() && !conn.sent.is_empty() && !conn.first_byte_seen {
            conn.first_byte_seen = true;
            ctx.probe_span(sock, SpanEvent::FirstByte);
        }
        conn.parser.push(data);
        loop {
            let Some(conn) = self.conns.get_mut(sock) else {
                return;
            };
            match conn.parser.next() {
                Ok(Some(resp)) => {
                    let Some(job) = conn.sent.pop_front() else {
                        break; // unsolicited response; drop
                    };
                    conn.first_byte_seen = false;
                    if ctx.probe_enabled() {
                        ctx.probe_span(
                            sock,
                            SpanEvent::BodyComplete {
                                path: job.path.clone(),
                            },
                        );
                    }
                    // HTTP/1.0 semantics: without keep-alive the server
                    // will close after this response.
                    if !resp.keeps_alive() {
                        conn.finished = true;
                    }
                    self.schedule_cpu(
                        ctx,
                        CpuOp::Proc { job, resp },
                        self.config.response_proc_time,
                    );
                }
                Ok(None) => break,
                Err(_) => {
                    // Malformed response: abandon the connection.
                    ctx.abort(sock);
                    self.recover_outstanding(ctx, sock);
                    return;
                }
            }
        }
        self.streaming_discovery(sock);
        self.pump(ctx);
        self.maybe_finish(ctx);
    }
}

/// Does a path name an HTML document (transport compression applies)?
fn is_html_path(path: &str) -> bool {
    path.ends_with(".html") || path.ends_with(".htm") || path.ends_with('/')
}

/// Queue a fetch for an image reference unless one already was, and
/// return the image's one path. Only a source no one has named yet
/// allocates: its path, once.
fn queue_image(
    objects: &mut Objects,
    cache: &ClientCache,
    pending: &mut VecDeque<Job>,
    src: &str,
) -> Arc<str> {
    let object = objects.name(src, cache);
    if !object.discovered {
        object.discovered = true;
        pending.push_back(Job::get(object.path.clone()));
    }
    object.path.clone()
}

impl App for HttpClient {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent) {
        match event {
            AppEvent::Start => {
                self.expand_workload();
                self.pump(ctx);
            }
            AppEvent::Connected(s) => {
                if self.mux_sock() == Some(s) {
                    self.mux_on_connected(ctx);
                    return;
                }
                if let Some(conn) = self.conns.get_mut(s) {
                    conn.connected = true;
                }
                // Flush-decided bytes accumulated during the handshake go
                // out now; the request buffer keeps waiting for its flush
                // decision.
                self.push_out(ctx, s);
            }
            AppEvent::Readable(s) => {
                if self.mux_sock() == Some(s) {
                    self.mux_on_readable(ctx);
                    return;
                }
                self.on_readable(ctx, s);
            }
            AppEvent::Timer(FLUSH_TOKEN) => {
                debug_assert!(self.flush_armed);
                self.flush_armed = false;
                // Reaching the backstop timer means the application missed
                // a flush opportunity — the paper's extra-RTT bug.
                self.flush_all(ctx, FlushCause::Timer);
            }
            AppEvent::Timer(BACKOFF_TOKEN) => {
                debug_assert!(self.backoff_armed);
                self.backoff_armed = false;
                self.pump(ctx);
                self.maybe_finish(ctx);
            }
            AppEvent::Timer(token) => {
                let oldest = self.next_token - self.cpu_ops.len() as u64;
                debug_assert_eq!(token, oldest, "CPU ops complete in the order queued");
                match self.cpu_ops.pop_front() {
                    Some(CpuOp::Gen(job)) => {
                        self.gen_scheduled = false;
                        if self.backoff_armed {
                            // A reset landed while this request was being
                            // built: hold it until the backoff expires.
                            self.pending.push_front(job);
                        } else {
                            self.place_request(ctx, job);
                            self.pump(ctx);
                        }
                    }
                    Some(CpuOp::Proc { job, resp }) => {
                        self.handle_response(ctx, job, resp);
                    }
                    None => {}
                }
            }
            AppEvent::SendSpace(s) => {
                if self.mux_sock() == Some(s) {
                    self.mux_push_out(ctx);
                } else {
                    self.push_out(ctx, s);
                }
            }
            AppEvent::PeerFin(s) if self.mux_sock() == Some(s) => {
                // Server half-closed the framed connection.
                ctx.shutdown_write(s);
                if self.mux_outstanding() {
                    // Streams died unanswered: retry on a fresh connection.
                    self.mux_recover(ctx);
                }
                self.maybe_finish(ctx);
            }
            AppEvent::PeerFin(s) => {
                // Flush any close-delimited response.
                let flushed = self
                    .conns
                    .get_mut(s)
                    .and_then(|conn| match conn.parser.finish() {
                        Ok(Some(resp)) => conn.sent.pop_front().map(|job| (job, resp)),
                        _ => None,
                    });
                if let Some((job, resp)) = flushed {
                    if ctx.probe_enabled() {
                        ctx.probe_span(
                            s,
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
                let outstanding = self
                    .conns
                    .get(s)
                    .map(|c| !c.sent.is_empty())
                    .unwrap_or(false);
                if outstanding {
                    // Early close with requests unanswered: retry on a
                    // fresh connection.
                    ctx.shutdown_write(s);
                    self.recover_outstanding(ctx, s);
                } else {
                    ctx.shutdown_write(s);
                    if let Some(conn) = self.conns.get_mut(s) {
                        conn.finished = true;
                    }
                    self.pump(ctx);
                }
                self.maybe_finish(ctx);
            }
            AppEvent::Reset(s) => {
                self.stats.resets += 1;
                if self.config.reset_backoff > netsim::SimDuration::ZERO && !self.backoff_armed {
                    self.backoff_armed = true;
                    ctx.set_timer(BACKOFF_TOKEN, self.config.reset_backoff);
                }
                if self.mux_sock() == Some(s) {
                    self.mux_recover(ctx);
                } else {
                    self.recover_outstanding(ctx, s);
                }
            }
            AppEvent::Closed(s) if self.mux_sock() == Some(s) => {
                if self.mux_outstanding() {
                    self.mux_recover(ctx);
                } else {
                    self.mux = None;
                    self.pump(ctx);
                }
            }
            AppEvent::Closed(s) => {
                let had_outstanding = self
                    .conns
                    .get(s)
                    .map(|c| !c.sent.is_empty())
                    .unwrap_or(false);
                if had_outstanding {
                    self.recover_outstanding(ctx, s);
                } else {
                    self.conns.remove(s);
                    if self.main_conn == Some(s) {
                        self.main_conn = None;
                    }
                    self.pump(ctx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flate::Level;
    use httpserver::{Entity, HttpServer, ServerConfig, SiteStore};
    use netsim::{LinkConfig, SimDuration, Simulator, SockAddr};
    use std::collections::BTreeMap;

    #[test]
    fn html_path_detection() {
        assert!(is_html_path("/index.html"));
        assert!(is_html_path("/docs/page.htm"));
        assert!(is_html_path("/"));
        assert!(!is_html_path("/images/logo.gif"));
        assert!(!is_html_path("/data.bin"));
    }

    #[test]
    fn image_source_extraction() {
        let html = br#"<body><img src="/a.gif"><IMG SRC="/b.gif"></body>"#;
        let mut scan = PageScan::default();
        let body = BytesQueue::from(html.to_vec());
        assert_eq!(scan.advance(&body, false, true, |s| s.into()), html.len());
        assert_eq!(scan.restart(), [Arc::from("/a.gif"), Arc::from("/b.gif")]);
    }

    /// What the scan shows after each piece of `wire` — the page's body
    /// as sent, `deflated` or not — arrives, the last with `at_end`: the
    /// bytes received, the sources found, the decoded length. `joined`
    /// pieces are views of one storage (so the body is one chunk), the
    /// others copies (a chunk each).
    fn scan_steps(
        wire: &[u8],
        deflated: bool,
        joined: bool,
        mut piece: impl FnMut() -> usize,
    ) -> Vec<(usize, Vec<Arc<str>>, usize)> {
        let (mut scan, mut body, mut steps) = (PageScan::default(), BytesQueue::new(), Vec::new());
        let all = bytes::Bytes::copy_from_slice(wire);
        let mut received = 0;
        while received < wire.len() {
            let end = (received + piece()).min(wire.len());
            body.push(match joined {
                true => all.slice(received..end),
                false => bytes::Bytes::copy_from_slice(&wire[received..end]),
            });
            received = end;
            let len = scan.advance(&body, deflated, end == wire.len(), |src| src.into());
            steps.push((received, scan.page.sources.clone(), len));
        }
        steps
    }

    /// The same steps as a scan that holds the whole output would show
    /// them: after `received` wire bytes the page is `decoded[received]`
    /// bytes long, and the sources are those a walk of that prefix
    /// passes — the whole page's, read as its end, once all has arrived.
    fn whole_output_steps(
        html: &[u8],
        wire_len: usize,
        decoded: &[usize],
        steps: &[(usize, Vec<Arc<str>>, usize)],
    ) -> Vec<(usize, Vec<Arc<str>>, usize)> {
        let mut found_at = Vec::with_capacity(html.len() + 1);
        let (mut cursor, mut sources) = (0, Vec::new());
        for cut in 0..=html.len() {
            cursor += walk_sources(&html[cursor..cut], false, &mut sources, &mut |s| s.into());
            found_at.push(sources.len());
        }
        walk_sources(&html[cursor..], true, &mut sources, &mut |s| s.into());
        let found = |received: usize| match received == wire_len {
            true => sources.clone(),
            false => sources[..found_at[decoded[received]]].to_vec(),
        };
        let each = steps.iter().map(|&(received, ..)| received);
        each.map(|received| (received, found(received), decoded[received]))
            .collect()
    }

    #[test]
    fn the_scan_finds_each_source_after_the_same_bytes_as_a_whole_output_scan() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let html = webcontent::microscape::site().html.as_bytes();
        let codings = [
            None,
            Some(Level::Store),
            Some(Level::Fast),
            Some(Level::Default),
            Some(Level::Best),
        ];
        let mut rng = SmallRng::seed_from_u64(1997);
        for coding in codings {
            let (wire, decoded) = match coding {
                None => (html.to_vec(), (0..=html.len()).collect()),
                Some(level) => {
                    // After every prefix of the stream, what a one-byte-at-a-time
                    // reader has decoded.
                    let wire = flate::zlib::compress(html, level);
                    let (mut reader, mut decoded, mut len) =
                        (flate::zlib::Decompressor::default(), vec![0], 0);
                    for end in 1..=wire.len() {
                        let read =
                            reader.advance(&wire[..end], end == wire.len(), |run| len += run.len());
                        read.expect("a good stream");
                        decoded.push(len);
                    }
                    (wire, decoded)
                }
            };
            let deflated = coding.is_some();
            for (size, joined) in [
                (1, true),
                (7, false),
                (536, false),
                (1460, true),
                (0, false),
                (0, true),
            ] {
                let steps = scan_steps(&wire, deflated, joined, || match size {
                    0 => rng.gen_range(1..3000),
                    size => size,
                });
                let want = whole_output_steps(html, wire.len(), &decoded, &steps);
                assert!(steps == want, "{coding:?} in pieces of {size}");
                assert_eq!(steps.last().unwrap().2, html.len());
            }
        }
    }

    #[test]
    fn a_bad_stream_at_the_end_gets_the_forgiving_reading_of_the_body() {
        let html = webcontent::microscape::site().html.as_bytes();
        let good = flate::zlib::compress(html, Level::Default);
        let mut bad_trailer = good.clone();
        *bad_trailer.last_mut().unwrap() ^= 1;
        let cut_short = &good[..good.len() - 9];
        for wire in [&bad_trailer[..], cut_short] {
            // The verdict, and the reading a finished response falls back on.
            assert!(flate::zlib::decompress(wire).is_err());
            let forgiven =
                coding::decode(ContentCoding::Deflate, wire).unwrap_or_else(|_| wire.to_vec());
            let mut sources = Vec::new();
            walk_sources(&forgiven, true, &mut sources, &mut |s| s.into());
            for size in [1, 536, 1460] {
                let steps = scan_steps(wire, true, size == 1, || size);
                let last = steps.last().unwrap();
                assert_eq!(
                    (last.0, &last.1, last.2),
                    (wire.len(), &sources, forgiven.len())
                );
                // Up to the end the stream reads as the good one does.
                let good_steps = scan_steps(&good, true, size == 1, || size);
                let n = steps.len() - 1;
                assert!(steps[..n] == good_steps[..n], "pieces of {size}");
            }
        }
    }

    /// The images the cached start page lists.
    fn embedded(client: &HttpClient) -> Vec<&str> {
        let page = client.cache.get("/index.html").expect("page cached");
        page.embedded.iter().map(|path| &**path).collect()
    }

    /// Browse `/index.html` on `server` over `link` until the run is idle,
    /// then look at the client.
    fn browse(
        link: LinkConfig,
        server: Box<dyn App>,
        config: impl FnOnce(SockAddr) -> ClientConfig,
        check: impl FnOnce(&HttpClient),
    ) {
        let mut sim = Simulator::new();
        let client_host = sim.add_host("client");
        let server_host = sim.add_host("server");
        sim.add_link(client_host, server_host, link);
        sim.install_app(server_host, server);
        let start = "/index.html".to_string();
        let client = HttpClient::new(
            config(SockAddr::new(server_host, 80)),
            Workload::Browse { start },
        );
        sim.install_app(client_host, Box::new(client));
        sim.run_until_idle();
        check(sim.app_mut::<HttpClient>(client_host).unwrap());
    }

    #[test]
    fn each_page_byte_is_walked_and_inflated_once() {
        // The Microscape page over a modem arrives in dozens of segments
        // (DATA frames, on the framed transport). However many, the scan
        // has walked each page byte once and read each wire byte once.
        let site = webcontent::microscape::site();
        let mut store = SiteStore::new();
        let page = Entity::new(site.html.clone().into_bytes(), "text/html", 1000);
        store.insert("/index.html", page.with_deflate());
        for image in &site.images {
            let body = image.body.clone();
            store.insert(&image.path, Entity::new(body, image.content_type, 1000));
        }
        let store = store.into_shared();
        for (mode, deflate) in [
            (ProtocolMode::Http11Pipelined, true),
            (ProtocolMode::Multiplexed { push: false }, false),
        ] {
            let server =
                HttpServer::new(ServerConfig::apache(80).with_deflate(true), store.clone());
            let config = |addr| ClientConfig::robot(mode, addr).with_deflate(deflate);
            browse(LinkConfig::ppp(), Box::new(server), config, |client| {
                assert!(client.stats.done, "{mode:?}");
                assert_eq!(
                    client.stats.fetched.len(),
                    1 + site.images.len(),
                    "{mode:?}"
                );
                let page = &client.stats.fetched[0];
                assert_eq!((&*page.path, page.deflated), ("/index.html", deflate));
                assert_eq!(page.body_len, site.html.len(), "{mode:?}");
                assert_eq!(page.wire_body_len < page.body_len, deflate, "{mode:?}");
                let each_once = (page.body_len, page.wire_body_len);
                let work = (client.page.page.walked, client.page.wire_read);
                assert_eq!(work, each_once, "{mode:?}");
                assert_eq!(
                    embedded(client),
                    webcontent::html::inline_image_sources(&site.html),
                    "{mode:?}"
                );
            });
        }
    }

    /// A server whose first answer for the page is an older, longer
    /// version that it resets halfway through; afterwards it serves the
    /// current page and the images.
    struct ResetsFirstPage {
        inbox: BTreeMap<SocketId, Vec<u8>>,
        doomed: Option<SocketId>,
    }

    const OLD_PAGE_SENT: usize = 4500;
    const NEW_PAGE: &str = "<img src=/a.gif><img src=/b.gif>";

    impl App for ResetsFirstPage {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent) {
            match event {
                AppEvent::Start => ctx.listen(80),
                AppEvent::Timer(_) => ctx.abort(self.doomed.expect("armed with the socket")),
                AppEvent::Readable(sock) if self.doomed != Some(sock) => {
                    let inbox = self.inbox.entry(sock).or_default();
                    inbox.extend_from_slice(&ctx.recv(sock, usize::MAX));
                    while let Some(end) = inbox.windows(4).position(|w| w == b"\r\n\r\n") {
                        let head: Vec<u8> = inbox.drain(..end + 4).collect();
                        let wants_page = head.starts_with(b"GET /index.html ");
                        let (declared, body) = if wants_page && self.doomed.is_none() {
                            self.doomed = Some(sock);
                            ctx.set_timer(0, SimDuration::from_secs(1));
                            let old = format!("<img src=/a.gif>{}", "x".repeat(OLD_PAGE_SENT));
                            (2 * OLD_PAGE_SENT, old[..OLD_PAGE_SENT].to_string())
                        } else if wants_page {
                            (NEW_PAGE.len(), NEW_PAGE.to_string())
                        } else {
                            (3, "GIF".to_string())
                        };
                        let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {declared}\r\n\r\n");
                        ctx.send(sock, head.as_bytes());
                        ctx.send(sock, body.as_bytes());
                        if self.doomed == Some(sock) {
                            return; // nothing more is answered on this one
                        }
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn page_lost_mid_body_is_read_again_from_its_first_byte() {
        let server = ResetsFirstPage {
            inbox: BTreeMap::new(),
            doomed: None,
        };
        let config = |addr| ClientConfig::robot(ProtocolMode::Http11Pipelined, addr);
        browse(LinkConfig::lan(), Box::new(server), config, |client| {
            assert!(client.stats.done);
            assert_eq!(client.stats.resets, 1);
            // The half-arrived old page showed /a.gif, and its request
            // went down with the connection; the re-fetched page shows it
            // again. It is fetched once all the same, and the scan,
            // restarted, reads the shorter new page from the top instead
            // of from offset 4500.
            let mut fetched: Vec<_> = client.stats.fetched.iter().map(|f| &*f.path).collect();
            fetched.sort_unstable();
            assert_eq!(fetched, ["/a.gif", "/b.gif", "/index.html"]);
            assert_eq!(client.stats.requests_sent, 2 + 3);
            assert_eq!(client.page.page.walked, OLD_PAGE_SENT + NEW_PAGE.len());
            assert_eq!(embedded(client), ["/a.gif", "/b.gif"]);
        });
    }
}
