//! Deterministic time-series metrics: counters, gauges and log-bucketed
//! streaming histograms sampled on sim-time ticks.
//!
//! The paper's methodology was observational — tcpdump captures analyzed
//! until the authors could attribute every stall to a TCP mechanism. The
//! probe ([`crate::probe`]) automates that attribution for a single run;
//! this module adds the *evolution* view: how cwnd, queue depth, server
//! load and recovery activity change over a run, across a whole fleet.
//!
//! ## Discipline
//!
//! The sink obeys the same rules the probe established:
//!
//! * **Zero overhead when disabled.** Every keyed record method starts
//!   with one branch on [`TelemetrySink::enabled`] and returns immediately
//!   when off; the kernel takes the same branch before it resolves a scope,
//!   so no `ScopeId` exists on an off run. Off-runs are bit-identical to
//!   runs of a build without the subsystem, proven field-for-field by
//!   differential tests.
//! * **Integer time only.** All times are integer nanoseconds or tick
//!   indices; the module contains no floating point at all, and simlint's
//!   `probe-determinism` rule enforces that (plus the hash-collection and
//!   wall-clock bans) on this file.
//! * **Deterministic storage, constant-time recording.** A scope is
//!   resolved once, through an ordered index, to a `ScopeId`: the
//!   position of its record in an append-only `Vec`. Whoever writes a scope
//!   often (the kernel, for every connection, link direction and host)
//!   keeps the id and records by it, so a write costs the same whether the
//!   run holds ten series or a hundred thousand; nothing recorded is ever
//!   searched or shifted (simlint's `recorder-search`). [`SeriesKey`] order
//!   is made when the sink is read — a walk of the index — never a hash
//!   order.
//!
//! ## Sampling rules
//!
//! Time is divided into fixed-width ticks of [`DEFAULT_TICK`] (10 ms); an
//! event at time `t` lands in tick `t / DEFAULT_TICK`.
//! Recording is event-driven, not sweep-driven:
//!
//! * a **gauge** keeps the *last* value written in each tick
//!   (sample-and-hold: the series reads as the value the quantity had at
//!   the end of every tick it changed in);
//! * a **counter** accumulates a running total and stores the total as of
//!   the end of each tick it changed in (cumulative, monotone);
//! * a **histogram** has no time axis: every observation lands in the
//!   power-of-two bucket `⌊log2(value)⌋ + 1` (value 0 in bucket 0), so a
//!   64-bucket array summarizes any `u64` stream. The kernel observes a
//!   connection's flight size once per TCB call that ran — a segment
//!   delivered, a timer fired, an application call — so `flight_bytes_hist`
//!   weighs network state by activity, never by how often a timer was
//!   re-armed (a superseded timer is not an event and takes no sample).
//!
//! Ticks in which nothing changed store nothing: consumers reconstruct
//! the full timeline by holding the previous value, which keeps a
//! minutes-long PPP run from materializing millions of idle points.

use crate::cc::CcVariant;
use crate::impair::DropReason;
use crate::packet::{HostId, SockAddr};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// The tick width: 10 ms of simulated time.
pub const DEFAULT_TICK: SimDuration = SimDuration::from_millis(10);

/// What a series describes: one connection, one link direction, one host,
/// or the whole simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// The simulation as a whole.
    Global,
    /// One host (server-side application metrics, SYN drops).
    Host(HostId),
    /// One direction of one link (`a_to_b` in the sense of
    /// [`crate::link::Link::a`] → [`crate::link::Link::b`]).
    Link {
        /// Kernel link index.
        link: u32,
        /// Direction within the link.
        a_to_b: bool,
    },
    /// One TCP connection endpoint.
    Conn {
        /// The host whose socket this is.
        host: HostId,
        /// Local address of the socket.
        local: SockAddr,
        /// Remote address of the socket.
        remote: SockAddr,
    },
}

/// The stable textual form used in JSON/CSV output: digits and fixed ASCII
/// only, so it needs no escaping in either.
impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Global => f.write_str("global"),
            Scope::Host(h) => write!(f, "h{}", h.0),
            Scope::Link { link, a_to_b } => {
                write!(f, "link{}:{}", link, if *a_to_b { "a>b" } else { "b>a" })
            }
            Scope::Conn { local, remote, .. } => write!(f, "{local}>{remote}"),
        }
    }
}

/// The quantity a series measures. The variant decides the series kind
/// (gauge, counter or histogram) via [`Metric::kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// Congestion window, bytes (per-connection gauge).
    Cwnd,
    /// Slow-start threshold, bytes (per-connection gauge).
    Ssthresh,
    /// Bytes in flight, `snd_nxt - snd_una` (per-connection gauge).
    FlightBytes,
    /// Retransmission timeout, nanoseconds (per-connection gauge).
    RtoNs,
    /// 1 while the congestion controller is in fast recovery, else 0
    /// (per-connection gauge).
    CcRecoveryActive,
    /// Fast-recovery episodes entered, aggregated per congestion-control
    /// variant ([`Scope::Global`] counter).
    CcRecoveries(CcVariant),
    /// Distribution of in-flight bytes, one sample per TCB call that ran
    /// (per-connection histogram).
    FlightHist,
    /// Bytes queued for serialization (per-link-direction gauge).
    QueueBytes,
    /// Distribution of queue depths seen at packet submission
    /// (per-link-direction histogram).
    QueueBytesHist,
    /// Packets dropped by the loss model (per-link-direction counter).
    DropsLoss,
    /// Packets dropped by a scheduled outage (per-link-direction counter).
    DropsOutage,
    /// Packets tail-dropped at the queue bound (per-link-direction
    /// counter).
    DropsQueue,
    /// SYNs discarded at a full listen backlog (per-host counter).
    SynDrops,
    /// Connections currently in service at the application (per-host
    /// gauge, app-reported via [`crate::sim::Ctx::telemetry_gauge`]).
    ServerConnections,
    /// Connections parked behind the admission cap (per-host gauge,
    /// app-reported).
    ServerQueuedConnections,
    /// Aggregate buffered bytes across app connections (per-host gauge,
    /// app-reported).
    ServerBufferedBytes,
    /// Recycled [`crate::tcp::Effects`] scratch lists held by the kernel
    /// pool ([`Scope::Global`] gauge).
    PoolEffects,
}

/// The three series shapes a [`Metric`] can have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Last value written per tick (sample-and-hold).
    Gauge,
    /// Cumulative total as of each tick it changed in.
    Counter,
    /// Log2-bucketed distribution with no time axis.
    Histogram,
}

impl SeriesKind {
    /// Stable textual form used in JSON/CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            SeriesKind::Gauge => "gauge",
            SeriesKind::Counter => "counter",
            SeriesKind::Histogram => "hist",
        }
    }
}

impl Metric {
    /// The series shape this metric records as.
    pub fn kind(&self) -> SeriesKind {
        match self {
            Metric::Cwnd
            | Metric::Ssthresh
            | Metric::FlightBytes
            | Metric::RtoNs
            | Metric::CcRecoveryActive
            | Metric::QueueBytes
            | Metric::ServerConnections
            | Metric::ServerQueuedConnections
            | Metric::ServerBufferedBytes
            | Metric::PoolEffects => SeriesKind::Gauge,
            Metric::CcRecoveries(_)
            | Metric::DropsLoss
            | Metric::DropsOutage
            | Metric::DropsQueue
            | Metric::SynDrops => SeriesKind::Counter,
            Metric::FlightHist | Metric::QueueBytesHist => SeriesKind::Histogram,
        }
    }

    /// Stable textual form used in JSON/CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            Metric::Cwnd => "cwnd_bytes",
            Metric::Ssthresh => "ssthresh_bytes",
            Metric::FlightBytes => "flight_bytes",
            Metric::RtoNs => "rto_ns",
            Metric::CcRecoveryActive => "cc_recovery_active",
            Metric::CcRecoveries(CcVariant::Reno) => "cc_recoveries_reno",
            Metric::CcRecoveries(CcVariant::NewReno) => "cc_recoveries_newreno",
            Metric::CcRecoveries(CcVariant::Sack) => "cc_recoveries_sack",
            Metric::CcRecoveries(CcVariant::Cubic) => "cc_recoveries_cubic",
            Metric::FlightHist => "flight_bytes_hist",
            Metric::QueueBytes => "queue_bytes",
            Metric::QueueBytesHist => "queue_bytes_hist",
            Metric::DropsLoss => "drops_loss",
            Metric::DropsOutage => "drops_outage",
            Metric::DropsQueue => "drops_queue",
            Metric::SynDrops => "syn_drops",
            Metric::ServerConnections => "server_connections",
            Metric::ServerQueuedConnections => "server_queued_connections",
            Metric::ServerBufferedBytes => "server_buffered_bytes",
            Metric::PoolEffects => "pool_effects",
        }
    }

    /// The counter metric for a link drop of the given reason.
    pub fn for_drop(reason: DropReason) -> Metric {
        match reason {
            DropReason::Loss => Metric::DropsLoss,
            DropReason::Outage => Metric::DropsOutage,
            DropReason::Queue => Metric::DropsQueue,
        }
    }
}

/// Identifies one series: what is measured, about what.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// The subject of the series.
    pub scope: Scope,
    /// The measured quantity.
    pub metric: Metric,
}

/// One stored point: the tick index and the value as of that tick's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Tick index (`time / DEFAULT_TICK`).
    pub tick: u64,
    /// Gauge value, or cumulative counter total.
    pub value: u64,
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values with `⌊log2(v)⌋ = i - 1`.
pub const HIST_BUCKETS: usize = 65;

/// A streaming log2-bucketed histogram over `u64` observations.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: [u64; HIST_BUCKETS],
    total: u64,
    sum: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: [0; HIST_BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

impl LogHistogram {
    /// Bucket index for a value.
    pub fn bucket_of(value: u64) -> usize {
        match value {
            0 => 0,
            v => v.ilog2() as usize + 1,
        }
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            i => 1u64 << (i - 1),
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), c))
    }
}

/// The data behind one series.
#[derive(Debug, Clone)]
pub enum SeriesData {
    /// Sample-and-hold points.
    Gauge(Vec<Point>),
    /// Cumulative totals; `total` is the running sum.
    Counter {
        /// Running total.
        total: u64,
        /// Totals as of each tick the counter changed in.
        points: Vec<Point>,
    },
    /// Distribution without a time axis. Boxed: the fixed bucket array
    /// would otherwise dominate every variant's size.
    Histogram(Box<LogHistogram>),
}

impl SeriesData {
    fn new(kind: SeriesKind) -> SeriesData {
        match kind {
            SeriesKind::Gauge => SeriesData::Gauge(Vec::new()),
            SeriesKind::Counter => SeriesData::Counter {
                total: 0,
                points: Vec::new(),
            },
            SeriesKind::Histogram => SeriesData::Histogram(Box::default()),
        }
    }

    /// Time-series points (empty for histograms).
    pub fn points(&self) -> &[Point] {
        match self {
            SeriesData::Gauge(p) => p,
            SeriesData::Counter { points, .. } => points,
            SeriesData::Histogram(_) => &[],
        }
    }
}

/// One recorded series, as the sink's readers see it: key plus data.
#[derive(Debug, Clone, Copy)]
pub struct Series<'a> {
    /// What this series measures, about what.
    pub key: SeriesKey,
    /// The recorded points or histogram.
    pub data: &'a SeriesData,
}

/// Compact per-run roll-up carried on `CellResult` so fleet tables can
/// report telemetry volume without holding the series themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Distinct series recorded.
    pub series: u32,
    /// Time-series points stored across all gauges and counters.
    pub points: u64,
    /// Observations folded into histograms.
    pub hist_samples: u64,
}

/// A [`Scope`] the sink has resolved: the position of its record. Minted
/// only by [`TelemetrySink::resolve`]; whoever holds one records in
/// constant time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScopeId(u32);

/// The telemetry sink: owned by the kernel, off (and allocation-free)
/// unless explicitly enabled.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    enabled: bool,
    /// Scope → its record. Only [`TelemetrySink::resolve`] consults it on
    /// the write path; readers walk it for key order.
    index: BTreeMap<Scope, ScopeId>,
    /// One record per resolved scope, in the order the scopes were first
    /// seen: the scope's series in first-write order. A scope carries a
    /// handful of metrics (six on a connection), so finding one in its
    /// record costs the same however long the run.
    records: Vec<Vec<(Metric, SeriesData)>>,
    /// Index consultations, for the tests that pin the record path's cost.
    #[cfg(debug_assertions)]
    resolutions: u64,
}

impl TelemetrySink {
    /// Whether the sink is collecting. When false every keyed record
    /// method is a single-branch no-op.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn collection on. Series start at the instant this is called, so
    /// do it before traffic flows to cover the whole run.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    fn tick_of(t: SimTime) -> u64 {
        t.as_nanos() / DEFAULT_TICK.as_nanos()
    }

    /// The id of `scope`'s record, made on first sight. The same scope
    /// always resolves to the same id — a 4-tuple reopened after a close
    /// continues its series — and this is the one ordered lookup of the
    /// write path: callers that record a scope repeatedly keep the id.
    pub(crate) fn resolve(&mut self, scope: Scope) -> ScopeId {
        #[cfg(debug_assertions)]
        {
            self.resolutions += 1;
        }
        let next = ScopeId(self.records.len() as u32);
        let id = *self.index.entry(scope).or_insert(next);
        if id == next {
            self.records.push(Vec::new());
        }
        id
    }

    /// How many times the index was consulted to resolve a scope.
    #[cfg(debug_assertions)]
    pub fn resolutions(&self) -> u64 {
        self.resolutions
    }

    /// Locate (or create) the series for `metric` in a resolved scope.
    fn slot(&mut self, id: ScopeId, metric: Metric) -> &mut SeriesData {
        let record = &mut self.records[id.0 as usize];
        let at = match record.iter().position(|(m, _)| *m == metric) {
            Some(at) => at,
            None => {
                record.push((metric, SeriesData::new(metric.kind())));
                record.len() - 1
            }
        };
        &mut record[at].1
    }

    /// Record a gauge value in a resolved scope (last write in a tick
    /// wins) and report whether it differs from the series' previous value
    /// (true for the first write).
    pub(crate) fn gauge_changed_in(
        &mut self,
        now: SimTime,
        id: ScopeId,
        metric: Metric,
        value: u64,
    ) -> bool {
        let tick = Self::tick_of(now);
        let SeriesData::Gauge(points) = self.slot(id, metric) else {
            panic!("{} is not a gauge", metric.label());
        };
        match points.last_mut() {
            Some(p) if p.tick == tick => {
                let changed = p.value != value;
                p.value = value;
                changed
            }
            Some(p) if p.value == value => false,
            _ => {
                points.push(Point { tick, value });
                true
            }
        }
    }

    /// [`TelemetrySink::gauge_changed_in`] for callers with no use for the
    /// edge.
    pub(crate) fn gauge_in(&mut self, now: SimTime, id: ScopeId, metric: Metric, value: u64) {
        let _ = self.gauge_changed_in(now, id, metric, value);
    }

    /// Add to a counter in a resolved scope; the cumulative total is
    /// stored per tick.
    pub(crate) fn counter_add_in(&mut self, now: SimTime, id: ScopeId, metric: Metric, delta: u64) {
        let tick = Self::tick_of(now);
        let SeriesData::Counter { total, points } = self.slot(id, metric) else {
            panic!("{} is not a counter", metric.label());
        };
        *total += delta;
        let total = *total;
        match points.last_mut() {
            Some(p) if p.tick == tick => p.value = total,
            _ => points.push(Point { tick, value: total }),
        }
    }

    /// Fold one observation into a histogram in a resolved scope.
    pub(crate) fn observe_in(&mut self, id: ScopeId, metric: Metric, value: u64) {
        let SeriesData::Histogram(h) = self.slot(id, metric) else {
            panic!("{} is not a histogram", metric.label());
        };
        h.observe(value);
    }

    /// Record a gauge value (last write in a tick wins).
    pub fn gauge(&mut self, now: SimTime, scope: Scope, metric: Metric, value: u64) {
        let _ = self.gauge_changed(now, scope, metric, value);
    }

    /// Record a gauge value and report whether it differs from the
    /// series' previous value (true for the first write). Lets callers
    /// turn level changes into edge-triggered counters.
    pub fn gauge_changed(
        &mut self,
        now: SimTime,
        scope: Scope,
        metric: Metric,
        value: u64,
    ) -> bool {
        if !self.enabled {
            return false;
        }
        let id = self.resolve(scope);
        self.gauge_changed_in(now, id, metric, value)
    }

    /// Add to a counter; the cumulative total is stored per tick.
    pub fn counter_add(&mut self, now: SimTime, scope: Scope, metric: Metric, delta: u64) {
        if !self.enabled {
            return;
        }
        let id = self.resolve(scope);
        self.counter_add_in(now, id, metric, delta);
    }

    /// Fold one observation into a histogram.
    pub fn observe(&mut self, scope: Scope, metric: Metric, value: u64) {
        if !self.enabled {
            return;
        }
        let id = self.resolve(scope);
        self.observe_in(id, metric, value);
    }

    /// Call `f` with every recorded series in key order: scopes as the
    /// index orders them, each scope's few series sorted by metric.
    fn each_series<'a>(&'a self, mut f: impl FnMut(Series<'a>)) {
        let mut by_metric: Vec<&(Metric, SeriesData)> = Vec::new();
        for (&scope, &id) in &self.index {
            by_metric.extend(&self.records[id.0 as usize]);
            by_metric.sort_unstable_by_key(|(metric, _)| *metric);
            for &(metric, ref data) in by_metric.drain(..) {
                f(Series {
                    key: SeriesKey { scope, metric },
                    data,
                });
            }
        }
    }

    /// All recorded series in key order.
    pub fn series(&self) -> Vec<Series<'_>> {
        let mut all = Vec::with_capacity(self.records.iter().map(Vec::len).sum());
        self.each_series(|s| all.push(s));
        all
    }

    /// The series for `key`, if any point or observation was recorded.
    pub fn get(&self, scope: Scope, metric: Metric) -> Option<&SeriesData> {
        let id = self.index.get(&scope)?;
        let record = &self.records[id.0 as usize];
        record.iter().find(|(m, _)| *m == metric).map(|(_, d)| d)
    }

    /// Compact roll-up for result tables.
    pub fn summary(&self) -> TelemetrySummary {
        let mut s = TelemetrySummary::default();
        for (_, data) in self.records.iter().flatten() {
            s.series += 1;
            match data {
                SeriesData::Histogram(h) => s.hist_samples += h.total(),
                other => s.points += other.points().len() as u64,
            }
        }
        s
    }

    /// Render every series as a stable, hand-rolled JSON document. All
    /// values are integers (nanoseconds, tick indices, bytes, counts);
    /// field order and series order are fixed, so identical runs produce
    /// byte-identical documents.
    pub fn render_json(&self, label: &str) -> String {
        // Writing into a `String` cannot fail: the `fmt::Result`s of this
        // function and of `render_csv` are dropped.
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"cell\": \"{}\",", crate::json::escape(label));
        let _ = writeln!(out, "  \"tick_ns\": {},", DEFAULT_TICK.as_nanos());
        out.push_str("  \"series\": [\n");
        let mut between = "";
        self.each_series(|s| {
            let _ = write!(
                out,
                "{between}    {{\"scope\": \"{}\", \"metric\": \"{}\", \"kind\": \"{}\", ",
                s.key.scope,
                s.key.metric.label(),
                s.key.metric.kind().label(),
            );
            let mut sep = "";
            match s.data {
                SeriesData::Histogram(h) => {
                    let _ = write!(out, "\"total\": {}, \"sum\": {}, ", h.total(), h.sum());
                    out.push_str("\"buckets\": [");
                    for (lo, count) in h.buckets() {
                        let _ = write!(out, "{sep}[{lo}, {count}]");
                        sep = ", ";
                    }
                }
                other => {
                    out.push_str("\"points\": [");
                    for p in other.points() {
                        let _ = write!(out, "{sep}[{}, {}]", p.tick, p.value);
                        sep = ", ";
                    }
                }
            }
            out.push_str("]}");
            between = ",\n";
        });
        if !between.is_empty() {
            out.push('\n');
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Render every series as CSV: one row per point (`tick` and `value`
    /// columns) or per non-empty histogram bucket (`tick` column holds
    /// the bucket's lower bound).
    ///
    /// Every row is a series' head and two integers, so the document's
    /// length is added up first and it is written into one `String` of
    /// exactly that size.
    pub fn render_csv(&self) -> String {
        const COLUMNS: &str = "scope,metric,kind,tick,value\n";
        // The three columns every row of one series starts with.
        let mut head = String::new();
        let mut len = COLUMNS.len();
        self.each_series(|s| {
            csv_head(&mut head, &s);
            csv_rows(s.data, |a, b| len += head.len() + digits(a) + digits(b) + 2);
        });
        let mut out = String::with_capacity(len);
        out.push_str(COLUMNS);
        self.each_series(|s| {
            csv_head(&mut head, &s);
            csv_rows(s.data, |a, b| {
                let _ = writeln!(out, "{head}{a},{b}");
            });
        });
        debug_assert_eq!(out.len(), len);
        out
    }
}

/// Write the `scope,metric,kind,` columns of a series' CSV rows into
/// `head`, replacing what it held.
fn csv_head(head: &mut String, s: &Series<'_>) {
    head.clear();
    let metric = s.key.metric;
    let _ = write!(
        head,
        "{},{},{},",
        s.key.scope,
        metric.label(),
        metric.kind().label()
    );
}

/// Call `row` with the two integer columns of each of a series' CSV
/// rows: `(tick, value)` per point, `(lower bound, count)` per non-empty
/// histogram bucket.
fn csv_rows(data: &SeriesData, mut row: impl FnMut(u64, u64)) {
    match data {
        SeriesData::Histogram(h) => h.buckets().for_each(|(lo, count)| row(lo, count)),
        other => other.points().iter().for_each(|p| row(p.tick, p.value)),
    }
}

/// Decimal digits of `n`.
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn conn_scope() -> Scope {
        Scope::Conn {
            host: HostId(0),
            local: SockAddr::new(HostId(0), 40_000),
            remote: SockAddr::new(HostId(1), 80),
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TelemetrySink::default();
        sink.gauge(at_ms(1), Scope::Global, Metric::PoolEffects, 3);
        sink.counter_add(at_ms(1), Scope::Host(HostId(0)), Metric::SynDrops, 1);
        sink.observe(conn_scope(), Metric::FlightHist, 99);
        assert!(!sink.gauge_changed(at_ms(1), conn_scope(), Metric::CcRecoveryActive, 1));
        assert!(sink.series().is_empty());
        assert_eq!(sink.summary(), TelemetrySummary::default());
    }

    #[test]
    fn gauge_is_sample_and_hold_per_tick() {
        let mut sink = TelemetrySink::default();
        sink.enable();
        let s = conn_scope();
        // Three writes inside tick 0: last wins.
        sink.gauge(at_ms(1), s, Metric::Cwnd, 1460);
        sink.gauge(at_ms(2), s, Metric::Cwnd, 2920);
        sink.gauge(at_ms(9), s, Metric::Cwnd, 4380);
        // Tick 3.
        sink.gauge(at_ms(35), s, Metric::Cwnd, 5840);
        // Unchanged value in a later tick stores nothing.
        sink.gauge(at_ms(45), s, Metric::Cwnd, 5840);
        let SeriesData::Gauge(points) = sink.get(s, Metric::Cwnd).unwrap() else {
            panic!("gauge expected");
        };
        assert_eq!(
            points,
            &[
                Point {
                    tick: 0,
                    value: 4380
                },
                Point {
                    tick: 3,
                    value: 5840
                }
            ]
        );
    }

    #[test]
    fn counter_stores_cumulative_totals() {
        let mut sink = TelemetrySink::default();
        sink.enable();
        let s = Scope::Link {
            link: 0,
            a_to_b: true,
        };
        sink.counter_add(at_ms(5), s, Metric::DropsLoss, 1);
        sink.counter_add(at_ms(7), s, Metric::DropsLoss, 1);
        sink.counter_add(at_ms(120), s, Metric::DropsLoss, 3);
        let SeriesData::Counter { total, points } = sink.get(s, Metric::DropsLoss).unwrap() else {
            panic!("counter expected");
        };
        assert_eq!(*total, 5);
        assert_eq!(
            points,
            &[Point { tick: 0, value: 2 }, Point { tick: 12, value: 5 }]
        );
    }

    #[test]
    fn gauge_changed_edges() {
        let mut sink = TelemetrySink::default();
        sink.enable();
        let s = conn_scope();
        assert!(sink.gauge_changed(at_ms(0), s, Metric::CcRecoveryActive, 0));
        assert!(!sink.gauge_changed(at_ms(20), s, Metric::CcRecoveryActive, 0));
        assert!(sink.gauge_changed(at_ms(40), s, Metric::CcRecoveryActive, 1));
        assert!(sink.gauge_changed(at_ms(41), s, Metric::CcRecoveryActive, 0));
        assert!(sink.gauge_changed(at_ms(42), s, Metric::CcRecoveryActive, 1));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(1024), 11);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_lo(0), 0);
        assert_eq!(LogHistogram::bucket_lo(11), 1024);

        let mut h = LogHistogram::default();
        for v in [0, 1, 3, 1024, 1500] {
            h.observe(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.sum(), 2528);
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 1), (1024, 2)]);
    }

    #[test]
    fn series_are_sorted_by_key_not_insertion() {
        let mut sink = TelemetrySink::default();
        sink.enable();
        sink.gauge(
            at_ms(0),
            Scope::Host(HostId(3)),
            Metric::ServerConnections,
            1,
        );
        sink.gauge(at_ms(0), Scope::Global, Metric::PoolEffects, 2);
        sink.gauge(
            at_ms(0),
            Scope::Host(HostId(1)),
            Metric::ServerConnections,
            1,
        );
        let keys: Vec<Scope> = sink.series().iter().map(|s| s.key.scope).collect();
        assert_eq!(
            keys,
            vec![
                Scope::Global,
                Scope::Host(HostId(1)),
                Scope::Host(HostId(3))
            ]
        );
    }

    #[test]
    fn render_json_and_csv_are_stable_and_integer_only() {
        let build = || {
            let mut sink = TelemetrySink::default();
            sink.enable();
            let s = conn_scope();
            sink.gauge(at_ms(1), s, Metric::Cwnd, 1460);
            sink.gauge(at_ms(35), s, Metric::Cwnd, 2920);
            sink.counter_add(at_ms(5), Scope::Host(HostId(1)), Metric::SynDrops, 2);
            sink.observe(s, Metric::FlightHist, 1460);
            sink
        };
        let a = build();
        let b = build();
        assert_eq!(a.render_json("cell"), b.render_json("cell"));
        assert_eq!(a.render_csv(), b.render_csv());
        let json = a.render_json("cell");
        assert!(json.contains("\"tick_ns\": 10000000"));
        assert!(json.contains("\"metric\": \"cwnd_bytes\""));
        assert!(json.contains("[0, 1460], [3, 2920]"));
        assert!(json.contains("\"metric\": \"syn_drops\""));
        assert!(!json.contains('.'), "integer-only document:\n{json}");
        let csv = a.render_csv();
        assert_eq!(csv.capacity(), csv.len(), "sized exactly before writing");
        assert!(csv.starts_with("scope,metric,kind,tick,value\n"));
        assert!(csv.contains("h0:40000>h1:80,cwnd_bytes,gauge,0,1460\n"));
        assert!(csv.contains("h1,syn_drops,counter,0,2\n"));
        assert!(csv.contains("h0:40000>h1:80,flight_bytes_hist,hist,1024,1\n"));
    }

    #[test]
    fn digits_counts_what_formatting_writes() {
        let widest = [10u64.pow(19) - 1, 10u64.pow(19), u64::MAX];
        for n in [0, 9, 10, 99, 100, 1 << 32].into_iter().chain(widest) {
            assert_eq!(digits(n), n.to_string().len(), "{n}");
        }
    }

    /// A scope resolves to the same record however often it is resolved:
    /// a 4-tuple closed and opened again continues its series.
    #[test]
    fn a_scope_resolved_again_continues_its_series() {
        let mut sink = TelemetrySink::default();
        sink.enable();
        let first = sink.resolve(conn_scope());
        sink.gauge_in(at_ms(1), first, Metric::Cwnd, 1460);
        let other = sink.resolve(Scope::Global);
        sink.gauge_in(at_ms(2), other, Metric::PoolEffects, 1);
        let again = sink.resolve(conn_scope());
        assert_eq!(again, first);
        sink.gauge_in(at_ms(35), again, Metric::Cwnd, 2920);
        assert_eq!(sink.summary().series, 2);
        assert_eq!(
            sink.get(conn_scope(), Metric::Cwnd).unwrap().points(),
            &[
                Point {
                    tick: 0,
                    value: 1460
                },
                Point {
                    tick: 3,
                    value: 2920
                }
            ]
        );
    }

    /// The sink as it was first written — one ordered map from key to
    /// data, a `String` per rendered row — kept as the reference the
    /// position-addressed sink must match byte for byte.
    #[derive(Default)]
    struct Reference(BTreeMap<SeriesKey, SeriesData>);

    impl Reference {
        fn slot(&mut self, scope: Scope, metric: Metric) -> &mut SeriesData {
            self.0
                .entry(SeriesKey { scope, metric })
                .or_insert_with(|| SeriesData::new(metric.kind()))
        }

        fn gauge_changed(
            &mut self,
            now: SimTime,
            scope: Scope,
            metric: Metric,
            value: u64,
        ) -> bool {
            let tick = TelemetrySink::tick_of(now);
            let SeriesData::Gauge(points) = self.slot(scope, metric) else {
                panic!("gauge expected");
            };
            match points.last_mut() {
                Some(p) if p.tick == tick => std::mem::replace(&mut p.value, value) != value,
                Some(p) if p.value == value => false,
                _ => {
                    points.push(Point { tick, value });
                    true
                }
            }
        }

        fn counter_add(&mut self, now: SimTime, scope: Scope, metric: Metric, delta: u64) {
            let tick = TelemetrySink::tick_of(now);
            let SeriesData::Counter { total, points } = self.slot(scope, metric) else {
                panic!("counter expected");
            };
            *total += delta;
            match points.last_mut() {
                Some(p) if p.tick == tick => p.value = *total,
                _ => points.push(Point {
                    tick,
                    value: *total,
                }),
            }
        }

        fn observe(&mut self, scope: Scope, metric: Metric, value: u64) {
            let SeriesData::Histogram(h) = self.slot(scope, metric) else {
                panic!("histogram expected");
            };
            h.observe(value);
        }

        fn summary(&self) -> TelemetrySummary {
            let mut s = TelemetrySummary {
                series: self.0.len() as u32,
                ..TelemetrySummary::default()
            };
            for data in self.0.values() {
                match data {
                    SeriesData::Histogram(h) => s.hist_samples += h.total(),
                    other => s.points += other.points().len() as u64,
                }
            }
            s
        }

        /// `[a, b]` rows of a series: its points, or its non-empty buckets.
        fn rows(data: &SeriesData) -> Vec<(u64, u64)> {
            match data {
                SeriesData::Histogram(h) => h.buckets().collect(),
                other => other.points().iter().map(|p| (p.tick, p.value)).collect(),
            }
        }

        fn render_json(&self, label: &str) -> String {
            let mut out = format!(
                "{{\n  \"cell\": \"{label}\",\n  \"tick_ns\": {},\n  \"series\": [\n",
                DEFAULT_TICK.as_nanos()
            );
            for (i, (key, data)) in self.0.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"scope\": \"{}\", \"metric\": \"{}\", \"kind\": \"{}\", ",
                    key.scope,
                    key.metric.label(),
                    key.metric.kind().label()
                ));
                let rows: Vec<String> = Self::rows(data)
                    .iter()
                    .map(|(a, b)| format!("[{a}, {b}]"))
                    .collect();
                match data {
                    SeriesData::Histogram(h) => out.push_str(&format!(
                        "\"total\": {}, \"sum\": {}, \"buckets\": [{}]",
                        h.total(),
                        h.sum(),
                        rows.join(", ")
                    )),
                    _ => out.push_str(&format!("\"points\": [{}]", rows.join(", "))),
                }
                let comma = if i + 1 < self.0.len() { "," } else { "" };
                out.push_str(&format!("}}{comma}\n"));
            }
            out.push_str("  ]\n}\n");
            out
        }

        fn render_csv(&self) -> String {
            let mut out = String::from("scope,metric,kind,tick,value\n");
            for (key, data) in &self.0 {
                for (a, b) in Self::rows(data) {
                    out.push_str(&format!(
                        "{},{},{},{a},{b}\n",
                        key.scope,
                        key.metric.label(),
                        key.metric.kind().label()
                    ));
                }
            }
            out
        }
    }

    /// A seeded random run of every record method over scattered scopes
    /// reads back exactly as the keyed reference does.
    #[test]
    fn random_records_read_back_as_the_keyed_reference_does() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        const GAUGES: [Metric; 4] = [
            Metric::Cwnd,
            Metric::RtoNs,
            Metric::QueueBytes,
            Metric::ServerConnections,
        ];
        const COUNTERS: [Metric; 3] = [
            Metric::DropsLoss,
            Metric::SynDrops,
            Metric::CcRecoveries(CcVariant::Sack),
        ];
        const HISTOGRAMS: [Metric; 2] = [Metric::FlightHist, Metric::QueueBytesHist];

        for seed in [1, 1997] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sink = TelemetrySink::default();
            sink.enable();
            let mut reference = Reference::default();
            let mut seen = Vec::new();
            let mut now_ms = 0;
            for _ in 0..4000 {
                now_ms += rng.gen_range(0..8u64);
                let now = at_ms(now_ms);
                let scope = match rng.gen_range(0..8u32) {
                    0 => Scope::Global,
                    1 => Scope::Host(HostId(rng.gen_range(0..6u16))),
                    2 => Scope::Link {
                        link: rng.gen_range(0..3u32),
                        a_to_b: rng.gen_range(0..2u32) == 1,
                    },
                    _ => {
                        let host = HostId(rng.gen_range(0..8u16));
                        Scope::Conn {
                            host,
                            local: SockAddr::new(host, 40_000 + rng.gen_range(0..24u16)),
                            remote: SockAddr::new(HostId(9), 80),
                        }
                    }
                };
                let value = rng.gen_range(0..5u64) * 1460;
                let pick = rng.gen_range(0..4usize);
                let metric = match rng.gen_range(0..4u32) {
                    0 => {
                        let metric = GAUGES[pick];
                        sink.gauge(now, scope, metric, value);
                        reference.gauge_changed(now, scope, metric, value);
                        metric
                    }
                    1 => {
                        let metric = GAUGES[pick];
                        assert_eq!(
                            sink.gauge_changed(now, scope, metric, value),
                            reference.gauge_changed(now, scope, metric, value)
                        );
                        metric
                    }
                    2 => {
                        let metric = COUNTERS[pick % COUNTERS.len()];
                        sink.counter_add(now, scope, metric, value);
                        reference.counter_add(now, scope, metric, value);
                        metric
                    }
                    _ => {
                        let metric = HISTOGRAMS[pick % HISTOGRAMS.len()];
                        sink.observe(scope, metric, value);
                        reference.observe(scope, metric, value);
                        metric
                    }
                };
                seen.push((scope, metric));
            }
            assert_eq!(sink.render_csv(), reference.render_csv());
            assert_eq!(sink.render_json("model"), reference.render_json("model"));
            assert_eq!(sink.summary(), reference.summary());
            let keys: Vec<SeriesKey> = sink.series().iter().map(|s| s.key).collect();
            assert!(keys.iter().eq(reference.0.keys()));
            for (scope, metric) in seen {
                assert_eq!(
                    format!("{:?}", sink.get(scope, metric)),
                    format!("{:?}", reference.0.get(&SeriesKey { scope, metric }))
                );
            }
            assert!(sink.get(Scope::Host(HostId(77)), Metric::Cwnd).is_none());
        }
    }

    #[test]
    fn summary_counts_series_points_and_samples() {
        let mut sink = TelemetrySink::default();
        sink.enable();
        let s = conn_scope();
        sink.gauge(at_ms(1), s, Metric::Cwnd, 1460);
        sink.gauge(at_ms(35), s, Metric::Cwnd, 2920);
        sink.counter_add(at_ms(5), Scope::Host(HostId(1)), Metric::SynDrops, 2);
        sink.observe(s, Metric::FlightHist, 10);
        sink.observe(s, Metric::FlightHist, 20);
        assert_eq!(
            sink.summary(),
            TelemetrySummary {
                series: 3,
                points: 3,
                hist_samples: 2
            }
        );
    }
}
