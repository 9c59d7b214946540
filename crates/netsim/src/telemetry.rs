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
//!   position of its entry in the scope table. Whoever writes a scope
//!   often (the kernel, for every connection, link direction and host)
//!   keeps the id and records by it, so a write costs the same whether the
//!   run holds ten series or a hundred thousand; nothing recorded is ever
//!   searched or shifted (simlint's `recorder-search`). [`SeriesKey`] order
//!   is made when the sink is read — a walk of the index — never a hash
//!   order.
//! * **Storage by the block.** Every table of the sink is append-only and
//!   grows by fixed-size blocks that never move (`crate::blocks`): the
//!   scope table; one table of series heads, each scope's on a ring its
//!   entry points into; one arena of point blocks holding every gauge and counter
//!   point, chained per series; and one arena of histogram runs, each the
//!   dense counts of buckets `0..=highest` after the sum. Nothing is
//!   allocated per series, and readers get borrowed views
//!   ([`SeriesData`], [`Points`], [`Histogram`]).
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

use crate::blocks::Blocks;
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
        let mut text = String::new();
        push_scope(&mut text, *self);
        f.write_str(&text)
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

/// "No series" / "no block": the end of a chain.
const NONE: u32 = u32::MAX;

/// Points per point block. Most gauges hold one to three points over a
/// whole run, so a series' first block is most often its only one.
const POINTS_PER_BLOCK: usize = 4;

/// Slots of the longest histogram run: the sum, then every bucket.
const RUN_SLOTS: usize = 1 + HIST_BUCKETS;

/// Entries per block of the scope table, of the series heads, of the
/// point-block arena and of the bucket arena (each table's first block
/// holds an eighth as many).
const SCOPES_PER_BLOCK: usize = 4096;
const HEADS_PER_BLOCK: usize = 1024;
const POINT_BLOCKS_PER_BLOCK: usize = 512;
const SLOTS_PER_BLOCK: usize = 4096;

/// One link of a series' point chain.
#[derive(Debug, Clone, Copy)]
struct PointBlock {
    points: [Point; POINTS_PER_BLOCK],
    /// The series' next block, or [`NONE`].
    next: u32,
}

/// Where a series' data lies.
#[derive(Debug, Clone, Copy)]
enum Store {
    /// A gauge's or counter's `len` points, in the chain of point blocks
    /// from `first` to `last` (both [`NONE`] before the first point).
    Points { first: u32, last: u32, len: u32 },
    /// A histogram's `width` slots at `at` in the bucket arena: its sum,
    /// then the counts of buckets `0..width - 1` (`width` 0 before the
    /// first observation).
    Run { at: u32, width: u32 },
}

/// One series: its metric, the next series of its scope, and its data.
#[derive(Debug, Clone, Copy)]
struct Head {
    metric: Metric,
    /// The next series of the same scope's ring (itself when it is the
    /// scope's only one).
    next: u32,
    store: Store,
}

/// A gauge's or counter's points in tick order, read where they lie.
#[derive(Clone, Copy)]
pub struct Points<'a> {
    blocks: &'a Blocks<PointBlock, POINT_BLOCKS_PER_BLOCK>,
    first: u32,
    last: u32,
    len: u32,
}

/// The arena no series' points lie in: what an empty [`Points`] reads.
static NO_POINTS: Blocks<PointBlock, POINT_BLOCKS_PER_BLOCK> = Blocks::new();

impl Default for Points<'_> {
    fn default() -> Self {
        Points {
            blocks: &NO_POINTS,
            first: NONE,
            last: NONE,
            len: 0,
        }
    }
}

impl<'a> Points<'a> {
    /// Number of points.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True when there are none.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Every point in tick order.
    pub fn iter(self) -> PointsIter<'a> {
        PointsIter {
            blocks: self.blocks,
            block: self.first,
            at: 0,
            left: self.len as usize,
        }
    }

    /// The last point, read from the chain's last block.
    pub fn last(self) -> Option<Point> {
        let at = self.len.checked_sub(1)? as usize % POINTS_PER_BLOCK;
        Some(self.blocks[self.last as usize].points[at])
    }
}

impl<'a> IntoIterator for Points<'a> {
    type Item = Point;
    type IntoIter = PointsIter<'a>;

    fn into_iter(self) -> PointsIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Points<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The iterator of [`Points::iter`]: a walk of the series' chain.
pub struct PointsIter<'a> {
    blocks: &'a Blocks<PointBlock, POINT_BLOCKS_PER_BLOCK>,
    block: u32,
    at: usize,
    left: usize,
}

impl Iterator for PointsIter<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        self.left = self.left.checked_sub(1)?;
        let block = &self.blocks[self.block as usize];
        let point = block.points[self.at];
        self.at += 1;
        if self.at == POINTS_PER_BLOCK {
            (self.block, self.at) = (block.next, 0);
        }
        Some(point)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for PointsIter<'_> {}

/// A log2-bucketed distribution over `u64` observations, read where it
/// lies: its sum, then the counts of buckets `0..=highest`.
#[derive(Clone, Copy)]
pub struct Histogram<'a> {
    run: &'a [u64],
}

impl<'a> Histogram<'a> {
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

    /// Observations recorded.
    pub fn total(self) -> u64 {
        self.run[1..].iter().sum()
    }

    /// Sum of all observed values (saturating).
    pub fn sum(self) -> u64 {
        self.run[0]
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn buckets(self) -> impl Iterator<Item = (u64, u64)> + 'a {
        self.run[1..]
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(i, &count)| (Self::bucket_lo(i), count))
    }
}

impl fmt::Debug for Histogram<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("total", &self.total())
            .field("sum", &self.sum())
            .field("buckets", &self.buckets().collect::<Vec<_>>())
            .finish()
    }
}

/// The data behind one series, borrowed from the sink.
#[derive(Debug, Clone, Copy)]
pub enum SeriesData<'a> {
    /// Sample-and-hold points.
    Gauge(Points<'a>),
    /// Cumulative totals; `total` is the running sum (the last point's
    /// value).
    Counter {
        /// Running total.
        total: u64,
        /// Totals as of each tick the counter changed in.
        points: Points<'a>,
    },
    /// Distribution without a time axis.
    Histogram(Histogram<'a>),
}

impl<'a> SeriesData<'a> {
    /// Time-series points (empty for histograms).
    pub fn points(self) -> Points<'a> {
        match self {
            SeriesData::Gauge(points) | SeriesData::Counter { points, .. } => points,
            SeriesData::Histogram(_) => Points::default(),
        }
    }
}

/// One recorded series, as the sink's readers see it: key plus data.
#[derive(Debug, Clone, Copy)]
pub struct Series<'a> {
    /// What this series measures, about what.
    pub key: SeriesKey,
    /// The recorded points or histogram.
    pub data: SeriesData<'a>,
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

/// A [`Scope`] the sink has resolved: the position of its entry in the
/// scope table. Minted only by [`TelemetrySink::resolve`]; whoever holds
/// one records in constant time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScopeId(u32);

/// The telemetry sink: owned by the kernel, off (and allocation-free)
/// unless explicitly enabled.
#[derive(Debug)]
pub struct TelemetrySink {
    enabled: bool,
    /// Scope → its entry. Only [`TelemetrySink::resolve`] consults it on
    /// the write path; readers walk it for key order.
    index: BTreeMap<Scope, ScopeId>,
    /// Per resolved scope, in the order the scopes were first seen: the
    /// series written last (or [`NONE`]), on the ring its `next` links
    /// run through the scope's series. A scope carries a handful of
    /// series (six on a connection), so finding one on its ring costs
    /// the same however long the run.
    scopes: Blocks<u32, SCOPES_PER_BLOCK>,
    /// Every series, in the order they were made.
    heads: Blocks<Head, HEADS_PER_BLOCK>,
    /// Every gauge and counter point.
    points: Blocks<PointBlock, POINT_BLOCKS_PER_BLOCK>,
    /// Every histogram's run.
    slots: Blocks<u64, SLOTS_PER_BLOCK>,
    /// Per run width, the last run of that width a histogram outgrew, or
    /// [`NONE`]; a given-up run's first slot holds the one before it.
    free_runs: [u32; RUN_SLOTS + 1],
    /// Index consultations, for the tests that pin the record path's cost.
    #[cfg(debug_assertions)]
    resolutions: u64,
}

impl Default for TelemetrySink {
    fn default() -> Self {
        TelemetrySink {
            enabled: false,
            index: BTreeMap::new(),
            scopes: Blocks::new(),
            heads: Blocks::new(),
            points: Blocks::new(),
            slots: Blocks::new(),
            free_runs: [NONE; RUN_SLOTS + 1],
            #[cfg(debug_assertions)]
            resolutions: 0,
        }
    }
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

    /// The id of `scope`'s entry, made on first sight. The same scope
    /// always resolves to the same id — a 4-tuple reopened after a close
    /// continues its series — and this is the one ordered lookup of the
    /// write path: callers that record a scope repeatedly keep the id.
    pub(crate) fn resolve(&mut self, scope: Scope) -> ScopeId {
        #[cfg(debug_assertions)]
        {
            self.resolutions += 1;
        }
        let next = ScopeId(self.scopes.len() as u32);
        let id = *self.index.entry(scope).or_insert(next);
        if id == next {
            self.scopes.push(NONE);
        }
        id
    }

    /// How many times the index was consulted to resolve a scope.
    #[cfg(debug_assertions)]
    pub fn resolutions(&self) -> u64 {
        self.resolutions
    }

    /// The series for `metric` in a resolved scope, made (empty) on first
    /// write: its position, and where its data lies. `kind` is what the
    /// caller records; a metric of another kind is a bug at the call site.
    fn head(&mut self, id: ScopeId, metric: Metric, kind: SeriesKind) -> (usize, Store) {
        assert!(
            metric.kind() == kind,
            "{} is not a {}",
            metric.label(),
            kind.label()
        );
        // The search starts at the series written last, then goes round
        // the ring: a writer that repeats one series finds it at once, and
        // one that records a scope's metrics in a cycle, as the kernel
        // does, at the second step.
        let cursor = &mut self.scopes[id.0 as usize];
        if *cursor != NONE {
            let mut at = *cursor;
            loop {
                let head = &self.heads[at as usize];
                if head.metric == metric {
                    *cursor = at;
                    return (at as usize, head.store);
                }
                at = head.next;
                if at == *cursor {
                    break;
                }
            }
        }
        // A new series joins the ring after the series written last, so a
        // ring made in a writer's cycle runs in that cycle's order.
        let made = self.heads.len() as u32;
        let next = match *cursor {
            NONE => made,
            last => std::mem::replace(&mut self.heads[last as usize].next, made),
        };
        let store = match kind {
            SeriesKind::Histogram => Store::Run { at: NONE, width: 0 },
            _ => Store::Points {
                first: NONE,
                last: NONE,
                len: 0,
            },
        };
        *cursor = made;
        let made = self.heads.push(Head {
            metric,
            next,
            store,
        });
        (made, store)
    }

    /// The last point of the series whose data lies at `store`, if it
    /// has one.
    fn last_point(&mut self, store: Store) -> Option<&mut Point> {
        let Store::Points { last, len, .. } = store else {
            unreachable!("a histogram has no points");
        };
        let at = len.checked_sub(1)? as usize % POINTS_PER_BLOCK;
        Some(&mut self.points[last as usize].points[at])
    }

    /// Append `point` to series `head`, chaining a new point block when
    /// its last one is full.
    fn push_point(&mut self, head: usize, point: Point) {
        let Store::Points { first, last, len } = &mut self.heads[head].store else {
            unreachable!("a histogram has no points");
        };
        let at = *len as usize % POINTS_PER_BLOCK;
        if at == 0 {
            let block = self.points.push(PointBlock {
                points: [point; POINTS_PER_BLOCK],
                next: NONE,
            }) as u32;
            match *len {
                0 => *first = block,
                _ => self.points[*last as usize].next = block,
            }
            *last = block;
        } else {
            self.points[*last as usize].points[at] = point;
        }
        *len += 1;
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
        let (head, store) = self.head(id, metric, SeriesKind::Gauge);
        match self.last_point(store) {
            Some(p) if p.tick == tick => {
                let changed = p.value != value;
                p.value = value;
                changed
            }
            Some(p) if p.value == value => false,
            _ => {
                self.push_point(head, Point { tick, value });
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
        let (head, store) = self.head(id, metric, SeriesKind::Counter);
        match self.last_point(store) {
            Some(p) if p.tick == tick => p.value += delta,
            last => {
                let value = last.map_or(0, |p| p.value) + delta;
                self.push_point(head, Point { tick, value });
            }
        }
    }

    /// Fold one observation into a histogram in a resolved scope.
    pub(crate) fn observe_in(&mut self, id: ScopeId, metric: Metric, value: u64) {
        let (head, store) = self.head(id, metric, SeriesKind::Histogram);
        let Store::Run { mut at, mut width } = store else {
            unreachable!("a histogram is a run");
        };
        let bucket = Histogram::bucket_of(value);
        if 2 + bucket as u32 > width {
            at = self.widen(at, width, 2 + bucket as u32);
            width = 2 + bucket as u32;
            self.heads[head].store = Store::Run { at, width };
        }
        let run = self.slots.run_mut(at as usize, width as usize);
        run[0] = run[0].saturating_add(value);
        run[1 + bucket] += 1;
    }

    /// Move a histogram's run of `width` slots at `at` (none when `width`
    /// is 0) into a zeroed run of `wider` slots and return where that
    /// lies. The run given up is kept for the next histogram that needs
    /// one of its width.
    fn widen(&mut self, at: u32, width: u32, wider: u32) -> u32 {
        let moved = match self.free_runs[wider as usize] {
            NONE => self.slots.push_run(wider as usize, 0) as u32,
            reused => {
                let run = self.slots.run_mut(reused as usize, wider as usize);
                self.free_runs[wider as usize] = run[0] as u32;
                run.fill(0);
                reused
            }
        };
        if width > 0 {
            let (at, width) = (at as usize, width as usize);
            let mut held = [0; RUN_SLOTS];
            held[..width].copy_from_slice(self.slots.run(at, width));
            self.slots
                .run_mut(moved as usize, width)
                .copy_from_slice(&held[..width]);
            self.slots[at] = u64::from(std::mem::replace(&mut self.free_runs[width], at as u32));
        }
        moved
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

    /// The data of series `head`, borrowed.
    fn data(&self, head: &Head) -> SeriesData<'_> {
        match head.store {
            Store::Points { first, last, len } => {
                let points = Points {
                    blocks: &self.points,
                    first,
                    last,
                    len,
                };
                match head.metric.kind() {
                    SeriesKind::Counter => SeriesData::Counter {
                        total: points.last().map_or(0, |p| p.value),
                        points,
                    },
                    _ => SeriesData::Gauge(points),
                }
            }
            Store::Run { at, width } => SeriesData::Histogram(Histogram {
                run: self.slots.run(at as usize, width as usize),
            }),
        }
    }

    /// The series of a resolved scope: once round its ring.
    fn scope_heads(&self, id: ScopeId) -> impl Iterator<Item = &Head> {
        let start = self.scopes[id.0 as usize];
        let mut at = start;
        std::iter::from_fn(move || {
            let head = (at != NONE).then(|| &self.heads[at as usize])?;
            at = match head.next {
                next if next == start => NONE,
                next => next,
            };
            Some(head)
        })
    }

    /// Call `f` with every recorded series in key order: scopes as the
    /// index orders them, each scope's few series sorted by metric.
    fn each_series<'a>(&'a self, mut f: impl FnMut(Series<'a>)) {
        let mut by_metric: Vec<&Head> = Vec::new();
        for (&scope, &id) in &self.index {
            by_metric.extend(self.scope_heads(id));
            by_metric.sort_unstable_by_key(|head| head.metric);
            for head in by_metric.drain(..) {
                f(Series {
                    key: SeriesKey {
                        scope,
                        metric: head.metric,
                    },
                    data: self.data(head),
                });
            }
        }
    }

    /// All recorded series in key order.
    pub fn series(&self) -> Vec<Series<'_>> {
        let mut all = Vec::with_capacity(self.heads.len());
        self.each_series(|s| all.push(s));
        all
    }

    /// The series for `key`, if any point or observation was recorded.
    pub fn get(&self, scope: Scope, metric: Metric) -> Option<SeriesData<'_>> {
        let &id = self.index.get(&scope)?;
        let head = self.scope_heads(id).find(|head| head.metric == metric)?;
        Some(self.data(head))
    }

    /// Compact roll-up for result tables.
    pub fn summary(&self) -> TelemetrySummary {
        let mut s = TelemetrySummary::default();
        for head in self.heads.iter() {
            s.series += 1;
            match self.data(head) {
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
        // Writing into a `String` cannot fail.
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"cell\": \"{}\",", crate::json::escape(label));
        let _ = writeln!(out, "  \"tick_ns\": {},", DEFAULT_TICK.as_nanos());
        out.push_str("  \"series\": [\n");
        let mut between = "";
        self.each_series(|s| {
            out.push_str(between);
            out.push_str("    {\"scope\": \"");
            push_scope(&mut out, s.key.scope);
            out.push_str("\", \"metric\": \"");
            out.push_str(s.key.metric.label());
            out.push_str("\", \"kind\": \"");
            out.push_str(s.key.metric.kind().label());
            out.push_str("\", ");
            if let SeriesData::Histogram(h) = s.data {
                out.push_str("\"total\": ");
                push_u64(&mut out, h.total());
                out.push_str(", \"sum\": ");
                push_u64(&mut out, h.sum());
                out.push_str(", \"buckets\": [");
            } else {
                out.push_str("\"points\": [");
            }
            let mut sep = "";
            rows(s.data, |a, b| {
                out.push_str(sep);
                out.push('[');
                push_u64(&mut out, a);
                out.push_str(", ");
                push_u64(&mut out, b);
                out.push(']');
                sep = ", ";
            });
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
            rows(s.data, |a, b| len += head.len() + digits(a) + digits(b) + 2);
        });
        let mut out = String::with_capacity(len);
        out.push_str(COLUMNS);
        self.each_series(|s| {
            csv_head(&mut head, &s);
            rows(s.data, |a, b| {
                out.push_str(&head);
                push_u64(&mut out, a);
                out.push(',');
                push_u64(&mut out, b);
                out.push('\n');
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
    push_scope(head, s.key.scope);
    head.push(',');
    head.push_str(metric.label());
    head.push(',');
    head.push_str(metric.kind().label());
    head.push(',');
}

/// Call `row` with the two integers of each of a series' rows:
/// `(tick, value)` per point, `(lower bound, count)` per non-empty
/// histogram bucket.
fn rows(data: SeriesData<'_>, mut row: impl FnMut(u64, u64)) {
    match data {
        SeriesData::Histogram(h) => h.buckets().for_each(|(lo, count)| row(lo, count)),
        other => other.points().iter().for_each(|p| row(p.tick, p.value)),
    }
}

/// Append a scope's stable textual form (see [`Scope`]'s `Display`).
fn push_scope(out: &mut String, scope: Scope) {
    let push_addr = |out: &mut String, addr: SockAddr| {
        out.push('h');
        push_u64(out, addr.host.0.into());
        out.push(':');
        push_u64(out, addr.port.into());
    };
    match scope {
        Scope::Global => out.push_str("global"),
        Scope::Host(h) => {
            out.push('h');
            push_u64(out, h.0.into());
        }
        Scope::Link { link, a_to_b } => {
            out.push_str("link");
            push_u64(out, link.into());
            out.push_str(if a_to_b { ":a>b" } else { ":b>a" });
        }
        Scope::Conn { local, remote, .. } => {
            push_addr(out, local);
            out.push('>');
            push_addr(out, remote);
        }
    }
}

/// Append `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    let mut text = [0u8; 20];
    let mut at = text.len();
    loop {
        at -= 1;
        text[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&text[at..]).expect("decimal digits"));
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

    fn points_of(data: Option<SeriesData<'_>>) -> Vec<Point> {
        data.expect("recorded").points().iter().collect()
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
        let Some(SeriesData::Gauge(points)) = sink.get(s, Metric::Cwnd) else {
            panic!("gauge expected");
        };
        assert_eq!(
            points.iter().collect::<Vec<_>>(),
            [
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
        let Some(SeriesData::Counter { total, points }) = sink.get(s, Metric::DropsLoss) else {
            panic!("counter expected");
        };
        assert_eq!(total, 5);
        assert_eq!(
            points.iter().collect::<Vec<_>>(),
            [Point { tick: 0, value: 2 }, Point { tick: 12, value: 5 }]
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
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_lo(0), 0);
        assert_eq!(Histogram::bucket_lo(11), 1024);

        let mut sink = TelemetrySink::default();
        sink.enable();
        for v in [1024, 0, 1, 3, 1500] {
            sink.observe(conn_scope(), Metric::FlightHist, v);
        }
        let Some(SeriesData::Histogram(h)) = sink.get(conn_scope(), Metric::FlightHist) else {
            panic!("histogram expected");
        };
        assert_eq!(h.total(), 5);
        assert_eq!(h.sum(), 2528);
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 1), (1024, 2)]);
        // The dense run ends at the highest bucket seen: its sum, then
        // buckets 0..=11.
        assert_eq!(h.run.len(), 1 + 12);
        sink.observe(conn_scope(), Metric::FlightHist, u64::MAX);
        let Some(SeriesData::Histogram(h)) = sink.get(conn_scope(), Metric::FlightHist) else {
            panic!("histogram expected");
        };
        assert_eq!((h.total(), h.sum(), h.run.len()), (6, u64::MAX, RUN_SLOTS));
    }

    /// A run a histogram outgrew goes to the next histogram that needs
    /// one of its width, so growing histograms leave no garbage behind.
    #[test]
    fn an_outgrown_run_is_reused() {
        let mut sink = TelemetrySink::default();
        sink.enable();
        let scope = |host| Scope::Host(HostId(host));
        for host in 0..20 {
            for v in [1, 1460, 2920, 5840, 11_680] {
                sink.observe(scope(host), Metric::QueueBytesHist, v);
            }
        }
        // Each histogram ends 1 + 15 slots wide; every narrower run it
        // passed through was handed on to the next.
        let final_runs = 20 * (1 + 15);
        let outgrown = 3 + 13 + 14 + 15;
        assert_eq!(sink.slots.len(), final_runs + outgrown);
        let h = sink.get(scope(7), Metric::QueueBytesHist);
        assert_eq!(
            format!("{h:?}"),
            "Some(Histogram(Histogram { total: 5, sum: 21901, buckets: [(1, 1), (1024, 1), \
             (2048, 1), (4096, 1), (8192, 1)] }))"
        );
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

    /// The digit writer writes what formatting writes, and `digits`
    /// counts it; a scope's text is every scope kind's stable form.
    #[test]
    fn digits_counts_what_formatting_writes() {
        let widest = [10u64.pow(19) - 1, 10u64.pow(19), u64::MAX];
        for n in [0, 9, 10, 99, 100, 1 << 32].into_iter().chain(widest) {
            let mut text = String::from("x");
            push_u64(&mut text, n);
            assert_eq!(text, format!("x{n}"));
            assert_eq!(digits(n), n.to_string().len(), "{n}");
        }
        let scopes = [
            (Scope::Global, "global"),
            (Scope::Host(HostId(65_535)), "h65535"),
            (
                Scope::Link {
                    link: 7,
                    a_to_b: true,
                },
                "link7:a>b",
            ),
            (
                Scope::Link {
                    link: 0,
                    a_to_b: false,
                },
                "link0:b>a",
            ),
            (conn_scope(), "h0:40000>h1:80"),
        ];
        for (scope, text) in scopes {
            assert_eq!(scope.to_string(), text);
        }
        let Scope::Conn { local, remote, .. } = conn_scope() else {
            unreachable!()
        };
        assert_eq!(conn_scope().to_string(), format!("{local}>{remote}"));
    }

    /// A scope resolves to the same entry however often it is resolved:
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
            points_of(sink.get(conn_scope(), Metric::Cwnd)),
            [
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

    /// One series as the reference sink keeps it.
    #[derive(Debug, Clone, PartialEq)]
    enum RefData {
        Gauge(Vec<Point>),
        Counter {
            total: u64,
            points: Vec<Point>,
        },
        Histogram {
            counts: Box<[u64; HIST_BUCKETS]>,
            total: u64,
            sum: u64,
        },
    }

    impl RefData {
        fn new(kind: SeriesKind) -> RefData {
            match kind {
                SeriesKind::Gauge => RefData::Gauge(Vec::new()),
                SeriesKind::Counter => RefData::Counter {
                    total: 0,
                    points: Vec::new(),
                },
                SeriesKind::Histogram => RefData::Histogram {
                    counts: Box::new([0; HIST_BUCKETS]),
                    total: 0,
                    sum: 0,
                },
            }
        }

        /// A view of the real sink, copied into the reference's form.
        fn of(data: SeriesData<'_>) -> RefData {
            match data {
                SeriesData::Gauge(points) => RefData::Gauge(points.iter().collect()),
                SeriesData::Counter { total, points } => RefData::Counter {
                    total,
                    points: points.iter().collect(),
                },
                SeriesData::Histogram(h) => {
                    let mut counts = Box::new([0; HIST_BUCKETS]);
                    for (lo, count) in h.buckets() {
                        counts[Histogram::bucket_of(lo)] = count;
                    }
                    RefData::Histogram {
                        counts,
                        total: h.total(),
                        sum: h.sum(),
                    }
                }
            }
        }

        /// `[a, b]` rows: the points, or the non-empty buckets.
        fn rows(&self) -> Vec<(u64, u64)> {
            match self {
                RefData::Gauge(points) | RefData::Counter { points, .. } => {
                    points.iter().map(|p| (p.tick, p.value)).collect()
                }
                RefData::Histogram { counts, .. } => counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| (Histogram::bucket_lo(i), c))
                    .collect(),
            }
        }
    }

    /// The sink as it was before its storage went by the block: a
    /// `Vec` per series, found through one ordered map from key to data,
    /// and a `String` per rendered row. The block-stored sink must match
    /// it step for step and byte for byte.
    #[derive(Default)]
    struct Reference(BTreeMap<SeriesKey, RefData>);

    impl Reference {
        fn slot(&mut self, scope: Scope, metric: Metric) -> &mut RefData {
            self.0
                .entry(SeriesKey { scope, metric })
                .or_insert_with(|| RefData::new(metric.kind()))
        }

        fn gauge_changed(
            &mut self,
            now: SimTime,
            scope: Scope,
            metric: Metric,
            value: u64,
        ) -> bool {
            let tick = TelemetrySink::tick_of(now);
            let RefData::Gauge(points) = self.slot(scope, metric) else {
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
            let RefData::Counter { total, points } = self.slot(scope, metric) else {
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
            let RefData::Histogram { counts, total, sum } = self.slot(scope, metric) else {
                panic!("histogram expected");
            };
            counts[Histogram::bucket_of(value)] += 1;
            *total += 1;
            *sum = sum.saturating_add(value);
        }

        fn summary(&self) -> TelemetrySummary {
            let mut s = TelemetrySummary {
                series: self.0.len() as u32,
                ..TelemetrySummary::default()
            };
            for data in self.0.values() {
                match data {
                    RefData::Histogram { total, .. } => s.hist_samples += total,
                    other => s.points += other.rows().len() as u64,
                }
            }
            s
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
                let rows: Vec<String> = data
                    .rows()
                    .iter()
                    .map(|(a, b)| format!("[{a}, {b}]"))
                    .collect();
                match data {
                    RefData::Histogram { total, sum, .. } => out.push_str(&format!(
                        "\"total\": {total}, \"sum\": {sum}, \"buckets\": [{}]",
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
                for (a, b) in data.rows() {
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

    /// Every metric, so every series kind and every `CcRecoveries` label.
    const METRICS: [Metric; 20] = [
        Metric::Cwnd,
        Metric::Ssthresh,
        Metric::FlightBytes,
        Metric::RtoNs,
        Metric::CcRecoveryActive,
        Metric::CcRecoveries(CcVariant::Reno),
        Metric::CcRecoveries(CcVariant::NewReno),
        Metric::CcRecoveries(CcVariant::Sack),
        Metric::CcRecoveries(CcVariant::Cubic),
        Metric::FlightHist,
        Metric::QueueBytes,
        Metric::QueueBytesHist,
        Metric::DropsLoss,
        Metric::DropsOutage,
        Metric::DropsQueue,
        Metric::SynDrops,
        Metric::ServerConnections,
        Metric::ServerQueuedConnections,
        Metric::ServerBufferedBytes,
        Metric::PoolEffects,
    ];

    /// Seeded random write streams over 50 scopes and every metric, by
    /// id and keyed, read back exactly as the `Vec`-per-series reference
    /// does: `get` and `series` after every write, the summary and both
    /// renderings at the end. Same-tick writes, equal values and
    /// same-tick reverts are frequent by construction; values reach the
    /// top bucket, so histogram runs widen and are reused.
    #[test]
    fn random_records_read_back_as_the_keyed_reference_does() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let scopes: Vec<Scope> = std::iter::once(Scope::Global)
            .chain((0..6).map(|h| Scope::Host(HostId(h))))
            .chain((0..6).map(|l| Scope::Link {
                link: l / 2,
                a_to_b: l % 2 == 0,
            }))
            .chain((0..37).map(|c| {
                let host = HostId(c % 5);
                Scope::Conn {
                    host,
                    local: SockAddr::new(host, 40_000 + c),
                    remote: SockAddr::new(HostId(9), 80),
                }
            }))
            .collect();
        assert_eq!(scopes.len(), 50);

        for seed in [1, 1997] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sink = TelemetrySink::default();
            sink.enable();
            let mut reference = Reference::default();
            let mut now_ms = 0;
            for step in 0..2500 {
                now_ms += rng.gen_range(0..8u64);
                let now = at_ms(now_ms);
                let scope = scopes[rng.gen_range(0..scopes.len())];
                let metric = METRICS[rng.gen_range(0..METRICS.len())];
                let value = match rng.gen_range(0..8u32) {
                    0 => u64::MAX >> rng.gen_range(0..64u32),
                    _ => rng.gen_range(0..4u64) * 1460,
                };
                let by_id = rng.gen_range(0..2u32) == 0;
                match metric.kind() {
                    SeriesKind::Gauge => {
                        let changed = if by_id {
                            let id = sink.resolve(scope);
                            sink.gauge_changed_in(now, id, metric, value)
                        } else {
                            sink.gauge_changed(now, scope, metric, value)
                        };
                        assert_eq!(
                            changed,
                            reference.gauge_changed(now, scope, metric, value),
                            "seed {seed} step {step}"
                        );
                    }
                    SeriesKind::Counter => {
                        let delta = value % 3;
                        if by_id {
                            let id = sink.resolve(scope);
                            sink.counter_add_in(now, id, metric, delta);
                        } else {
                            sink.counter_add(now, scope, metric, delta);
                        }
                        reference.counter_add(now, scope, metric, delta);
                    }
                    SeriesKind::Histogram => {
                        if by_id {
                            let id = sink.resolve(scope);
                            sink.observe_in(id, metric, value);
                        } else {
                            sink.observe(scope, metric, value);
                        }
                        reference.observe(scope, metric, value);
                    }
                }
                let key = SeriesKey { scope, metric };
                assert_eq!(
                    sink.get(scope, metric).map(RefData::of).as_ref(),
                    reference.0.get(&key),
                    "seed {seed} step {step}: {key:?}"
                );
                let series = sink.series();
                assert_eq!(series.len(), reference.0.len());
                for (s, (key, data)) in series.iter().zip(&reference.0) {
                    assert_eq!(&s.key, key, "seed {seed} step {step}");
                    assert_eq!(&RefData::of(s.data), data, "seed {seed} step {step}");
                }
            }
            assert_eq!(sink.summary(), reference.summary());
            assert_eq!(sink.render_csv(), reference.render_csv());
            assert_eq!(sink.render_json("model"), reference.render_json("model"));
            assert!(sink.get(Scope::Host(HostId(77)), Metric::Cwnd).is_none());
            let unwritten = Scope::Link {
                link: 9,
                a_to_b: true,
            };
            assert!(sink.get(unwritten, Metric::QueueBytes).is_none());
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
