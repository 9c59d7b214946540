//! The per-layer probes: names, units, sizes, repetitions and timing.
//! The bodies — everything that touches a repository type — are in
//! `surface.rs`. Every metric is the median of its repetitions; counts
//! are exact. Each repetition is a `layer` span carrying its operation
//! count.

use crate::alloc;
use crate::plan::{Cc, Content, Setup};
use crate::span::Tracer;
use crate::stats;
use crate::surface::{self, Fixture, Observer};
use std::time::Instant;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One measured per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// Timed repetitions behind the value (1 for an exact count).
    pub samples: usize,
}

use Better::{Higher, Lower};

/// Every metric the probes produce, in output order: name, unit,
/// direction. `BENCHMARK.json` lists the same (a test compares them).
pub const PROBE_METRICS: &[(&str, &str, Better)] = &[
    ("queue.near_ns_per_op", "ns", Lower),
    ("queue.timer_ns_per_op", "ns", Lower),
    ("queue.allocs_per_op", "count", Lower),
    ("link.transmit_ns", "ns", Lower),
    ("link.impaired_ns", "ns", Lower),
    ("link.impaired_drop_share", "ratio", Lower),
    ("tcp.bulk_ns_per_segment.reno", "ns", Lower),
    ("tcp.bulk_ns_per_segment.newreno", "ns", Lower),
    ("tcp.bulk_ns_per_segment.sack", "ns", Lower),
    ("tcp.bulk_ns_per_segment.cubic", "ns", Lower),
    ("tcp.lossy_ns_per_segment.sack", "ns", Lower),
    ("tcp.conn_ns", "ns", Lower),
    ("tcp.allocs_per_segment", "count", Lower),
    ("sim.bulk_ns_per_packet", "ns", Lower),
    ("sim.bulk_events_per_packet", "count", Lower),
    ("sim.allocs_per_packet", "count", Lower),
    ("sim.churn_us_per_conn", "us", Lower),
    ("sim.churn_packets_per_conn", "count", Lower),
    ("sim.fanin_ns_per_packet", "ns", Lower),
    ("sim.build_us", "us", Lower),
    ("trace.full_overhead_pct", "%", Lower),
    ("probe.overhead_pct", "%", Lower),
    ("telemetry.overhead_pct", "%", Lower),
    ("telemetry.fleet_overhead_pct.n64", "%", Lower),
    ("telemetry.fleet_overhead_pct.n128", "%", Lower),
    ("telemetry.gauge_ns.k16", "ns", Lower),
    ("telemetry.gauge_ns.k16384", "ns", Lower),
    ("telemetry.render_json_ms", "ms", Lower),
    ("probe.attribute_ns_per_record", "ns", Lower),
    ("pcapng.export_ns_per_packet", "ns", Lower),
    ("pcapng.parse_ns_per_packet", "ns", Lower),
    ("conformance.check_ns_per_segment", "ns", Lower),
    ("conformance.violations", "count", Lower),
    ("httpwire.request_build_ns", "ns", Lower),
    ("httpwire.request_parse_ns", "ns", Lower),
    ("httpwire.response_head_ns", "ns", Lower),
    ("httpwire.response_parse_ns", "ns", Lower),
    ("httpwire.allocs_per_message", "count", Lower),
    ("httpwire.body_ns_per_kib", "ns", Lower),
    ("httpwire.chunked_ns_per_kib", "ns", Lower),
    ("httpmux.exchange_ns_per_stream", "ns", Lower),
    ("httpmux.data_ns_per_kib", "ns", Lower),
    ("httpmux.allocs_per_stream", "count", Lower),
    ("http.revalidate_us_per_request", "us", Lower),
    ("http.firsttime_us_per_request", "us", Lower),
    ("http.bulk_us_per_kib.http11", "us", Lower),
    ("http.bulk_us_per_kib.pipelined", "us", Lower),
    ("http.bulk_us_per_kib.mux", "us", Lower),
    ("httpclient.cache_prime_us", "us", Lower),
    ("httpclient.discover_ns_per_kib", "ns", Lower),
    ("httpserver.store_build_ms", "ms", Lower),
    ("flate.deflate_mb_s", "MB/s", Higher),
    ("flate.inflate_mb_s", "MB/s", Higher),
    ("flate.ratio", "ratio", Lower),
    ("webcontent.site_build_ms", "ms", Lower),
    ("webcontent.convert_site_ms", "ms", Lower),
    ("harness.matrix_spec_us.firsttime", "us", Lower),
    ("harness.matrix_spec_us.revalidate", "us", Lower),
    ("harness.threads2_speedup", "x", Higher),
];

/// Repetitions of a probe whose repetition takes milliseconds …
const REPS: usize = 7;
/// … and of one that takes a large fraction of a second (these also run
/// without a warm-up repetition, or the traced run would not fit its
/// time limit). The sample count is printed beside every metric.
const HEAVY_REPS: usize = 3;

struct Probes<'a> {
    tr: &'a mut Tracer,
    /// 1, or 16 under `--quick`.
    scale: u64,
    out: Vec<Metric>,
}

impl Probes<'_> {
    fn push(&mut self, name: &'static str, value: f64, samples: usize) {
        let &(_, unit, better) = PROBE_METRICS
            .iter()
            .find(|(n, ..)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in PROBE_METRICS"));
        self.out.push(Metric {
            name,
            unit,
            better,
            value,
            samples,
        });
    }

    fn n(&self, full: u64) -> u64 {
        (full / self.scale).max(1)
    }

    /// One timed repetition of `body` (which returns its operation count).
    fn once(&mut self, name: &'static str, body: &mut dyn FnMut() -> f64) -> f64 {
        let span = self.tr.enter("layer", || name.to_string());
        let start = Instant::now();
        let ops = body();
        let secs = start.elapsed().as_secs_f64();
        self.tr.exit(span, ops as u64);
        secs / ops
    }

    /// Median seconds per operation of [`REPS`] timed repetitions after
    /// a warm-up.
    fn time(&mut self, name: &'static str, mut body: impl FnMut() -> f64) -> f64 {
        body();
        let per_op: Vec<f64> = (0..REPS).map(|_| self.once(name, &mut body)).collect();
        stats::median(&per_op)
    }

    /// [`Probes::time`] `body` and record the result, in units of
    /// 1/`per_second` seconds, as metric `name`.
    fn record(&mut self, name: &'static str, per_second: f64, body: impl FnMut() -> f64) {
        let t = self.time(name, body);
        self.push(name, t * per_second, REPS);
    }

    /// As [`Probes::record`], but [`HEAVY_REPS`] repetitions and no warm-up.
    fn record_heavy(&mut self, name: &'static str, per_second: f64, mut body: impl FnMut() -> f64) {
        let per_op: Vec<f64> = (0..HEAVY_REPS)
            .map(|_| self.once(name, &mut body))
            .collect();
        self.push(name, stats::median(&per_op) * per_second, HEAVY_REPS);
    }

    /// Median time of `b` over median time of `a`, the two alternating
    /// so that drift hits both.
    fn ratio(
        &mut self,
        name: &'static str,
        reps: usize,
        mut a: impl FnMut() -> f64,
        mut b: impl FnMut() -> f64,
    ) -> f64 {
        let (mut a_secs, mut b_secs) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            a_secs.push(self.once(name, &mut a));
            b_secs.push(self.once(name, &mut b));
        }
        stats::median(&b_secs) / stats::median(&a_secs)
    }

    /// How much longer `on` takes than `off`, in percent of `off`,
    /// recorded as metric `name`.
    fn record_overhead(
        &mut self,
        name: &'static str,
        reps: usize,
        off: impl FnMut() -> f64,
        on: impl FnMut() -> f64,
    ) {
        let ratio = self.ratio(name, reps, off, on);
        self.push(name, (ratio - 1.0) * 100.0, reps);
    }
}

/// Allocations per operation of one (already warm) call of `body`.
fn allocs_per_op(mut body: impl FnMut() -> f64) -> f64 {
    let before = alloc::snapshot();
    let ops = body();
    alloc::snapshot().since(before).allocs as f64 / ops
}

const NS: f64 = 1e9;
const US: f64 = 1e6;
const MS: f64 = 1e3;

/// Run every probe. `quick` divides the sizes by 16.
pub fn run(tr: &mut Tracer, quick: bool, seed: u64) -> Vec<Metric> {
    let mut p = Probes {
        tr,
        scale: if quick { 16 } else { 1 },
        out: Vec::with_capacity(PROBE_METRICS.len()),
    };
    queue(&mut p);
    link(&mut p);
    tcp(&mut p);
    sim(&mut p);
    observers(&mut p);
    let fixture = Fixture::new(p.n(64) as u32, (p.n(1 << 20) as usize).max(64 << 10));
    retained(&mut p, &fixture);
    httpwire(&mut p);
    httpmux(&mut p);
    http(&mut p, &fixture);
    content(&mut p, &fixture);
    harness(&mut p, seed);
    let names: Vec<&str> = p.out.iter().map(|m| m.name).collect();
    let table: Vec<&str> = PROBE_METRICS.iter().map(|(n, ..)| *n).collect();
    assert_eq!(names, table, "the probes produce exactly PROBE_METRICS");
    p.out
}

fn queue(p: &mut Probes) {
    let n = p.n(1 << 16);
    p.record("queue.near_ns_per_op", NS, || surface::queue_near(n) as f64);
    let pending = p.n(1 << 14);
    p.record("queue.timer_ns_per_op", NS, || {
        surface::queue_timers(n, pending) as f64
    });
    let allocs = allocs_per_op(|| surface::queue_near(n) as f64);
    p.push("queue.allocs_per_op", allocs, 1);
}

fn link(p: &mut Probes) {
    let n = p.n(1 << 16);
    p.record("link.transmit_ns", NS, || {
        surface::link_transmit(n, false).0 as f64
    });
    p.record("link.impaired_ns", NS, || {
        surface::link_transmit(n, true).0 as f64
    });
    let (sent, drops) = surface::link_transmit(n, true);
    p.push("link.impaired_drop_share", drops as f64 / sent as f64, 1);
}

fn tcp(p: &mut Probes) {
    let bytes = p.n(4 << 20) as usize;
    for (name, cc) in [
        ("tcp.bulk_ns_per_segment.reno", Cc::Reno),
        ("tcp.bulk_ns_per_segment.newreno", Cc::NewReno),
        ("tcp.bulk_ns_per_segment.sack", Cc::Sack),
        ("tcp.bulk_ns_per_segment.cubic", Cc::Cubic),
    ] {
        p.record(name, NS, || surface::tcp_transfer(cc, bytes, None) as f64);
    }
    p.record("tcp.lossy_ns_per_segment.sack", NS, || {
        surface::tcp_transfer(Cc::Sack, bytes, Some(50)) as f64
    });
    let conns = p.n(2048);
    p.record("tcp.conn_ns", NS, || {
        for _ in 0..conns {
            surface::tcp_transfer(Cc::Reno, 0, None);
        }
        conns as f64
    });
    let allocs = allocs_per_op(|| surface::tcp_transfer(Cc::Reno, bytes, None) as f64);
    p.push("tcp.allocs_per_segment", allocs, 1);
}

fn sim(p: &mut Probes) {
    let bytes = p.n(8 << 20) as usize;
    let mut events_per_packet = 0.0;
    p.record("sim.bulk_ns_per_packet", NS, || {
        let run = surface::sim_transfer(1, 1, bytes);
        events_per_packet = run.events as f64 / run.packets as f64;
        run.packets as f64
    });
    p.push("sim.bulk_events_per_packet", events_per_packet, 1);
    let allocs = allocs_per_op(|| surface::sim_transfer(1, 1, bytes).packets as f64);
    p.push("sim.allocs_per_packet", allocs, 1);

    let conns = p.n(2000) as u32;
    let mut packets_per_conn = 0.0;
    p.record("sim.churn_us_per_conn", US, || {
        let run = surface::sim_transfer(1, conns, 200);
        packets_per_conn = run.packets as f64 / run.conns as f64;
        run.conns as f64
    });
    p.push("sim.churn_packets_per_conn", packets_per_conn, 1);

    let spokes = p.n(256).max(2) as u16;
    p.record("sim.fanin_ns_per_packet", NS, || {
        surface::sim_transfer(spokes, 1, 64 << 10).packets as f64
    });

    let builds = p.n(4096);
    p.record("sim.build_us", US, || surface::sim_build(builds) as f64);
}

fn observers(p: &mut Probes) {
    for (name, observer) in [
        ("trace.full_overhead_pct", Observer::FullTrace),
        ("probe.overhead_pct", Observer::Probe),
        ("telemetry.overhead_pct", Observer::Telemetry),
    ] {
        // The 44 cells are the measure; `--quick` keeps them and cuts repetitions.
        let reps = if p.scale == 1 { REPS } else { 1 };
        surface::matrix_sweep(observer);
        p.record_overhead(
            name,
            reps,
            || surface::matrix_sweep(Observer::None) as f64,
            || surface::matrix_sweep(observer) as f64,
        );
    }
    for (name, clients) in [
        ("telemetry.fleet_overhead_pct.n64", 64),
        ("telemetry.fleet_overhead_pct.n128", 128),
    ] {
        let clients = p.n(clients) as u32;
        p.record_overhead(
            name,
            HEAVY_REPS,
            || surface::telemetry_fleet(clients, false) as f64,
            || surface::telemetry_fleet(clients, true) as f64,
        );
    }
    p.record("telemetry.gauge_ns.k16", NS, || {
        surface::telemetry_gauge(16, 4096) as f64
    });
    let k = p.n(16_384) as u32;
    p.record_heavy("telemetry.gauge_ns.k16384", NS, || {
        surface::telemetry_gauge(k, 4) as f64
    });
}

/// Probes that re-read what a finished run retained.
fn retained(p: &mut Probes, f: &Fixture) {
    p.record("telemetry.render_json_ms", MS, || {
        f.telemetry_render_json();
        1.0
    });
    let iters = p.n(32);
    p.record("probe.attribute_ns_per_record", NS, || {
        f.probe_attribute(iters) as f64
    });
    p.record("pcapng.export_ns_per_packet", NS, || {
        f.pcap_export(iters) as f64
    });
    p.record("pcapng.parse_ns_per_packet", NS, || {
        f.pcap_parse(iters) as f64
    });
    let mut violations = 0;
    p.record("conformance.check_ns_per_segment", NS, || {
        let (segments, v) = f.conformance_check(iters);
        violations = v;
        segments as f64
    });
    p.push("conformance.violations", violations as f64, 1);
}

fn httpwire(p: &mut Probes) {
    let n = p.n(1 << 13);
    p.record("httpwire.request_build_ns", NS, || {
        surface::wire_request_build(n) as f64
    });
    p.record("httpwire.request_parse_ns", NS, || {
        surface::wire_request_parse(n) as f64
    });
    p.record("httpwire.response_head_ns", NS, || {
        surface::wire_response_head(n) as f64
    });
    p.record("httpwire.response_parse_ns", NS, || {
        surface::wire_response_parse(n) as f64
    });
    surface::wire_round_trip(n);
    let allocs = allocs_per_op(|| surface::wire_round_trip(n) as f64);
    p.push("httpwire.allocs_per_message", allocs, 1);
    let body = p.n(4 << 20) as usize;
    p.record("httpwire.body_ns_per_kib", NS, || {
        surface::wire_body(body, false)
    });
    // A sixteenth of that: the chunked path decodes its whole buffer
    // again after every segment, so its cost grows with the square.
    p.record("httpwire.chunked_ns_per_kib", NS, || {
        surface::wire_body(body / 16, true)
    });
}

fn httpmux(p: &mut Probes) {
    let streams = p.n(64).max(4);
    p.record("httpmux.exchange_ns_per_stream", NS, || {
        surface::mux_exchange(streams, 8 << 10) as f64
    });
    let body = p.n(4 << 20) as usize;
    p.record("httpmux.data_ns_per_kib", NS, || {
        surface::mux_exchange(1, body);
        body as f64 / 1024.0
    });
    let allocs = allocs_per_op(|| surface::mux_exchange(streams, 8 << 10) as f64);
    p.push("httpmux.allocs_per_stream", allocs, 1);
}

fn http(p: &mut Probes, f: &Fixture) {
    let iters = p.n(16);
    p.record("http.revalidate_us_per_request", US, || {
        f.http_cell(Content::Revalidate, iters) as f64
    });
    p.record("http.firsttime_us_per_request", US, || {
        f.http_cell(Content::FirstTime, iters) as f64
    });
    for (name, setup) in [
        ("http.bulk_us_per_kib.http11", Setup::Http11),
        ("http.bulk_us_per_kib.pipelined", Setup::Pipelined),
        ("http.bulk_us_per_kib.mux", Setup::Mux),
    ] {
        p.record_heavy(name, US, || f.http_bulk(setup) as f64);
    }
    let iters = p.n(64);
    p.record("httpclient.cache_prime_us", US, || {
        f.cache_prime(iters) as f64
    });
    p.record("httpclient.discover_ns_per_kib", NS, || f.discover(iters));
    let iters = p.n(16).min(4);
    p.record("httpserver.store_build_ms", MS, || {
        f.store_build(iters) as f64
    });
}

fn content(p: &mut Probes, f: &Fixture) {
    let iters = p.n(16).min(4);
    let mut ratio = 0.0;
    let t = p.time("flate.deflate_mb_s", || {
        let (input, output) = f.deflate(iters);
        ratio = output as f64 / input as f64;
        input as f64
    });
    p.push("flate.deflate_mb_s", 1.0 / t / 1e6, REPS);
    let t = p.time("flate.inflate_mb_s", || f.inflate(iters * 4) as f64);
    p.push("flate.inflate_mb_s", 1.0 / t / 1e6, REPS);
    p.push("flate.ratio", ratio, 1);
    p.record_heavy("webcontent.site_build_ms", MS, || {
        surface::site_build();
        1.0
    });
    p.record_heavy("webcontent.convert_site_ms", MS, || {
        f.convert_site();
        1.0
    });
}

fn harness(p: &mut Probes, seed: u64) {
    // A revalidation spec primes a client cache: thousands of times dearer.
    for (name, content, n) in [
        ("harness.matrix_spec_us.firsttime", Content::FirstTime, 4096),
        ("harness.matrix_spec_us.revalidate", Content::Revalidate, 64),
    ] {
        let n = p.n(n);
        p.record(name, US, || surface::matrix_specs(content, n) as f64);
    }
    // The only multi-threaded measurement; it means nothing on one core,
    // and the run manifest records how many there were.
    let reps = if p.scale == 1 { HEAVY_REPS } else { 1 };
    let speedup = p.ratio(
        "harness.threads2_speedup",
        reps,
        || surface::threaded_lossgrid(seed, 2) as f64,
        || surface::threaded_lossgrid(seed, 1) as f64,
    );
    p.push("harness.threads2_speedup", speedup, reps);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_at_least_45_probe_metrics_under_distinct_names() {
        let mut names: Vec<&str> = PROBE_METRICS.iter().map(|(n, ..)| *n).collect();
        assert!(names.len() >= 45, "the ledger promises at least 45");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PROBE_METRICS.len());
    }
}
