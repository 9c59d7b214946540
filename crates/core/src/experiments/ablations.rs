//! Ablation sweeps over the design choices the paper discusses tuning:
//!
//! * the pipeline output-buffer threshold ("we experimented with the
//!   output buffer size and found that 1024 bytes is a good compromise");
//! * the flush timer ("it is not clear what the optimal flush time-out
//!   period is");
//! * the explicit application flush versus relying on the timer;
//! * TCP's initial congestion window ("some TCP stacks implement slow
//!   start using one TCP segment whereas others implement it using two").

use crate::env::NetEnv;
use crate::harness::{matrix_spec, run_cells, run_spec, ProtocolSetup, Scenario};
use crate::result::{CellResult, Table};
use httpserver::ServerKind;
use netsim::{SimDuration, TcpConfig};

/// Sweep the pipeline buffer threshold for the revalidation workload;
/// the sweep points run in parallel.
pub fn buffer_threshold_sweep(env: NetEnv) -> Vec<(usize, CellResult)> {
    let thresholds = [128usize, 256, 512, 1024, 2048, 4096];
    let specs = thresholds
        .into_iter()
        .map(|threshold| {
            let mut spec = matrix_spec(
                env,
                ServerKind::Apache,
                ProtocolSetup::Http11Pipelined,
                Scenario::Revalidate,
            );
            spec.client.pipeline_buffer = threshold;
            spec
        })
        .collect();
    thresholds.into_iter().zip(run_cells(specs)).collect()
}

/// Sweep the flush timer with the application flush disabled (the
/// untuned client), revalidation workload; parallel sweep points.
pub fn flush_timer_sweep(env: NetEnv) -> Vec<(u64, CellResult)> {
    let timeouts = [10u64, 50, 200, 1000];
    let specs = timeouts
        .into_iter()
        .map(|ms| {
            let mut spec = matrix_spec(
                env,
                ServerKind::Apache,
                ProtocolSetup::Http11Pipelined,
                Scenario::Revalidate,
            );
            spec.client = spec
                .client
                .with_app_flush(false)
                .with_flush_timeout(SimDuration::from_millis(ms));
            spec
        })
        .collect();
    timeouts.into_iter().zip(run_cells(specs)).collect()
}

/// Application flush on/off, first-time retrieval (where the explicit
/// flush after the HTML request matters most).
pub fn app_flush_ablation(env: NetEnv) -> (CellResult, CellResult) {
    let with = run_spec(matrix_spec(
        env,
        ServerKind::Apache,
        ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    ))
    .cell;
    let mut spec = matrix_spec(
        env,
        ServerKind::Apache,
        ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    spec.client = spec
        .client
        .with_app_flush(false)
        .with_flush_timeout(SimDuration::from_millis(1000));
    let without = run_spec(spec).cell;
    (with, without)
}

/// Initial congestion window of 1 vs 2 segments, first-time retrieval;
/// parallel sweep points.
pub fn initial_cwnd_ablation(env: NetEnv) -> Vec<(u32, CellResult)> {
    let cwnds = [1u32, 2, 4];
    let specs = cwnds
        .into_iter()
        .map(|cwnd| {
            let mut spec = matrix_spec(
                env,
                ServerKind::Apache,
                ProtocolSetup::Http11Pipelined,
                Scenario::FirstTime,
            );
            let tcp = TcpConfig {
                initial_cwnd_segments: cwnd,
                ..TcpConfig::default()
            };
            spec.tcp = Some(tcp);
            spec
        })
        .collect();
    cwnds.into_iter().zip(run_cells(specs)).collect()
}

/// The ablations section of EXPERIMENTS.md. Each sweep runs in the
/// environment where its effect is visible: buffer and timer on the LAN,
/// flush policy and initial cwnd on the latency-dominated WAN.
pub(crate) fn section() -> String {
    let pa_sec = |c: &CellResult| vec![c.packets().to_string(), format!("{:.2}", c.secs)];
    let (lan, wan) = (NetEnv::Lan.name(), NetEnv::Wan.name());
    let title = format!("Pipeline buffer threshold sweep - revalidation, {lan}");
    let mut buffer = Table::new(&title, &["Pa", "Bytes", "Sec"]);
    for (threshold, c) in buffer_threshold_sweep(NetEnv::Lan) {
        let mut cols = pa_sec(&c);
        cols.insert(1, c.bytes.to_string());
        buffer.push_row(&format!("{threshold} B"), cols);
    }
    let title = format!("Flush timer sweep (no app flush) - revalidation, {lan}");
    let mut timer = Table::new(&title, &["Pa", "Sec"]);
    for (ms, c) in flush_timer_sweep(NetEnv::Lan) {
        timer.push_row(&format!("{ms} ms"), pa_sec(&c));
    }
    let (with, without) = app_flush_ablation(NetEnv::Wan);
    let title = format!("Application flush - first-time retrieval, {wan}");
    let mut flush = Table::new(&title, &["Pa", "Sec"]);
    flush.push_row("explicit app flush", pa_sec(&with));
    flush.push_row("timer only (1s)", pa_sec(&without));
    let title = format!("Initial congestion window - first-time retrieval, {wan}");
    let mut cwnd = Table::new(&title, &["Pa", "Sec"]);
    for (n, c) in initial_cwnd_ablation(NetEnv::Wan) {
        cwnd.push_row(&format!("{n} segment(s)"), pa_sec(&c));
    }
    let tables: String = [buffer, timer, flush, cwnd]
        .iter()
        .map(|t| t.render() + "\n")
        .collect();
    format!("## Design-choice ablations (`repro ablations`)\n\n```\n{tables}```\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_buffer_thresholds_complete() {
        for (threshold, c) in buffer_threshold_sweep(NetEnv::Lan) {
            assert_eq!(c.fetched, 43, "threshold {threshold}");
            assert_eq!(c.validated, 43, "threshold {threshold}");
        }
    }

    #[test]
    fn smaller_buffers_cost_packets() {
        let sweep = buffer_threshold_sweep(NetEnv::Lan);
        let tiny = sweep.first().unwrap().1.packets();
        let tuned = sweep.iter().find(|(t, _)| *t == 1024).unwrap().1.packets();
        assert!(
            tiny >= tuned,
            "128B buffer ({tiny}) should not beat 1024B ({tuned})"
        );
    }

    #[test]
    fn slow_flush_timer_hurts_untuned_clients() {
        let sweep = flush_timer_sweep(NetEnv::Lan);
        let fast = sweep.iter().find(|(ms, _)| *ms == 10).unwrap().1.secs;
        let slow = sweep.iter().find(|(ms, _)| *ms == 1000).unwrap().1.secs;
        assert!(
            slow > fast,
            "a 1s flush timer should cost elapsed time: {slow:.2} vs {fast:.2}"
        );
    }

    #[test]
    fn app_flush_beats_timer_only() {
        let (with, without) = app_flush_ablation(NetEnv::Wan);
        assert!(
            with.secs < without.secs,
            "explicit flush should win: {:.2} vs {:.2}",
            with.secs,
            without.secs
        );
    }

    #[test]
    fn larger_initial_cwnd_saves_round_trips_on_wan() {
        let sweep = initial_cwnd_ablation(NetEnv::Wan);
        let one = sweep.iter().find(|(c, _)| *c == 1).unwrap().1.secs;
        let four = sweep.iter().find(|(c, _)| *c == 4).unwrap().1.secs;
        assert!(
            four <= one,
            "bigger initial window cannot be slower: {four:.2} vs {one:.2}"
        );
        for (_, c) in &sweep {
            assert_eq!(c.fetched, 43);
        }
    }
}
