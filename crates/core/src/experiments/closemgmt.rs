//! The connection-management study (§"Connection Management").
//!
//! A server may close a persistent connection between any two responses;
//! the paper shows why it must close each half *independently* (stop
//! sending, keep draining) rather than closing both at once: the naive
//! close RSTs the client, and the RST destroys responses the client's
//! TCP had already received but not yet delivered. The client then
//! cannot tell which requests succeeded and must re-fetch defensively.

use crate::env::NetEnv;
use crate::harness::{matrix_spec, run_cells, CellSpec, ProtocolSetup, Scenario};
use crate::result::{CellResult, Table};
use httpserver::ServerKind;

/// Outcome of a pipelined first-time fetch against a server that closes
/// after `limit` requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloseOutcome {
    /// Metrics of the run.
    pub cell: CellResult,
    /// Whether the server closed naively.
    pub naive: bool,
    /// Requests served per connection before closing.
    pub limit: u32,
}

/// The cell whose server closes after `limit` requests, either naively
/// (both halves at once) or correctly (half-close + drain).
fn close_spec(env: NetEnv, limit: u32, naive: bool) -> CellSpec {
    let mut spec = matrix_spec(
        env,
        ServerKind::Apache,
        ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    spec.server = spec.server.with_max_requests(limit).with_naive_close(naive);
    spec
}

/// Compare unlimited / graceful-limited / naive-limited servers; the
/// three variants run in parallel.
pub fn close_study(env: NetEnv, limit: u32) -> (CellResult, CloseOutcome, CloseOutcome) {
    let specs = vec![
        matrix_spec(
            env,
            ServerKind::Apache,
            ProtocolSetup::Http11Pipelined,
            Scenario::FirstTime,
        ),
        close_spec(env, limit, false),
        close_spec(env, limit, true),
    ];
    let mut cells = run_cells(specs).into_iter();
    let unlimited = cells.next().unwrap();
    let graceful = CloseOutcome {
        cell: cells.next().unwrap(),
        naive: false,
        limit,
    };
    let naive = CloseOutcome {
        cell: cells.next().unwrap(),
        naive: true,
        limit,
    };
    (unlimited, graceful, naive)
}

/// Render the study.
pub fn close_table(env: NetEnv, limit: u32) -> Table {
    let (unlimited, graceful, naive) = close_study(env, limit);
    let mut t = Table::new(
        &format!(
            "Connection management - pipelined first-time fetch, server closes after {limit} requests ({})",
            env.name()
        ),
        &["Pa", "Sec", "Conns", "Retries", "RSTs seen"],
    );
    for (label, c) in [
        ("No limit", &unlimited),
        ("Limit, independent half-close", &graceful.cell),
        ("Limit, naive close", &naive.cell),
    ] {
        t.push_row(
            label,
            vec![
                c.packets().to_string(),
                format!("{:.2}", c.secs),
                c.sockets_used.to_string(),
                c.retries.to_string(),
                c.resets.to_string(),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_force_reconnects_but_work_completes() {
        let (unlimited, graceful, naive) = close_study(NetEnv::Ppp, 5);
        assert_eq!(unlimited.fetched, 43);
        assert_eq!(graceful.cell.fetched, 43);
        assert_eq!(
            naive.cell.fetched, 43,
            "all objects recovered even after RSTs"
        );
        assert_eq!(unlimited.sockets_used, 1);
        // 43 requests / 5 per connection => at least 9 connections.
        assert!(
            graceful.cell.sockets_used >= 8,
            "{}",
            graceful.cell.sockets_used
        );
    }

    #[test]
    fn naive_close_causes_resets_and_waste() {
        let (_, graceful, naive) = close_study(NetEnv::Ppp, 5);
        assert!(
            naive.cell.resets > 0,
            "naive close must RST the pipelined client"
        );
        assert_eq!(graceful.cell.resets, 0, "correct close never resets");
        // The naive server wastes work: retried requests and packets.
        assert!(naive.cell.retries >= graceful.cell.retries);
    }

    #[test]
    fn limits_cost_packets_versus_unlimited() {
        let (unlimited, graceful, _) = close_study(NetEnv::Ppp, 5);
        assert!(
            graceful.cell.packets() > unlimited.packets(),
            "extra handshakes and slow starts: {} vs {}",
            graceful.cell.packets(),
            unlimited.packets()
        );
    }
}
