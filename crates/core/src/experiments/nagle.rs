//! The Nagle-interaction study.
//!
//! The paper (and Heidemann [7]) found that an application that buffers
//! its output interacts badly with the Nagle algorithm: the sub-MSS tail
//! of a buffered write is held by Nagle until earlier data is ACKed, and
//! the receiver's delayed-ACK timer can hold that ACK for up to 200 ms.
//! With *good* buffering the segments are large and Nagle rarely bites;
//! with per-request writes it bites constantly. The recommendation:
//! buffered pipelined implementations should set TCP_NODELAY.

use crate::env::NetEnv;
use crate::harness::{matrix_spec, run_cells, run_spec, CellSpec, ProtocolSetup, Scenario};
use crate::result::CellResult;
use httpserver::ServerKind;

/// One Nagle configuration: client/server TCP_NODELAY plus whether the
/// client buffers its pipeline writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NagleCase {
    /// TCP_NODELAY set on both ends.
    pub nodelay: bool,
    /// The client buffers its pipeline writes.
    pub buffered: bool,
}

impl NagleCase {
    /// Human-readable label for reports.
    pub fn label(self) -> String {
        format!(
            "{} / {}",
            if self.buffered {
                "buffered"
            } else {
                "per-request writes"
            },
            if self.nodelay {
                "TCP_NODELAY"
            } else {
                "Nagle on"
            },
        )
    }
}

/// Run the pipelined revalidation under one Nagle configuration.
///
/// Jigsaw is the server under test, as in the paper's tuning story: its
/// per-response writes outpace the client's request stream near the end
/// of the batch, so with Nagle enabled the sub-MSS responses wait on the
/// client's delayed ACK — "the first change to the server" was setting
/// TCP_NODELAY.
pub fn run_nagle_cell(env: NetEnv, case: NagleCase) -> CellResult {
    run_spec(nagle_spec(env, case)).cell
}

fn nagle_spec(env: NetEnv, case: NagleCase) -> CellSpec {
    let mut spec = matrix_spec(
        env,
        ServerKind::Jigsaw,
        ProtocolSetup::Http11Pipelined,
        Scenario::Revalidate,
    );
    spec.client = spec.client.with_nodelay(case.nodelay);
    spec.server = spec.server.with_nodelay(case.nodelay);
    if !case.buffered {
        // Defeat the pipeline buffer: every request is written to the
        // socket on its own.
        spec.client.pipeline_buffer = 1;
    }
    spec
}

/// All four combinations for one environment, run in parallel.
pub fn nagle_cells(env: NetEnv) -> Vec<(NagleCase, CellResult)> {
    let cases: Vec<NagleCase> = [true, false]
        .into_iter()
        .flat_map(|buffered| {
            [true, false]
                .into_iter()
                .map(move |nodelay| NagleCase { nodelay, buffered })
        })
        .collect();
    let specs = cases.iter().map(|&case| nagle_spec(env, case)).collect();
    cases.into_iter().zip(run_cells(specs)).collect()
}

/// The Nagle section of EXPERIMENTS.md (LAN).
pub(crate) fn section() -> String {
    let mut out = String::from(
        "## Nagle interaction (`repro nagle`)\n\n\
         | Case (Jigsaw, LAN revalidation) | Measured Pa / Sec |\n|---|---|\n",
    );
    for (case, cell) in nagle_cells(NetEnv::Lan) {
        out += &format!(
            "| {} | {} / {:.3}s |\n",
            case.label(),
            cell.packets(),
            cell.secs
        );
    }
    out + "\nPaper: the two buffering algorithms \"tend to interfere, and using them\n\
           together will often cause very significant performance degradation\" —\n\
           the buffered/Nagle-on row shows the ~200 ms delayed-ACK stall, and the\n\
           recommendation (TCP_NODELAY for buffered implementations) removes it.\n\
           The per-request rows show the flip side: Nagle exists precisely to\n\
           coalesce small writes, which is why the paper's *initial* tests saw no\n\
           problem until buffering strategies changed.\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cases_complete() {
        for (case, cell) in nagle_cells(NetEnv::Lan) {
            assert_eq!(cell.fetched, 43, "{}", case.label());
            assert_eq!(cell.validated, 43, "{}", case.label());
        }
    }

    #[test]
    fn buffered_plus_nagle_stalls_behind_delayed_acks() {
        // The paper: "These two buffering algorithms tend to interfere,
        // and using them together will often cause very significant
        // performance degradation" — the server's buffered sub-MSS
        // response writes wait on the client's delayed ACK (~200 ms).
        let nagle_on = run_nagle_cell(
            NetEnv::Lan,
            NagleCase {
                nodelay: false,
                buffered: true,
            },
        );
        let nagle_off = run_nagle_cell(
            NetEnv::Lan,
            NagleCase {
                nodelay: true,
                buffered: true,
            },
        );
        assert!(
            nagle_on.secs > nagle_off.secs + 0.15,
            "Nagle stall should add ~200ms: {:.3}s vs {:.3}s",
            nagle_on.secs,
            nagle_off.secs
        );
    }

    #[test]
    fn nagle_coalesces_unbuffered_writes() {
        // The flip side (and why the paper's *initial* unbuffered tests
        // saw no Nagle problem): with per-request writes, Nagle does the
        // batching itself — same packet count as explicit buffering —
        // because the pipelined client keeps ACKs flowing.
        let unbuffered_nagle = run_nagle_cell(
            NetEnv::Lan,
            NagleCase {
                nodelay: false,
                buffered: false,
            },
        );
        let buffered = run_nagle_cell(
            NetEnv::Lan,
            NagleCase {
                nodelay: true,
                buffered: true,
            },
        );
        assert!(
            unbuffered_nagle.packets() <= buffered.packets() + 8,
            "Nagle should coalesce the request trickle: {} vs {}",
            unbuffered_nagle.packets(),
            buffered.packets()
        );
    }

    #[test]
    fn unbuffered_writes_cost_packets() {
        let buffered = run_nagle_cell(
            NetEnv::Lan,
            NagleCase {
                nodelay: true,
                buffered: true,
            },
        );
        let unbuffered = run_nagle_cell(
            NetEnv::Lan,
            NagleCase {
                nodelay: true,
                buffered: false,
            },
        );
        assert!(
            unbuffered.packets() > buffered.packets() * 2,
            "per-request writes explode the packet count: {} vs {}",
            unbuffered.packets(),
            buffered.packets()
        );
    }
}
