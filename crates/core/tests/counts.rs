//! What the simulated runs the gate digests cost the allocator, pinned as
//! the `counts` group of the count table (`count_table/mod.rs`): the 44
//! cells of Tables 4–9, stats-only and serial; two 16-client WAN fleets,
//! pipelined and multiplexed; and the congestion-control lab's 24 cells,
//! half of them at 2 % loss, serial, so every variant's recovery path
//! runs. A defect that costs one allocation per packet moves a row by
//! thousands. One test, so nothing else in the process allocates while a
//! row is counted.

mod count_table;

use count_table::{measure, Measured};
use counting_alloc::CountingAlloc;
use httpipe_core::experiments::{cc, protocol_matrix, scale, Size};
use httpipe_core::harness::{run_cells_threaded, run_fleet};
use httpipe_core::prelude::*;
use netsim::TraceMode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Packets a set of cells carried.
fn packets(cells: &[CellResult]) -> u64 {
    cells.iter().map(CellResult::packets).sum()
}

#[test]
fn every_count_matches_the_table() {
    let mut table = Measured::new("counts");
    let specs = || protocol_matrix::all_specs(TraceMode::StatsOnly);
    let (cells, cost) = measure(specs, |specs| run_cells_threaded(specs, Some(1)));
    table.row("matrix", packets(&cells), cost);
    let fleets = || {
        let setups = [ProtocolSetup::Http11Pipelined, ProtocolSetup::Multiplexed];
        let points = scale::grid(&[NetEnv::Wan], &setups, &[16]);
        points.iter().map(|p| p.spec()).collect::<Vec<_>>()
    };
    let run_fleets = |specs: Vec<_>| -> Vec<CellResult> {
        specs
            .into_iter()
            .flat_map(|s| run_fleet(s).per_client)
            .collect()
    };
    let (cells, cost) = measure(fleets, run_fleets);
    table.row("fleet16", packets(&cells), cost);
    let lossy = || cc::points(Size::Gate).iter().map(|p| p.spec()).collect();
    let (cells, cost) = measure(lossy, |specs| run_cells_threaded(specs, Some(1)));
    table.row("cc lossy", packets(&cells), cost);
    table.verify();
}
