//! What a received body costs the allocator, pinned as the `body_alloc`
//! group of the count table (`count_table/mod.rs`): one clean LAN cell
//! fetching a 1 KiB or a 1 MiB object, over HTTP/1.1, pipelined and
//! multiplexed, with the full trace. The body travels from the store to
//! the client's response by reference, so the 1 MiB cell costs the
//! allocator a few hundred KiB more than the 1 KiB one, most of it the
//! trace's records; a copy of the body moves its row's bytes by a MiB.
//! One test, so nothing else in the process allocates while a row is
//! counted.

#[path = "count_table/body_cells.rs"]
mod body_cells;
mod count_table;

use count_table::{measure, Measured};
use counting_alloc::CountingAlloc;
use httpipe_core::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn a_received_body_is_not_copied() {
    let mut table = Measured::new("body_alloc");
    for (label, spec, len) in body_cells::cells() {
        let (out, cost) = measure(&spec, run_spec);
        assert_eq!(out.client_stats.body_bytes(), len, "{label}");
        table.row(format!("body {label}"), out.cell.packets(), cost);
    }
    table.verify();
}
