//! What a run's message heads and the robot's per-object state cost the
//! allocator, pinned as the `head_alloc` group of the count table
//! (`count_table/mod.rs`): three clean LAN cells of 43 requests —
//! pipelined HTTP/1.1 and the multiplexed transport, first time, and
//! HTTP/1.0 revalidation with `HEAD`s, whose 43 answers are each a 200
//! written to a cache shared with the primed one.
//!
//! A head takes its one buffer from the pool and hands it back, so a
//! `String` made for a header value, a map that frees its buffer, or a
//! second buffer per head moves these counts by one per message. A client
//! makes each object's path once, when something first names it, and not
//! at all when the primed cache holds it; a cache shared with the primed
//! one writes beside it and copies none of it. A second copy of a path, or
//! a write that copies the primed entries, moves them by one per object.
//! One test, so nothing else in the process allocates while a row is
//! counted.

mod count_table;

use count_table::{measure, Measured};
use counting_alloc::CountingAlloc;
use httpipe_core::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn a_head_costs_the_allocator_nothing() {
    let mut table = Measured::new("head_alloc");
    for (name, setup, scenario) in [
        (
            "head pipelined",
            ProtocolSetup::Http11Pipelined,
            Scenario::FirstTime,
        ),
        ("head mux", ProtocolSetup::Multiplexed, Scenario::FirstTime),
        (
            "head revalidate",
            ProtocolSetup::Http10,
            Scenario::Revalidate,
        ),
    ] {
        let spec = || matrix_spec(NetEnv::Lan, ServerKind::Apache, setup, scenario);
        let (out, cost) = measure(spec, run_spec);
        assert_eq!(out.client_stats.requests_sent, 43, "{name}");
        table.row(name, out.cell.packets(), cost);
    }
    table.verify();
}
