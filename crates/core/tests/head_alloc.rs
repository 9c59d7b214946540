//! What a run's message heads cost the allocator, pinned as exact counts:
//! one clean LAN cell fetching the site first-time over pipelined
//! HTTP/1.1, and the same over the multiplexed transport, each counted
//! after a warm-up run that fills the buffer pools. A head takes its one
//! buffer from the pool and hands it back, so a `String` made for a
//! header value, a map that frees its buffer, or a second buffer per head
//! moves these counts by one per message. One test, so nothing else in
//! the process allocates while a run is counted.

use counting_alloc::{allocations, CountingAlloc};
use httpipe_core::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn a_head_costs_the_allocator_nothing() {
    for (setup, pinned) in [
        (ProtocolSetup::Http11Pipelined, 518),
        (ProtocolSetup::Multiplexed, 584),
    ] {
        let spec = || matrix_spec(NetEnv::Lan, ServerKind::Apache, setup, Scenario::FirstTime);
        let warm = run_spec(spec());
        let counted = spec();
        let before = allocations();
        let out = run_spec(counted);
        let allocs = allocations() - before;
        assert_eq!(out.cell, warm.cell, "{setup:?}: the runs agree");
        let requests = out.server_stats.requests;
        assert_eq!(
            allocs, pinned,
            "{setup:?}: {allocs} allocations for {requests} requests"
        );
    }
}
