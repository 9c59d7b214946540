//! What a received body costs the allocator, pinned as a count: one clean
//! LAN cell fetching a 1 MiB object, over HTTP/1.1, pipelined and
//! multiplexed. The body travels from the store to the client's response
//! by reference, so each byte of it costs the allocator a small fraction
//! of a byte — counted against the same cell fetching a 1 KiB object,
//! which prices everything a run costs whatever its body. One test, so
//! nothing else in the process allocates while a run is counted.

use counting_alloc::{allocated_bytes, CountingAlloc};
use httpipe_core::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const BIG: usize = 1 << 20;
const SMALL: usize = 1 << 10;

#[test]
fn a_received_body_is_not_copied() {
    let object = |len: usize| (0..len).map(|i| (i * 7 % 251) as u8).collect::<Vec<u8>>();
    let store = custom_store(&[
        ("/big.bin".into(), object(BIG), "application/octet-stream"),
        (
            "/small.bin".into(),
            object(SMALL),
            "application/octet-stream",
        ),
    ]);
    for setup in [
        ProtocolSetup::Http11,
        ProtocolSetup::Http11Pipelined,
        ProtocolSetup::Multiplexed,
    ] {
        // Bytes one run fetching `path` allocates, after a warm-up run
        // that fills the buffer pools; the spec is built before the count.
        let allocated = |path: &str, len: usize| {
            let spec = || {
                let mut spec =
                    matrix_spec(NetEnv::Lan, ServerKind::Apache, setup, Scenario::FirstTime);
                spec.store = store.clone();
                spec.workload = Workload::FetchList {
                    paths: vec![path.into()],
                };
                spec
            };
            run_spec(spec());
            let counted = spec();
            let before = allocated_bytes();
            let out = run_spec(counted);
            let bytes = allocated_bytes() - before;
            assert_eq!(out.client_stats.body_bytes(), len, "{setup:?}");
            bytes
        };
        let (small, big) = (allocated("/small.bin", SMALL), allocated("/big.bin", BIG));
        let per_body_byte = big.saturating_sub(small) as f64 / (BIG - SMALL) as f64;
        assert!(
            per_body_byte <= 1.0 / 16.0,
            "{setup:?}: {per_body_byte:.4} bytes allocated per body byte ({small} B for \
             {SMALL} B of body, {big} B for {BIG} B)"
        );
    }
}
