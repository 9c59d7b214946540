//! The cells whose bodies `body_alloc` counts and whose traces
//! `check_alloc` checks: one clean LAN cell fetching a 1 KiB or a 1 MiB
//! object over HTTP/1.1, pipelined and multiplexed, with the full trace.

use httpipe_core::prelude::*;
use netsim::TraceMode;

const SMALL: usize = 1 << 10;
const BIG: usize = 1 << 20;

/// The six cells in table order: the label their rows carry (`1.1 1K`,
/// …), the spec, built afresh for each run, and the body bytes fetched.
pub fn cells() -> Vec<(String, impl Fn() -> CellSpec, usize)> {
    let object = |len: usize| (0..len).map(|i| (i * 7 % 251) as u8).collect::<Vec<u8>>();
    let store = custom_store(&[
        ("/big.bin".into(), object(BIG), "application/octet-stream"),
        (
            "/small.bin".into(),
            object(SMALL),
            "application/octet-stream",
        ),
    ]);
    let mut cells = Vec::new();
    for (label, setup) in [
        ("1.1", ProtocolSetup::Http11),
        ("pipelined", ProtocolSetup::Http11Pipelined),
        ("mux", ProtocolSetup::Multiplexed),
    ] {
        for (size, path, len) in [("1K", "/small.bin", SMALL), ("1M", "/big.bin", BIG)] {
            let store = store.clone();
            let spec = move || {
                let mut spec =
                    matrix_spec(NetEnv::Lan, ServerKind::Apache, setup, Scenario::FirstTime);
                spec.store = store.clone();
                spec.workload = Workload::FetchList {
                    paths: vec![path.into()],
                };
                spec.trace_mode = TraceMode::Full;
                spec
            };
            cells.push((format!("{label} {size}"), spec, len));
        }
    }
    cells
}
