//! Tier-1 cover for CI's one gate step: every registry entry through the
//! shared runner (two passes, pinned digest, the entry's own assertions).
//! No counting allocator is installed in a test binary, so the `matrix`
//! and `fleet16` allocation ceilings are skipped here; the `gate` binary
//! enforces them.

use httpipe_core::gate::REGISTRY;

#[test]
fn every_gate_passes() {
    let failed: Vec<String> = REGISTRY
        .iter()
        .map(|gate| gate.run(None))
        .filter(|verdict| !verdict.ok())
        .map(|verdict| verdict.to_string())
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
