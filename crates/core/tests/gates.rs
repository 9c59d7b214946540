//! Tier-1 cover for CI's one gate step: every registry entry through the
//! shared runner (two passes, pinned digest, the entry's own assertions).

use httpipe_core::gate::REGISTRY;

#[test]
fn every_gate_passes() {
    let failed: Vec<String> = REGISTRY
        .iter()
        .map(|gate| gate.run())
        .filter(|verdict| !verdict.ok())
        .map(|verdict| verdict.to_string())
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
