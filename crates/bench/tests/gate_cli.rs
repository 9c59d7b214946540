//! The `gate` binary's argument contract: its only arguments are gate
//! names, and an unknown one is a usage error, not a failed gate.

use std::process::Command;

#[test]
fn unknown_gate_name_exits_2_listing_the_valid_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_gate"))
        .arg("no-such-name")
        .output()
        .expect("run gate");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no summary line for a usage error");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("no-such-name"), "{stderr}");
    for gate in &httpipe_core::gate::REGISTRY {
        assert!(stderr.contains(gate.name), "{stderr}");
    }
}
