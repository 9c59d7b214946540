//! The `repro` binary's argument contract: its arguments are the ids of
//! `experiments::REGISTRY` plus `list` and the commands, and an unknown
//! one is a usage error; and the files its commands write.

use httpipe_core::experiments::REGISTRY;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The arguments that are not EXPERIMENTS.md sections, besides `list`.
const COMMANDS: [&str; 5] = ["table1", "xplot", "diagnose", "capture", "bless"];

fn repro(args: &[&str]) -> std::process::Output {
    repro_in(Path::new("."), args)
}

fn repro_in(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run repro")
}

/// An empty working directory of its own for `test`.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn unknown_id_exits_2_listing_the_valid_ids() {
    let out = repro(&["table3", "no-such-id"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs on a usage error");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("no-such-id"), "{stderr}");
    for e in REGISTRY {
        assert!(stderr.contains(e.id), "{stderr}");
    }
}

#[test]
fn list_prints_each_registry_id_once() {
    let out = repro(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for id in REGISTRY.iter().map(|e| e.id).chain(COMMANDS) {
        let n = ids.iter().filter(|&&listed| listed == id).count();
        assert_eq!(n, 1, "{id} listed {n} times:\n{stdout}");
    }
}

#[test]
fn capture_writes_a_pcapng_that_parses() {
    let dir = scratch_dir("capture");
    let out = repro_in(&dir, &["capture"]);
    assert!(out.status.success(), "{out:?}");
    let capture = std::fs::read(dir.join("TELEMETRY_wan_rto.pcapng")).expect("the capture");
    let packets = netsim::pcapng::parse(&capture).expect("a capture that parses");
    assert!(!packets.is_empty());
}

#[test]
fn diagnose_writes_nine_probe_documents() {
    let dir = scratch_dir("diagnose");
    let out = repro_in(&dir, &["diagnose"]);
    assert!(out.status.success(), "{out:?}");
    let probes: Vec<String> = std::fs::read_dir(&dir)
        .expect("the scratch dir")
        .map(|e| {
            e.expect("an entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|name| name.starts_with("PROBE_") && name.ends_with(".json"))
        .collect();
    assert_eq!(probes.len(), 9, "{probes:?}");
}

#[test]
fn every_repro_command_in_an_experiments_md_heading_resolves_in_order() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let position = |id: &str| REGISTRY.iter().position(|e| e.id == id);
    let mut last = None;
    for heading in doc.lines().filter(|l| l.starts_with('#')) {
        let Some((_, rest)) = heading.split_once("(`repro ") else {
            continue;
        };
        let (ids, _) = rest.split_once("`)").expect("a closed repro command");
        for id in ids.split_whitespace() {
            let at = position(id);
            assert!(at.is_some(), "{heading}: no registry entry {id}");
            assert!(at > last, "{heading}: {id} out of registry order");
            last = at;
        }
    }
    assert!(last.is_some(), "no heading names a repro command");
}
