//! The `repro` binary's argument contract: its arguments are the ids of
//! `experiments::REGISTRY` plus `list`, `table1` and `xplot`, and an
//! unknown one is a usage error.

use httpipe_core::experiments::REGISTRY;
use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
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
    for e in REGISTRY {
        let n = ids.iter().filter(|&&id| id == e.id).count();
        assert_eq!(n, 1, "{} listed {n} times:\n{stdout}", e.id);
    }
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
