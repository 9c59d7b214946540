#!/usr/bin/env bash
# The ledger's one command: build in release mode, run, check, print.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--trace] [--quick] [--seconds S]
#
# Builds the stand-alone package in this directory (never the workspace
# above it) and passes every argument on. Artefacts go to
# $CARGO_TARGET_DIR when that is set, otherwise to benchmark/target;
# results to benchmark/out.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

LEDGER_GIT_REV="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
LEDGER_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export LEDGER_GIT_REV LEDGER_RUSTC

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/ledger" "$@"
