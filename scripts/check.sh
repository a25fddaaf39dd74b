#!/usr/bin/env bash
# Full pre-merge check: release build, every crate's tests, the benchmark
# crate's compile surface and tests, lints.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
# perfbench/ is a cargo package of its own (not a workspace member) that
# calls the library's public API; compiling and testing it here makes a
# library edit that breaks the benchmark fail the check.
cargo test --release -q --manifest-path perfbench/Cargo.toml
# Exercise the portable SIMD fallback too: GB_SIMD=portable forces the
# autovectorizable scalar-lane path even on AVX2 hosts, so both dispatch
# targets stay green (the gb-core unit tests assert they agree bitwise).
GB_SIMD=portable cargo test -q -p gb-core
# Failure + recovery matrices, release mode: the poison/heal protocols are
# timing-sensitive, so exercise them under the optimizer as well. The
# gb-core self_healing suite drives every kill site under *both*
# CommMode::Dense and CommMode::Sparse; the gb-cluster matrices cover
# every collective kind x P x {panic, kill, timeout, retry}.
cargo test --release -q -p gb-cluster --test failure_matrix --test recovery_matrix
cargo test --release -q -p gb-core --test self_healing
cargo clippy --workspace -- -D warnings
