#!/usr/bin/env bash
# Builds the benchmark from source, runs it, checks its outputs and prints every
# metric by name with its unit; the last line of stdout is the JSON result.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace [0|1]]
#   benchmark/run.sh [--seed N] [--trace]      all four workloads, one after another
#   benchmark/run.sh --layers [--seconds S]    unit costs of single layers
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# Rule R7: glibc keeps freed memory instead of returning it to the kernel and
# faulting it back in (large blocks come from the heap, the heap is never
# trimmed). Migration moves megabytes through malloc/free; with the defaults
# the page-fault traffic of that, not the system's work, sets the run-to-run
# spread of every migration metric.
export MALLOC_MMAP_THRESHOLD_=33554432
export MALLOC_TRIM_THRESHOLD_=17179869184

# Build output goes to stderr: stdout carries only the benchmark's results.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/megaphone-benchmark"

case " $* " in
  *" --workload "* | *" --layers "*)
    exec "$bin" --out "$CARGO_TARGET_DIR" "$@"
    ;;
  *)
    for workload in keycount_dense hashcount_durable q5_process2 q8_cluster2; do
      "$bin" --out "$CARGO_TARGET_DIR" --workload "$workload" "$@"
    done
    ;;
esac
