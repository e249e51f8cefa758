#!/usr/bin/env bash
# Compares two bench CSVs produced by scripts/bench-to-csv.sh and fails (exit 1)
# when any tracked hot-path benchmark regressed by more than the allowed factor.
#
#   Usage: scripts/bench-compare.sh previous.csv current.csv [max-factor]
#
# Tracked benchmarks are matched by group prefix (the part before the first
# '/'); the default set covers the hot paths CI guards:
# routing_lookup, key_to_bin, bin_encode, exchange_throughput,
# exchange_throughput_tcp, saturation, skew_reaction, bin_migrate_large
# (the flat-table bin of `q8_shape` beside its `Vec<u64>` twin, and the
# whole/chunked/stall cases), bin_migrate_large_durable, multi_tenant_steady,
# stateful_overhead.
# Override with BENCH_COMPARE_GROUPS (comma-separated). The factor defaults
# to 2.0.
set -euo pipefail

previous="${1:?usage: bench-compare.sh previous.csv current.csv [max-factor]}"
current="${2:?usage: bench-compare.sh previous.csv current.csv [max-factor]}"
factor="${3:-2.0}"
groups="${BENCH_COMPARE_GROUPS:-routing_lookup,key_to_bin,bin_encode,exchange_throughput,exchange_throughput_tcp,saturation,skew_reaction,bin_migrate_large,bin_migrate_large_durable,multi_tenant_steady,stateful_overhead}"

# A first run of the gate (or a wiped bench cache) has no previous CSV. That
# is a missing baseline, not a pass and not a regression: say so explicitly
# and skip the comparison, instead of tripping over the absent file or
# silently succeeding on an empty one.
if [[ ! -f "$previous" ]]; then
    echo "no baseline: previous CSV $previous is missing; skipping comparison"
    exit 0
fi
previous_rows="$(tail -n +2 "$previous" | awk 'NF { rows += 1 } END { print rows + 0 }')"
if [[ "$previous_rows" -eq 0 ]]; then
    echo "no baseline: previous CSV $previous has no data rows; skipping comparison"
    exit 0
fi

awk -F, -v factor="$factor" -v groups="$groups" '
    BEGIN {
        split(groups, tracked_list, ",")
        for (i in tracked_list) tracked[tracked_list[i]] = 1
        failures = 0
        compared = 0
    }
    FNR == 1 { next }                      # skip the header of each file
    {
        bench = $2
        mean = $3 + 0
        split(bench, parts, "/")
        if (!(parts[1] in tracked)) next
        if (NR == FNR) {                   # first file: the previous commit
            previous[bench] = mean
            next
        }
        if (!(bench in previous)) {
            printf "new benchmark %s: %.1f ns/iter (no baseline)\n", bench, mean
            next
        }
        compared += 1
        base = previous[bench]
        if (base > 0 && mean > base * factor) {
            printf "REGRESSION %s: %.1f -> %.1f ns/iter (%.2fx > %.2fx allowed)\n", \
                bench, base, mean, mean / base, factor
            failures += 1
        } else {
            printf "ok %s: %.1f -> %.1f ns/iter\n", bench, base, mean
        }
    }
    END {
        if (compared == 0) {
            print "warning: no tracked benchmarks in common; nothing compared"
        }
        if (failures > 0) {
            printf "%d tracked benchmark(s) regressed beyond %.2fx\n", failures, factor
            exit 1
        }
    }
' "$previous" "$current"
