#!/usr/bin/env sh
# Record a google-benchmark trajectory entry (docs/BENCHMARKS.md).
#
# Runs a google-benchmark harness in JSON mode and appends one entry
# (commit, label, per-benchmark real_time ns) to a BENCH_*.json file
# at the repo root. Usage, from the repo root, after building:
#
#   bench/record_bench.sh [--bench NAME] [--out FILE] [--filter REGEX]
#                         [--repeat N] [label]
#
# --bench  harness binary under $BUILD_DIR/bench to run (default:
#          bench_micro_codec). BENCH_0006_service.json is recorded
#          with --bench bench_service.
# --out    trajectory file to append to (default:
#          BENCH_0002_micro_codec.json)
# --filter google-benchmark regex selecting which benchmarks to run
#          and record (default: all). BENCH_0003_bch_decode.json is
#          recorded with --filter 'BM_DecodeDirty64|BM_RecoverySweep'.
# --repeat N
#          run the harness N times and record the per-benchmark MINIMUM
#          real_time across runs (default: 1). The minimum is the
#          standard noise filter for wall-clock trajectories on shared
#          machines. BENCH_0008_result_cache.json is recorded with
#            bench/record_bench.sh --bench bench_result_cache \
#              --out BENCH_0008_result_cache.json --repeat 3 [label]
#
# The build directory can be overridden with BUILD_DIR (default: build).
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${BUILD_DIR:-"$repo_root/build"}
bench_name="bench_micro_codec"
out_file="$repo_root/BENCH_0002_micro_codec.json"
filter=""

while [ $# -gt 0 ]; do
    case "$1" in
      --bench)
        bench_name=${2:?"--bench requires a harness name argument"}
        shift 2 ;;
      --out)
        out_arg=${2:?"--out requires a file argument"}
        # Absolute paths pass through; relative ones root at the repo.
        case "$out_arg" in
          /*) out_file="$out_arg" ;;
          *)  out_file="$repo_root/$out_arg" ;;
        esac
        shift 2 ;;
      --filter) filter=${2:?"--filter requires a regex argument"}; shift 2 ;;
      --repeat)
        repeat=${2:?"--repeat requires a count argument"}
        case "$repeat" in
          ''|*[!0-9]*|0) echo "error: --repeat expects a positive integer, got \"$repeat\"" >&2; exit 1 ;;
        esac
        shift 2 ;;
      *) break ;;
    esac
done
label=${1:-"$(date +%Y-%m-%d) run"}
bench_bin="$build_dir/bench/$bench_name"

if [ ! -x "$bench_bin" ]; then
    echo "error: $bench_bin not built (cmake --build $build_dir)" >&2
    exit 1
fi

raw_dir=$(mktemp -d)
trap 'rm -rf "$raw_dir"' EXIT
commit=$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)
repeat=${repeat:-1}

# Run the harness $repeat times into $raw_dir/run.N.
i=1
while [ "$i" -le "$repeat" ]; do
    if [ -n "$filter" ]; then
        "$bench_bin" --benchmark_filter="$filter" \
                     --benchmark_format=json >"$raw_dir/run.$i"
    else
        "$bench_bin" --benchmark_format=json >"$raw_dir/run.$i"
    fi
    i=$((i + 1))
done

python3 - "$raw_dir" "$out_file" "$commit" "$label" "$bench_name" <<'EOF'
import glob
import json
import os
import sys

raw_dir, out_path, commit, label, bench_name = sys.argv[1:6]

to_ns = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}
results = {}
runs = sorted(glob.glob(os.path.join(raw_dir, "run.*")))
for raw_path in runs:
    with open(raw_path) as f:
        run = json.load(f)
    for b in run["benchmarks"]:
        if b.get("error_occurred"):
            continue  # e.g. BM_DecodeCorrect64 on detection-only codes
        name = b["name"]
        if b.get("label"):
            name += " [" + b["label"] + "]"
        ns = round(b["real_time"] * to_ns[b.get("time_unit", "ns")], 1)
        # min across --repeat runs: the standard wall-clock noise filter
        results[name] = min(results.get(name, ns), ns)

entry = {
    "commit": commit,
    "label": label,
    "time_unit": "ns",
    "results": results,
}

try:
    with open(out_path) as f:
        doc = json.load(f)
except FileNotFoundError:
    doc = {"benchmark": bench_name, "entries": []}

doc["entries"].append(entry)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"appended entry '{label}' ({commit}) with {len(results)} results "
      f"to {out_path}")
EOF
