#!/bin/sh
# The ROADMAP table runs, kept for a byte-for-byte comparison of two builds.
#
#   tools/table_runs.sh <cstf binary> <output dir>
#
# Runs the five `delicious3d-s --scale 1 --rank 2 --nodes 8 --iters 3`
# plans (coo, qcoo, coo + csf kernel, bigtensor, reference) and the rank-16
# broadcast-local run on flickr-s. Each run leaves its factor and lambda
# files (--output) and its run report (--report-out) in the output dir,
# with every wall-time field stripped from the report. A stream leg then
# splits delicious3d-s --scale 0.5 into a base and 8 delta batches,
# factors the base at rank 4 (--model-out) and replays the batches online
# with row-subset ALS, keeping the updated model (stream-als.cstf) and its
# stream report minus the apply time. The delta log itself stays out of the
# output dir: each batch carries its wall-clock creation stamp. All that
# remains is deterministic. Comparing two builds is then one diff:
#
#   tools/table_runs.sh parent/build/tools/cstf runs-parent
#   tools/table_runs.sh build/tools/cstf runs-change
#   diff -r runs-parent runs-change
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 <cstf binary> <output dir>" >&2
  exit 2
fi
cstf=$1
out=$2
mkdir -p "$out"

# Rewrite a JSON report without its wall-time fields: every key naming
# "wall", and the stream report's applySec.
strip_wall() {
  python3 - "$1" <<'EOF'
import json
import sys

def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items()
                if "wall" not in k.lower() and k != "applySec"}
    if isinstance(v, list):
        return [strip(x) for x in v]
    return v

path = sys.argv[1]
with open(path) as f:
    report = json.load(f)
with open(path, "w") as f:
    json.dump(strip(report), f, indent=1, sort_keys=True)
    f.write("\n")
EOF
}

run() {
  name=$1
  shift
  "$cstf" factor "$@" --output "$out/$name" \
    --report-out "$out/$name.report.json" > /dev/null
  strip_wall "$out/$name.report.json"
}

d3() {
  name=$1
  shift
  run "$name" delicious3d-s --scale 1 --rank 2 --nodes 8 --iters 3 "$@"
}
d3 coo --backend coo
d3 qcoo --backend qcoo
d3 coo-csf --backend coo --local-kernel csf
d3 bigtensor --backend bigtensor
d3 reference --backend reference
run flickr-csf-r16 flickr-s --scale 1 --rank 16 --local-kernel csf

deltas=$(mktemp -d)
trap 'rm -rf "$deltas"' EXIT
"$cstf" generate delicious3d-s "$out/stream-base.bns" --scale 0.5 \
  --delta-batches 8 --delta-dir "$deltas" > /dev/null
run stream-base "$out/stream-base.bns" --rank 4 --nodes 8 --iters 3 \
  --model-out "$out/stream-base.cstf"
"$cstf" stream --model "$out/stream-base.cstf" --deltas "$deltas" \
  --base "$out/stream-base.bns" --model-out "$out/stream-als.cstf" \
  --report-out "$out/stream-als.report.json" > /dev/null
strip_wall "$out/stream-als.report.json"
