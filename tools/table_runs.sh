#!/bin/sh
# The ROADMAP table runs, kept for a byte-for-byte comparison of two builds.
#
#   tools/table_runs.sh <cstf binary> <output dir>
#
# Runs the five `delicious3d-s --scale 1 --rank 2 --nodes 8 --iters 3`
# plans (coo, qcoo, coo + csf kernel, bigtensor, reference) and the rank-16
# broadcast-local run on flickr-s. Each run leaves its factor and lambda
# files (--output) and its run report (--report-out) in the output dir,
# with every wall-time field stripped from the report; all that remains is
# deterministic. Comparing two builds is then one diff:
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

run() {
  name=$1
  shift
  "$cstf" factor "$@" --output "$out/$name" \
    --report-out "$out/$name.report.json" > /dev/null
  python3 - "$out/$name.report.json" <<'EOF'
import json
import sys

def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items() if "wall" not in k.lower()}
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
