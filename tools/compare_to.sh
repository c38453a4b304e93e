#!/bin/sh
# Byte-for-byte comparison of this checkout against another revision.
#
#   tools/compare_to.sh <rev>
#
# Exports <rev> with `git archive` into a temporary directory, builds its
# cstf_cli and this checkout's (as it stands, uncommitted edits included)
# in Release, each in its own temporary build tree, runs this checkout's
# tools/table_runs.sh once per binary, and exits with the status of
# `diff -r` over the two output dirs: 0 when every byte matches, 1 (with
# the differences on stdout) when some do not. Nothing is left behind.
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
rev=$1
root=$(cd "$(dirname "$0")/.." && pwd)
if ! git -C "$root" rev-parse --verify --quiet "$rev^{commit}" > /dev/null; then
  echo "$0: unknown revision '$rev'" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"

jobs=$(nproc 2> /dev/null || echo 2)
build() {
  echo "building cstf_cli from $1" >&2
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release -DCSTF_BUILD_TESTS=OFF \
    -DCSTF_BUILD_BENCH=OFF -DCSTF_BUILD_EXAMPLES=OFF > /dev/null
  cmake --build "$2" -j "$jobs" --target cstf_cli > /dev/null
}
build "$tmp/rev" "$tmp/build-rev"
build "$root" "$tmp/build-here"

"$root/tools/table_runs.sh" "$tmp/build-rev/tools/cstf" "$tmp/runs-rev" \
  > /dev/null
"$root/tools/table_runs.sh" "$tmp/build-here/tools/cstf" "$tmp/runs-here" \
  > /dev/null

status=0
diff -r "$tmp/runs-rev" "$tmp/runs-here" || status=$?
if [ "$status" -eq 0 ]; then
  echo "identical to $rev" >&2
fi
exit "$status"
