#!/usr/bin/env python3
"""Follow a cstf-metrics-v1 ndjson stream and render a live dashboard line.

Tails the --metrics-out file a running `cstf factor` / `cstf serve-bench` /
bench binary is appending to, and prints one compact line per heartbeat
snapshot: uptime, the most informative gauges (iteration/fit or queue
depth/p99), and deltas of the busiest counters. Ctrl-C to stop.

Usage:
  metrics_tail.py run.ndjson                # follow (like tail -f)
  metrics_tail.py run.ndjson --no-follow    # print what's there and exit
  metrics_tail.py run.ndjson --keys cstf_fit,sparkle_tasks_finished_total
"""

import argparse
import json
import sys
import time

# Shown by default when present, in this order.
DEFAULT_GAUGES = [
    "cstf_iteration",
    "cstf_fit",
    "sparkle_tasks_inflight",
    "serve_queue_depth",
    "serve_slo_window_p99_micros",
    "serve_slo_in_breach",
]
DEFAULT_COUNTERS = [
    "sparkle_tasks_finished_total",
    "serve_requests_completed_total",
    "serve_slo_breaches_total",
]


def fmt(v):
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.4g}"
    return str(int(v))


def iter_snapshots(path, follow):
    with open(path, "r", encoding="utf-8") as f:
        buf = ""
        while True:
            chunk = f.readline()
            if not chunk:
                if not follow:
                    return
                time.sleep(0.1)
                continue
            buf += chunk
            if not buf.endswith("\n"):
                continue  # partial line mid-append; wait for the rest
            line = buf.strip()
            buf = ""
            if line:
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    print(f"skipping unparsable line: {line[:80]}...",
                          file=sys.stderr)


def label_str(labels):
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ndjson", help="cstf-metrics-v1 stream to follow")
    ap.add_argument("--no-follow", action="store_true",
                    help="stop at EOF instead of waiting for more")
    ap.add_argument("--keys", default="",
                    help="comma-separated metric names to show "
                         "(default: a built-in selection)")
    args = ap.parse_args()

    keys = [k for k in args.keys.split(",") if k]
    prev_counters = {}
    try:
        for snap in iter_snapshots(args.ndjson, follow=not args.no_follow):
            gauges = {g["name"] + label_str(g.get("labels", {})): g["value"]
                      for g in snap.get("gauges", [])}
            counters = {c["name"] + label_str(c.get("labels", {})): c["value"]
                        for c in snap.get("counters", [])}
            parts = [f"[{snap.get('uptimeMs', 0.0) / 1000.0:8.2f}s "
                     f"#{snap.get('seq', '?')}]"]
            gauge_keys = keys or DEFAULT_GAUGES
            counter_keys = keys or DEFAULT_COUNTERS
            for k in gauge_keys:
                for name, v in sorted(gauges.items()):
                    if name == k or name.startswith(k + "{"):
                        parts.append(f"{name}={fmt(v)}")
            for k in counter_keys:
                for name, v in sorted(counters.items()):
                    if name == k or name.startswith(k + "{"):
                        delta = v - prev_counters.get(name, 0)
                        parts.append(f"{name}={v}(+{delta})")
            prev_counters = counters
            print(" ".join(parts), flush=True)
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
