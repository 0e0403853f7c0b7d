#!/usr/bin/env python3
"""Summarize and diff span files written by a traced benchmark run.

Per-layer self time and counts, per workload:

    python3 perfbench/trace_summary.py .bench_build/perfbench/traces/city_search-seed1.spans.jsonl

Where did time move between two runs (e.g. a parent commit and a change)?

    python3 perfbench/trace_summary.py --diff BEFORE.jsonl AFTER.jsonl

A span file holds one JSON object per line: an optional {"header": ...}
line, then spans {"workload", "id", "parent", "rid", "name", "start_us",
"end_us", "replay"?}. A span's self time is its duration minus the part of
its interval that its child spans cover. A child marked "replay" re-ran a
layer call after its parent returned, to time work the parent did inside
itself; it lies outside the parent's interval, so its whole duration is
subtracted instead. Layers are named by span name ("api.search_datasets",
"commit.ingest").
"""

import argparse
import json
import sys
from collections import defaultdict


def load(path):
    spans = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "header" in obj:
                continue
            spans.append(obj)
    return spans


def covered(interval, children):
    """Length of `interval` covered by the union of `children` intervals."""
    lo, hi = interval
    parts = sorted((max(lo, s), min(hi, e)) for s, e in children)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in parts:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """[(workload, name, self_us)] for every span."""
    kids = defaultdict(list)
    for s in spans:
        if s.get("parent"):
            kids[(s["workload"], s["parent"])].append(s)
    out = []
    for s in spans:
        start, end = s["start_us"], s["end_us"]
        inside, replayed = [], 0.0
        for c in kids.get((s["workload"], s["id"]), []):
            if c.get("replay") and not (c["start_us"] >= start and c["end_us"] <= end):
                replayed += c["end_us"] - c["start_us"]
            else:
                inside.append((c["start_us"], c["end_us"]))
        own = (end - start) - covered((start, end), inside) - replayed
        out.append((s["workload"], s["name"], max(0.0, own)))
    return out


def summarize(spans):
    """{workload: {layer: {"count", "self_ms", "self_us_mean", "self_us_p50"}}}"""
    groups = defaultdict(lambda: defaultdict(list))
    for workload, name, us in self_times(spans):
        groups[workload][name].append(us)
    result = {}
    for workload, layers in groups.items():
        result[workload] = {}
        for layer, values in layers.items():
            values.sort()
            result[workload][layer] = {
                "count": len(values),
                "self_ms": sum(values) / 1e3,
                "self_us_mean": sum(values) / len(values),
                "self_us_p50": values[(len(values) - 1) // 2],
            }
    return result


def print_summary(summary):
    for workload in sorted(summary):
        print("workload %s" % workload)
        print("  %-34s %9s %12s %12s %12s" % ("layer", "count", "self_ms",
                                            "mean_us", "p50_us"))
        rows = sorted(summary[workload].items(), key=lambda kv: -kv[1]["self_ms"])
        for layer, r in rows:
            print("  %-34s %9d %12.3f %12.3f %12.3f" % (
                layer, r["count"], r["self_ms"], r["self_us_mean"], r["self_us_p50"]))


def diff(before, after):
    """[(workload, layer, before mean us, after mean us, delta %)], by the
    mean self time per span, so runs of different length compare."""
    rows = []
    for workload in sorted(set(before) | set(after)):
        b, a = before.get(workload, {}), after.get(workload, {})
        for layer in sorted(set(b) | set(a)):
            bm = b[layer]["self_us_mean"] if layer in b else 0.0
            am = a[layer]["self_us_mean"] if layer in a else 0.0
            pct = 100.0 * (am - bm) / bm if bm > 0 else float("inf") if am > 0 else 0.0
            rows.append((workload, layer, bm, am, pct))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+")
    parser.add_argument("--diff", action="store_true",
                        help="compare two span files by layer")
    args = parser.parse_args()
    if args.diff:
        if len(args.files) != 2:
            parser.error("--diff takes two span files")
        before = summarize(load(args.files[0]))
        after = summarize(load(args.files[1]))
        print("%-22s %-34s %12s %12s %9s" % ("workload", "layer", "before_us",
                                             "after_us", "delta_%"))
        for workload, layer, bm, am, pct in diff(before, after):
            print("%-22s %-34s %12.3f %12.3f %9.1f" % (workload, layer, bm, am, pct))
        return 0
    for path in args.files:
        print_summary(summarize(load(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
