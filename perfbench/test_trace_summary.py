"""Tests of the span summarizer (run by `python3 perfbench/run.py --selftest`)."""

import unittest

import trace_summary as ts


def span(sid, parent, name, start, end, replay=False, workload="w"):
    s = {"workload": workload, "id": sid, "parent": parent, "rid": 1,
         "name": name, "start_us": start, "end_us": end}
    if replay:
        s["replay"] = True
    return s


class SelfTimeTest(unittest.TestCase):
    def test_children_inside_the_interval_are_subtracted_once(self):
        spans = [span(1, 0, "request", 0, 100),
                 span(2, 1, "json.parse", 0, 10),
                 span(3, 1, "api.search", 10, 90),
                 span(4, 3, "overlap.a", 20, 60),
                 span(5, 3, "overlap.b", 40, 70)]
        got = {name: us for _, name, us in ts.self_times(spans)}
        self.assertEqual(got["request"], 10)   # 100 - 10 - 80
        self.assertEqual(got["api.search"], 30)  # 80 - union(20..70)
        self.assertEqual(got["overlap.a"], 40)

    def test_replayed_children_subtract_their_duration(self):
        spans = [span(1, 0, "api.search", 0, 100),
                 span(2, 1, "scatter_gather.query", 150, 220, replay=True)]
        got = {name: us for _, name, us in ts.self_times(spans)}
        self.assertEqual(got["api.search"], 30)
        self.assertEqual(got["scatter_gather.query"], 70)

    def test_summary_counts_per_workload_and_layer(self):
        spans = [span(1, 0, "commit.ingest", 0, 4),
                 span(2, 0, "commit.feature", 4, 10),
                 span(3, 0, "commit.ingest", 10, 12),
                 span(4, 0, "commit.ingest", 0, 7, workload="v")]
        summary = ts.summarize(spans)
        self.assertEqual(summary["w"]["commit.ingest"]["count"], 2)
        self.assertEqual(summary["w"]["commit.ingest"]["self_us_mean"], 3)
        self.assertEqual(summary["w"]["commit.feature"]["self_ms"], 0.006)
        self.assertEqual(summary["v"]["commit.ingest"]["count"], 1)

    def test_diff_reports_where_time_moved(self):
        before = ts.summarize([span(1, 0, "commit.ingest", 0, 10)])
        after = ts.summarize([span(1, 0, "commit.ingest", 0, 5),
                              span(2, 0, "json.parse", 5, 6)])
        rows = {layer: (b, a, pct) for _, layer, b, a, pct in ts.diff(before, after)}
        self.assertEqual(rows["commit.ingest"], (10, 5, -50))
        self.assertEqual(rows["json.parse"][:2], (0, 1))


if __name__ == "__main__":
    unittest.main()
