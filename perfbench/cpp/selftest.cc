// Self-tests of the benchmark's own parts: the seeded generator, the
// percentile helper and the reservoir, and the oracle checker. Exits
// non-zero on a failure.
//
//   .bench_build/perfbench/perfbench_selftest

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gen.h"
#include "oracle.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void TestGeneratorIsSeeded() {
  const std::string a = perfbench::SerializeStreams(7);
  Expect(a == perfbench::SerializeStreams(7),
         "same seed gives a byte-identical request stream");
  Expect(a != perfbench::SerializeStreams(8),
         "a different seed gives a different request stream");
  Expect(a.size() > 10000, "the serialized stream is not trivially small");

  // Image i does not depend on which images were generated before it.
  perfbench::Generator g(7);
  std::string late = perfbench::Generator::AddDataText(g.Image(500));
  (void)g.Image(3);
  Expect(late == perfbench::Generator::AddDataText(g.Image(500)),
         "images are a pure function of (seed, index)");

  // Every read kind appears in a pool of the size the runs use.
  std::vector<int> seen(10, 0);
  for (const perfbench::ReadOp& op : g.ReadPool(512)) {
    ++seen[static_cast<size_t>(op.kind)];
  }
  for (size_t k = 0; k < seen.size(); ++k) {
    Expect(seen[k] > 0, std::string("read pool has kind ") +
                            perfbench::ReadKindName(
                                static_cast<perfbench::ReadKind>(k)));
  }
}

void TestPercentile() {
  using perfbench::Percentile;
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Percentile(hundred, 50) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile(hundred, 100) == 100, "p100 of 1..100 is 100");
  Expect(Percentile(hundred, 1) == 1, "p1 of 1..100 is 1");
  Expect(Percentile({4, 1, 3, 2}, 50) == 2, "p50 of four samples is the 2nd");
  Expect(Percentile({4, 1, 3, 2}, 90) == 4, "p90 of four samples is the 4th");
  Expect(Percentile({7.5}, 99) == 7.5, "any percentile of one sample");
  Expect(Percentile({}, 50) == 0, "no samples gives 0");
  Expect(perfbench::QError(10, 5) == 2 && perfbench::QError(0, 4) == 4,
         "q-error is symmetric and floors at one row");
  Expect(perfbench::IdSetDigest({3, 1, 2}) == perfbench::IdSetDigest({1, 2, 3}),
         "digest ignores order");
  Expect(perfbench::IdSetDigest({1, 2}) != perfbench::IdSetDigest({1, 2, 3}),
         "digest sees a missing id");

  // The reservoir keeps at most its capacity, and a uniform sample.
  perfbench::Reservoir<double> r(1000, 42);
  for (int i = 0; i < 100000; ++i) r.Add(i);
  Expect(r.seen() == 100000 && r.items().size() == 1000,
         "reservoir counts every item and keeps its capacity");
  double p50 = Percentile(r.items(), 50);
  Expect(p50 > 45000 && p50 < 55000, "reservoir median tracks the stream's");
  perfbench::Reservoir<double> small(1000, 42);
  for (int i = 0; i < 10; ++i) small.Add(i);
  Expect(small.items().size() == 10 && Percentile(small.items(), 100) == 9,
         "a short stream is kept whole");
}

void TestOracleCatchesWrongAnswers() {
  perfbench::Generator g(11);
  perfbench::Oracle oracle;
  for (int64_t i = 0; i < 300; ++i) {
    size_t e = oracle.AddImage(i, g.Image(i));
    oracle.Ack(e, 1000 + i);
  }
  perfbench::ReadOp box;
  box.endpoint = "search_datasets";
  box.box = perfbench::Box{perfbench::kLat0, perfbench::kLon0,
                           (perfbench::kLat0 + perfbench::kLat1) / 2,
                           (perfbench::kLon0 + perfbench::kLon1) / 2};
  std::vector<int64_t> right = oracle.Expect(box, 300);
  Expect(!right.empty() && right.size() < 300, "the box selects a proper subset");
  Expect(oracle.CheckSearch(box, 300, 300, right).empty(),
         "the oracle accepts the right answer");

  std::vector<int64_t> missing(right.begin() + 1, right.end());
  Expect(!oracle.CheckSearch(box, 300, 300, missing).empty(),
         "the oracle catches a missing row");
  std::vector<int64_t> extra = right;
  for (int64_t id = 1000; id < 1300; ++id) {
    if (!std::binary_search(right.begin(), right.end(), id)) {
      extra.push_back(id);
      break;
    }
  }
  Expect(!oracle.CheckSearch(box, 300, 300, extra).empty(),
         "the oracle catches a row outside the predicate");
  std::vector<int64_t> dup = right;
  dup.push_back(right.front());
  Expect(!oracle.CheckSearch(box, 300, 300, dup).empty(),
         "the oracle catches a duplicate row");

  // Under a concurrent writer, the answer may lie between two prefixes.
  std::vector<int64_t> early = oracle.Expect(box, 150);
  Expect(oracle.CheckSearch(box, 150, 300, early).empty() &&
             oracle.CheckSearch(box, 150, 300, right).empty(),
         "answers between the visible prefixes pass");
  Expect(early != right && !oracle.CheckSearch(box, 300, 300, early).empty(),
         "an answer missing writes acked before the read fails");

  // Visual top-k: at most k distinct stored ids; short answers and their
  // recall against the exact top k are noted.
  perfbench::ReadOp vis;
  vis.endpoint = "search_datasets";
  vis.feature = g.Centroid(0);
  vis.k = 3;
  perfbench::CheckNotes notes;
  std::vector<int64_t> exact = oracle.ExactTopK(vis, 300);
  Expect(exact.size() == 3, "the exact top k has k ids");
  Expect(oracle.CheckSearch(vis, 300, 300, exact, &notes).empty() &&
             !notes.short_topk && notes.recall == 1.0,
         "the exact top k passes with recall 1");
  std::vector<int64_t> far;
  for (int64_t id = 1000; far.size() < 3; ++id) {
    if (!std::binary_search(exact.begin(), exact.end(), id)) far.push_back(id);
  }
  Expect(oracle.CheckSearch(vis, 300, 300, far, &notes).empty() &&
             notes.recall == 0.0,
         "k stored ids off the top k pass with recall 0");
  Expect(oracle.CheckSearch(vis, 300, 300, {exact[0], exact[1]}, &notes).empty() &&
             notes.short_topk,
         "fewer than k visual ids pass and are noted");
  Expect(oracle.CheckSearch(vis, 300, 300, {}, &notes).empty() &&
             notes.short_topk && notes.recall == 0.0,
         "an empty visual answer is noted as short with recall 0");
  Expect(!oracle.CheckSearch(vis, 300, 300, {1000, 1001, 1002, 1003}).empty(),
         "more than k visual ids fail");
  Expect(!oracle.CheckSearch(vis, 300, 300, {1000, 1001, 99999}).empty(),
         "an unknown visual id fails");
  Expect(!oracle.CheckSearch(vis, 300, 300, {1000, 1000, 1001}).empty(),
         "a repeated visual id fails");

  // Downloads must match the generated record field by field.
  perfbench::GenImage img = g.Image(5);
  perfbench::RowFacts row{1005, img.lat, img.lon, img.captured_at, img.uri,
                          img.source};
  Expect(oracle.CheckRow(row, 300).empty(), "a faithful row passes");
  row.lat += 1e-6;
  Expect(!oracle.CheckRow(row, 300).empty(), "a moved row fails");
  row.lat = img.lat;
  row.uri += "x";
  Expect(!oracle.CheckRow(row, 300).empty(), "a renamed row fails");
}

}  // namespace

int main() {
  TestGeneratorIsSeeded();
  TestPercentile();
  TestOracleCatchesWrongAnswers();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
