#ifndef TVDP_PERFBENCH_ORACLE_H_
#define TVDP_PERFBENCH_ORACLE_H_

// The benchmark's own model of what it ingested, and the checks that hold
// the platform's answers against it. Writes are numbered in the order the
// single writer issued them (setup load first, then the timed window); a
// read is checked against the prefix of writes that was certainly visible
// (`lo`: acked before the read was sent) and the prefix that could have
// been visible (`hi`: started before the read returned). Every query shape
// here is monotone in the writes, so an exact answer lies between the two.
//
// Spatial range follows the engine's documented contract: an image matches
// when its field of view (or, without one, its camera point) intersects the
// box. When a bbox is combined with another filter, the executor verifies
// the bbox against the camera point alone if another family seeds the plan
// (query/executor.cc), so such answers depend on the plan. For those the
// checker accepts anything between the camera-point answer and the
// field-of-view answer, and reports answers that are not the latter.
//
// Visual top-k runs on LSH, which returns fewer than k ids when the probe's
// buckets are sparse (index/lsh.h), and approximate neighbours. The checker
// requires distinct stored ids, at most k, and reports each answer's recall
// against the exact (brute-force L2) top k and whether it was shorter than
// k; the runner bounds both over a run, so an empty or random answer fails.

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "gen.h"
#include "geo/fov.h"

namespace perfbench {

struct OracleEntry {
  GenImage img;
  tvdp::geo::FieldOfView fov;
  tvdp::geo::BoundingBox scene;  ///< the field of view's bounding box
  int64_t id = -1;  ///< global id from the ack; -1 = never acked
  int64_t add_op = 0;
  int64_t ann_op = std::numeric_limits<int64_t>::max();
  int label = -1;  ///< class index of the annotate write-back
  double confidence = 0;
};

/// What a passing search answer showed that the checker reports.
struct CheckNotes {
  bool off_fov_contract = false;  ///< plan-dependent bbox answer, not FOV's
  bool short_topk = false;        ///< visual top-k with fewer than k ids
  double recall = -1;  ///< visual top-k: share of the exact top k; -1 = n/a
};

/// One download_datasets row as the platform returned it.
struct RowFacts {
  int64_t id = 0;
  double lat = 0, lon = 0;
  int64_t captured_at = 0;
  std::string uri, source;
};

class Oracle {
 public:
  /// Records the add_data write `op`; returns the entry index.
  size_t AddImage(int64_t op, GenImage img);
  void Ack(size_t entry, int64_t id);
  void Annotate(size_t entry, int64_t op, int label, double confidence);

  const std::vector<OracleEntry>& entries() const { return entries_; }
  const OracleEntry* FindById(int64_t id) const;

  /// True for shapes whose answer is fully determined (no visual ranking).
  static bool Exact(const ReadOp& op);

  /// True for exact shapes whose answer depends on the plan (see above).
  static bool PlanDependent(const ReadOp& op);

  /// Sorted ids an exact-shape read returns after write prefix `p`, under
  /// field-of-view (`fov`) or camera-point bbox semantics.
  std::vector<int64_t> Expect(const ReadOp& op, int64_t p,
                              bool fov = true) const;

  /// Ids of the exact top `op.k` of a visual shape after write prefix `p`:
  /// the stored images (inside the box, field-of-view semantics) nearest the
  /// probe by L2 distance.
  std::vector<int64_t> ExactTopK(const ReadOp& op, int64_t p) const;

  /// Checks a search response against prefixes [lo, hi]; returns an empty
  /// string when the answer is right, else what is wrong. `notes`
  /// (optional) receives what a passing answer showed.
  std::string CheckSearch(const ReadOp& op, int64_t lo, int64_t hi,
                          const std::vector<int64_t>& ids,
                          CheckNotes* notes = nullptr) const;

  /// Checks a downloaded row against the generated record.
  std::string CheckRow(const RowFacts& row, int64_t hi) const;

 private:
  bool Matches(const OracleEntry& e, const ReadOp& op, int64_t p,
               bool fov) const;

  std::vector<OracleEntry> entries_;
  std::unordered_map<int64_t, size_t> by_id_;
};

}  // namespace perfbench

#endif  // TVDP_PERFBENCH_ORACLE_H_
