#include "oracle.h"

#include <algorithm>
#include <iterator>

namespace perfbench {

size_t Oracle::AddImage(int64_t op, GenImage img) {
  OracleEntry e;
  e.fov = tvdp::geo::FieldOfView::Make({img.lat, img.lon}, img.direction,
                                       img.angle, img.radius)
              .value();
  e.scene = e.fov.SceneLocation();
  e.img = std::move(img);
  e.add_op = op;
  entries_.push_back(std::move(e));
  return entries_.size() - 1;
}

void Oracle::Ack(size_t entry, int64_t id) {
  entries_[entry].id = id;
  by_id_[id] = entry;
}

void Oracle::Annotate(size_t entry, int64_t op, int label, double confidence) {
  OracleEntry& e = entries_[entry];
  e.ann_op = op;
  e.label = label;
  e.confidence = confidence;
}

const OracleEntry* Oracle::FindById(int64_t id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &entries_[it->second];
}

bool Oracle::Exact(const ReadOp& op) { return op.feature.empty(); }

bool Oracle::PlanDependent(const ReadOp& op) {
  return Exact(op) && op.box &&
         (!op.keywords.empty() || op.time.has_value() || op.label.has_value());
}

bool Oracle::Matches(const OracleEntry& e, const ReadOp& op, int64_t p,
                     bool fov) const {
  if (e.id < 0 || e.add_op >= p) return false;
  const GenImage& img = e.img;
  if (!op.keywords.empty()) {
    auto has = [&](const std::string& k) {
      return std::find(img.keywords.begin(), img.keywords.end(), k) !=
             img.keywords.end();
    };
    bool any = false, all = true;
    for (const std::string& k : op.keywords) {
      bool h = has(k);
      any = any || h;
      all = all && h;
    }
    if (op.keyword_or ? !any : !all) return false;
  }
  if (op.time && (img.captured_at < op.time->first ||
                  img.captured_at > op.time->second)) {
    return false;
  }
  if (op.label) {
    if (e.ann_op >= p || e.label != *op.label ||
        e.confidence < op.min_confidence) {
      return false;
    }
  }
  if (op.box && !op.box->Contains(img.lat, img.lon)) {
    if (!fov) return false;
    tvdp::geo::BoundingBox b;
    b.min_lat = op.box->min_lat;
    b.min_lon = op.box->min_lon;
    b.max_lat = op.box->max_lat;
    b.max_lon = op.box->max_lon;
    if (!e.scene.Intersects(b) || !e.fov.IntersectsBBox(b)) return false;
  }
  return true;
}

std::vector<int64_t> Oracle::Expect(const ReadOp& op, int64_t p,
                                    bool fov) const {
  std::vector<int64_t> out;
  for (const OracleEntry& e : entries_) {
    if (Matches(e, op, p, fov)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int64_t> Oracle::ExactTopK(const ReadOp& op, int64_t p) const {
  ReadOp box_only;
  box_only.box = op.box;
  std::vector<std::pair<double, int64_t>> scored;
  for (const OracleEntry& e : entries_) {
    if (!Matches(e, box_only, p, true)) continue;
    double d = 0;
    for (size_t i = 0; i < op.feature.size(); ++i) {
      double x = e.img.feature[i] - op.feature[i];
      d += x * x;
    }
    scored.emplace_back(d, e.id);
  }
  size_t k = std::min(scored.size(), static_cast<size_t>(op.k));
  std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(k),
                    scored.end());
  std::vector<int64_t> out;
  for (size_t i = 0; i < k; ++i) out.push_back(scored[i].second);
  std::sort(out.begin(), out.end());
  return out;
}

std::string Oracle::CheckSearch(const ReadOp& op, int64_t lo, int64_t hi,
                                const std::vector<int64_t>& ids,
                                CheckNotes* notes) const {
  std::vector<int64_t> got = ids;
  std::sort(got.begin(), got.end());
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
    return "duplicate ids in a search answer";
  }
  if (Exact(op)) {
    const bool loose = PlanDependent(op);
    std::vector<int64_t> must = Expect(op, lo, !loose);
    std::vector<int64_t> may = lo == hi && !loose ? must : Expect(op, hi);
    if (loose && notes && lo == hi) notes->off_fov_contract = got != may;
    if (!std::includes(got.begin(), got.end(), must.begin(), must.end())) {
      std::vector<int64_t> missing;
      std::set_difference(must.begin(), must.end(), got.begin(), got.end(),
                          std::back_inserter(missing));
      const OracleEntry* e = FindById(missing[0]);
      const bool camera_in_box =
          !op.box || op.box->Contains(e->img.lat, e->img.lon);
      return "answer lacks " + std::to_string(missing.size()) + " of " +
             std::to_string(must.size()) + " rows, e.g. id " +
             std::to_string(missing[0]) + " written by op " +
             std::to_string(e->add_op) + " and acked before the read (op " +
             std::to_string(lo) + "); " +
             (camera_in_box ? "camera in the box" : "field of view only");
    }
    if (!std::includes(may.begin(), may.end(), got.begin(), got.end())) {
      return "answer has rows outside the " + std::to_string(may.size()) +
             "-row expected set";
    }
    return "";
  }
  // Visual top-k: at most k distinct ids of stored images, inside the box
  // when there is one.
  ReadOp box_only;
  box_only.box = op.box;
  for (int64_t id : got) {
    const OracleEntry* e = FindById(id);
    if (e == nullptr || !Matches(*e, box_only, hi, true)) {
      return "visual answer id " + std::to_string(id) +
             " is not a stored image matching the filter";
    }
  }
  if (got.size() > static_cast<size_t>(op.k)) {
    return "visual top-" + std::to_string(op.k) + " returned " +
           std::to_string(got.size()) + " ids";
  }
  if (notes) {
    if (!op.box) notes->short_topk = got.size() < static_cast<size_t>(op.k);
    std::vector<int64_t> exact = ExactTopK(op, hi);
    std::vector<int64_t> both;
    std::set_intersection(got.begin(), got.end(), exact.begin(), exact.end(),
                          std::back_inserter(both));
    notes->recall = exact.empty() ? 1.0
                                  : static_cast<double>(both.size()) /
                                        static_cast<double>(exact.size());
  }
  return "";
}

std::string Oracle::CheckRow(const RowFacts& row, int64_t hi) const {
  const OracleEntry* e = FindById(row.id);
  if (e == nullptr || e->add_op >= hi) {
    return "downloaded id " + std::to_string(row.id) + " was never written";
  }
  const GenImage& g = e->img;
  if (row.lat != g.lat || row.lon != g.lon ||
      row.captured_at != g.captured_at || row.uri != g.uri ||
      row.source != g.source) {
    return "downloaded row " + std::to_string(row.id) +
           " differs from the written record";
  }
  return "";
}

}  // namespace perfbench
