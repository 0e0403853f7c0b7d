#include "gen.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"
#include "common/rng.h"

namespace perfbench {
namespace {

using tvdp::Json;
using tvdp::Rng;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Stream tags keep the per-purpose generators independent.
constexpr uint64_t kTagImage = 1, kTagCentroid = 2, kTagHotspot = 3,
                   kTagPool = 4, kTagSchedule = 5, kTagReadback = 6,
                   kTagReadbackBox = 7;
constexpr int kReadBacksPerUpload = 3;

// Per-dimension spread of a descriptor around its (unit) class centroid.
constexpr double kFeatureNoise = 0.05;
// Street blocks where uploads concentrate (trucks' routes, encampments).
constexpr int kHotspots = 48;

double Round6(double v) { return std::round(v * 1e6) / 1e6; }
double Round4(double v) { return std::round(v * 1e4) / 1e4; }

const std::vector<std::string>& Vocabulary() {
  static const std::vector<std::string> kWords = {
      "street", "sidewalk", "alley",    "downtown", "park",    "bus_stop",
      "vehicle", "night",   "graffiti", "mural",    "bags",    "boxes",
      "tire",    "pothole", "shopping_cart", "debris", "rain",  "market"};
  return kWords;
}

// One class-specific keyword per label, so keyword and category correlate.
const std::vector<std::string>& ClassWords() {
  static const std::vector<std::string> kWords = {"clean", "couch", "tent",
                                                  "trash"};
  return kWords;
}

size_t ZipfIndex(Rng& rng, size_t n) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) w[i] = 1.0 / static_cast<double>(i + 1);
  return rng.WeightedIndex(w);
}

Json Array(const std::vector<double>& v) {
  Json a = Json::MakeArray();
  for (double x : v) a.Append(x);
  return a;
}

// An L2-normalized descriptor near `centroid`, as CNN embeddings of one
// scene class cluster.
std::vector<double> Noisy(const std::vector<double>& centroid, Rng& rng) {
  std::vector<double> f(centroid.size());
  double norm = 0;
  for (size_t d = 0; d < f.size(); ++d) {
    f[d] = centroid[d] + rng.Normal(0, kFeatureNoise);
    norm += f[d] * f[d];
  }
  norm = std::sqrt(norm);
  for (double& x : f) x = Round4(x / norm);
  return f;
}

Json BoxJson(const Box& b) {
  return Array({b.min_lat, b.min_lon, b.max_lat, b.max_lon});
}

Box BoxAround(double lat, double lon, double half_lat, double half_lon) {
  return Box{Round6(lat - half_lat), Round6(lon - half_lon),
             Round6(lat + half_lat), Round6(lon + half_lon)};
}

}  // namespace

const std::vector<std::string>& Labels() {
  static const std::vector<std::string> kLabels = {
      "clean", "bulky_item", "encampment", "illegal_dumping"};
  return kLabels;
}

const char* ReadKindName(ReadKind k) {
  switch (k) {
    case ReadKind::kSmallBox: return "small_bbox";
    case ReadKind::kLargeBox: return "large_bbox";
    case ReadKind::kKeyword: return "keyword";
    case ReadKind::kTemporal: return "temporal";
    case ReadKind::kCategorical: return "categorical";
    case ReadKind::kVisual: return "visual_topk";
    case ReadKind::kBoxVisual: return "bbox_visual";
    case ReadKind::kBoxKeywordTime: return "bbox_keyword_time";
    case ReadKind::kExplain: return "explain";
    case ReadKind::kDownload: return "download";
  }
  return "unknown";
}

Generator::Generator(uint64_t seed) : seed_(seed) {
  Rng crng(Mix(seed, kTagCentroid));
  for (size_t c = 0; c < Labels().size(); ++c) {
    std::vector<double> v(kFeatureDim);
    double norm = 0;
    for (double& x : v) {
      x = crng.Normal();
      norm += x * x;
    }
    for (double& x : v) x /= std::sqrt(norm);
    centroids_.push_back(std::move(v));
  }
  Rng hrng(Mix(seed, kTagHotspot));
  for (int i = 0; i < kHotspots; ++i) {
    hotspots_.emplace_back(hrng.Uniform(kLat0 + 0.005, kLat1 - 0.005),
                           hrng.Uniform(kLon0 + 0.005, kLon1 - 0.005));
  }
}

GenImage Generator::Image(int64_t index) const {
  Rng rng(Mix(Mix(seed_, kTagImage), static_cast<uint64_t>(index)));
  GenImage img;
  img.cls = static_cast<int>(rng.WeightedIndex({0.40, 0.25, 0.15, 0.20}));
  img.source = rng.Bernoulli(0.6) ? "lasan_truck" : "crowd";
  img.uri = "tvdp://images/" + img.source + "/" + std::to_string(seed_) + "/" +
            std::to_string(index);
  double lat, lon;
  if (rng.Bernoulli(0.65)) {
    const auto& h =
        hotspots_[static_cast<size_t>(rng.UniformInt(0, kHotspots - 1))];
    lat = h.first + rng.Normal(0, 0.003);
    lon = h.second + rng.Normal(0, 0.003);
  } else {
    lat = rng.Uniform(kLat0, kLat1);
    lon = rng.Uniform(kLon0, kLon1);
  }
  img.lat = Round6(std::clamp(lat, kLat0, kLat1));
  img.lon = Round6(std::clamp(lon, kLon0, kLon1));
  img.direction = Round4(rng.Uniform(0, 360));
  img.angle = 60;
  img.radius = Round4(rng.Uniform(40, 150));
  img.captured_at = kEpoch0 + rng.UniformInt(0, kCaptureSpan - 1);
  if (rng.Bernoulli(0.5)) {
    img.keywords.push_back(ClassWords()[static_cast<size_t>(img.cls)]);
  }
  int extra = static_cast<int>(rng.UniformInt(1, 2));
  for (int i = 0; i < extra; ++i) {
    const std::string& w = Vocabulary()[ZipfIndex(rng, Vocabulary().size())];
    if (std::find(img.keywords.begin(), img.keywords.end(), w) ==
        img.keywords.end()) {
      img.keywords.push_back(w);
    }
  }
  img.feature = Noisy(Centroid(img.cls), rng);
  img.annotate = rng.Bernoulli(1.0 / 3.0);
  return img;
}

std::string Generator::AddDataText(const GenImage& img) {
  Json j = Json::MakeObject();
  j["uri"] = img.uri;
  j["source"] = img.source;
  j["lat"] = img.lat;
  j["lon"] = img.lon;
  j["captured_at"] = img.captured_at;
  Json fov = Json::MakeObject();
  fov["direction"] = img.direction;
  fov["angle"] = img.angle;
  fov["radius"] = img.radius;
  j["fov"] = std::move(fov);
  Json kws = Json::MakeArray();
  for (const std::string& k : img.keywords) kws.Append(k);
  j["keywords"] = std::move(kws);
  Json features = Json::MakeObject();
  features[kFeatureKind] = Array(img.feature);
  j["features"] = std::move(features);
  return j.Dump();
}

std::string Generator::AnnotateText(int64_t image_id) {
  Json j = Json::MakeObject();
  j["model"] = kModelName;
  j["image_id"] = image_id;
  j["annotate"] = true;
  return j.Dump();
}

std::string DownloadText(const std::vector<int64_t>& ids) {
  Json a = Json::MakeArray();
  for (int64_t id : ids) a.Append(id);
  Json j = Json::MakeObject();
  j["image_ids"] = std::move(a);
  return j.Dump();
}

std::vector<ReadOp> Generator::ReadPool(size_t n) const {
  Rng rng(Mix(seed_, kTagPool));
  const std::vector<double> kWeights = {16, 8, 12, 10, 10, 10, 8, 8, 8, 10};
  auto center = [&]() -> std::pair<double, double> {
    if (rng.Bernoulli(0.6)) {
      const auto& h = hotspots_[static_cast<size_t>(rng.UniformInt(0, kHotspots - 1))];
      return {h.first + rng.Normal(0, 0.002), h.second + rng.Normal(0, 0.002)};
    }
    return {rng.Uniform(kLat0, kLat1), rng.Uniform(kLon0, kLon1)};
  };
  auto keyword = [&]() -> std::string {
    if (rng.Bernoulli(0.3)) {
      return ClassWords()[static_cast<size_t>(rng.UniformInt(0, 3))];
    }
    return Vocabulary()[ZipfIndex(rng, Vocabulary().size())];
  };
  auto window = [&](int64_t max_days) {
    int64_t len = rng.UniformInt(1, max_days) * 86400;
    int64_t begin = kEpoch0 + rng.UniformInt(0, kCaptureSpan - len);
    return std::make_pair(begin, begin + len - 1);
  };
  auto probe = [&]() {
    return Noisy(Centroid(static_cast<int>(rng.UniformInt(0, 3))), rng);
  };
  // Fills `op` as one search shape.
  auto search = [&](ReadKind kind, ReadOp& op) {
    switch (kind) {
      case ReadKind::kSmallBox: {
        auto [lat, lon] = center();
        op.box = BoxAround(lat, lon, 0.0015, 0.0018);
        break;
      }
      case ReadKind::kLargeBox: {
        auto [lat, lon] = center();
        op.box = BoxAround(lat, lon, 0.010, 0.012);
        break;
      }
      case ReadKind::kKeyword:
        op.keywords.push_back(keyword());
        if (rng.Bernoulli(0.4)) {
          std::string w = keyword();
          if (w != op.keywords[0]) op.keywords.push_back(w);
          op.keyword_or = op.keywords.size() > 1 && rng.Bernoulli(0.4);
        }
        break;
      case ReadKind::kTemporal:
        op.time = window(7);
        break;
      case ReadKind::kCategorical:
        op.label = static_cast<int>(rng.UniformInt(0, 3));
        op.min_confidence = rng.Bernoulli(0.3) ? 0.6 : 0.0;
        break;
      case ReadKind::kVisual:
        op.feature = probe();
        op.k = 10;
        break;
      case ReadKind::kBoxVisual: {
        auto [lat, lon] = center();
        op.box = BoxAround(lat, lon, 0.006, 0.007);
        op.feature = probe();
        op.k = 10;
        break;
      }
      case ReadKind::kBoxKeywordTime: {
        auto [lat, lon] = center();
        op.box = BoxAround(lat, lon, 0.012, 0.015);
        op.keywords.push_back(keyword());
        op.time = window(30);
        break;
      }
      default:
        break;
    }
  };
  std::vector<ReadOp> pool;
  pool.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ReadOp op;
    op.kind = static_cast<ReadKind>(rng.WeightedIndex(kWeights));
    if (op.kind == ReadKind::kDownload) {
      op.endpoint = "download_datasets";
      op.download_count = static_cast<int>(rng.UniformInt(1, 8));
      pool.push_back(std::move(op));
      continue;
    }
    ReadKind shape = op.kind;
    if (op.kind == ReadKind::kExplain) {
      shape = static_cast<ReadKind>(
          rng.UniformInt(0, static_cast<int64_t>(ReadKind::kBoxKeywordTime)));
      op.endpoint = "explain_query";
    } else {
      op.endpoint = "search_datasets";
    }
    search(shape, op);
    Json j = Json::MakeObject();
    if (op.box) j["bbox"] = BoxJson(*op.box);
    if (!op.keywords.empty()) {
      Json kws = Json::MakeArray();
      for (const std::string& k : op.keywords) kws.Append(k);
      j["keywords"] = std::move(kws);
      if (op.keyword_or) j["keyword_mode"] = "or";
    }
    if (op.time) {
      j["time_begin"] = op.time->first;
      j["time_end"] = op.time->second;
    }
    if (op.label) {
      j["classification"] = kClassification;
      j["label"] = Labels()[static_cast<size_t>(*op.label)];
      if (op.min_confidence > 0) j["min_confidence"] = op.min_confidence;
    }
    if (!op.feature.empty()) {
      j["feature"] = Array(op.feature);
      j["feature_kind"] = kFeatureKind;
      j["k"] = op.k;
    }
    op.body = j.Dump();
    pool.push_back(std::move(op));
  }
  return pool;
}

std::vector<WriteOp> Generator::WriteStream(int64_t first, int64_t n_images,
                                            bool readbacks) const {
  std::vector<WriteOp> out;
  Rng rng(Mix(Mix(seed_, kTagReadback), static_cast<uint64_t>(first)));
  for (int64_t i = first; i < first + n_images; ++i) {
    WriteOp add;
    add.image = i;
    if (readbacks) {
      add.readback = true;
      add.readback_download = rng.Bernoulli(0.25);
    }
    out.push_back(add);
    if (Image(i).annotate) {
      WriteOp ann;
      ann.kind = WriteOp::Kind::kAnnotate;
      ann.image = i;
      out.push_back(ann);
    }
  }
  return out;
}

std::vector<ReadOp> Generator::ReadBacks(int64_t index) const {
  Rng rng(Mix(Mix(seed_, kTagReadbackBox), static_cast<uint64_t>(index)));
  GenImage img = Image(index);
  std::vector<ReadOp> out;
  for (int i = 0; i < kReadBacksPerUpload; ++i) {
    ReadOp op;
    op.kind = ReadKind::kSmallBox;
    op.endpoint = "search_datasets";
    op.box = BoxAround(img.lat + rng.Uniform(-0.001, 0.001),
                       img.lon + rng.Uniform(-0.001, 0.001), 0.0015, 0.0018);
    Json j = Json::MakeObject();
    j["bbox"] = BoxJson(*op.box);
    op.body = j.Dump();
    out.push_back(std::move(op));
  }
  return out;
}

ReadSchedule::ReadSchedule(uint64_t seed, int client, size_t pool_size)
    : state_(Mix(Mix(seed, kTagSchedule), static_cast<uint64_t>(client))),
      pool_size_(pool_size) {}

size_t ReadSchedule::Next() {
  state_ = Mix(state_, 0x5c4ed);
  return static_cast<size_t>(state_ % pool_size_);
}

std::string SerializeStreams(uint64_t seed) {
  Generator gen(seed);
  std::string out;
  for (int64_t i = 0; i < 200; ++i) {
    GenImage img = gen.Image(i);
    out += Generator::AddDataText(img);
    out += img.annotate ? " +annotate\n" : "\n";
  }
  for (const ReadOp& op : gen.ReadPool(128)) {
    out += op.endpoint + " " + ReadKindName(op.kind) + " " + op.body + " " +
           std::to_string(op.download_count) + "\n";
  }
  for (int client = 0; client < 3; ++client) {
    ReadSchedule sched(seed, client, 128);
    for (int i = 0; i < 100; ++i) out += std::to_string(sched.Next()) + ",";
    out += "\n";
  }
  for (const WriteOp& w : gen.WriteStream(3000, 60, true)) {
    out += std::to_string(static_cast<int>(w.kind)) + ":" +
           std::to_string(w.image) + ":" + (w.readback ? "r" : "") +
           (w.readback_download ? "d" : "") + ",";
    if (w.readback) {
      for (const ReadOp& op : gen.ReadBacks(w.image)) out += op.body + ";";
    }
  }
  return out + "\n";
}

}  // namespace perfbench
