#ifndef TVDP_PERFBENCH_GEN_H_
#define TVDP_PERFBENCH_GEN_H_

// Seeded input generator of the TVDP benchmark: the street-imagery catalog,
// the analyst/app read mix and the upload (write) streams. Every value is a
// pure function of (seed, index), so the same seed always yields a
// byte-identical request stream.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// The served city region (a downtown-LA-sized box) and its shard grid.
constexpr double kLat0 = 34.00, kLat1 = 34.08;
constexpr double kLon0 = -118.30, kLon1 = -118.20;
constexpr int kGridRows = 4, kGridCols = 4;

constexpr int kFeatureDim = 32;
constexpr int64_t kEpoch0 = 1546300800;         // 2019-01-01T00:00:00Z
constexpr int64_t kCaptureSpan = 90 * 86400;    // captures span 90 days
constexpr const char* kFeatureKind = "cnn";
constexpr const char* kClassification = "street_cleanliness";
constexpr const char* kModelName = "cleanliness_lr";

/// Output labels of the cleanliness task, by class index.
const std::vector<std::string>& Labels();

/// One generated street image: what an uploader sends with add_data.
struct GenImage {
  std::string uri;
  std::string source;  ///< "lasan_truck" or "crowd"
  double lat = 0, lon = 0;
  double direction = 0, angle = 0, radius = 0;  ///< camera field of view
  int64_t captured_at = 0;
  std::vector<std::string> keywords;  ///< distinct
  std::vector<double> feature;        ///< kFeatureKind descriptor
  int cls = 0;                        ///< ground-truth class
  bool annotate = false;  ///< followed by a use_model annotate write
};

/// Axis-aligned lat/lon box [min_lat, min_lon, max_lat, max_lon].
struct Box {
  double min_lat = 0, min_lon = 0, max_lat = 0, max_lon = 0;
  bool Contains(double lat, double lon) const {
    return lat >= min_lat && lat <= max_lat && lon >= min_lon &&
           lon <= max_lon;
  }
};

/// The read shapes of the analyst/app mix.
enum class ReadKind {
  kSmallBox,
  kLargeBox,
  kKeyword,
  kTemporal,
  kCategorical,
  kVisual,
  kBoxVisual,
  kBoxKeywordTime,
  kExplain,
  kDownload,
};
constexpr size_t kReadKinds = static_cast<size_t>(ReadKind::kDownload) + 1;
const char* ReadKindName(ReadKind k);

/// One read request: endpoint, JSON body text, and the predicates the body
/// encodes (what the oracle evaluates and a traced replay re-issues).
struct ReadOp {
  ReadKind kind = ReadKind::kSmallBox;
  std::string endpoint;  ///< search_datasets / explain_query / download_datasets
  std::string body;      ///< request text; empty for downloads (ids at run time)
  std::optional<Box> box;
  std::vector<std::string> keywords;
  bool keyword_or = false;
  std::optional<std::pair<int64_t, int64_t>> time;  ///< closed [begin, end]
  std::optional<int> label;                         ///< class index
  double min_confidence = 0;
  std::vector<double> feature;  ///< visual top-k probe (empty = none)
  int k = 0;
  int download_count = 0;  ///< ids fetched by a download
};

/// A write of the upload stream: add_data of one generated image, or the
/// use_model annotate write-back on that image once it is stored.
struct WriteOp {
  enum class Kind { kAdd, kAnnotate };
  Kind kind = Kind::kAdd;
  int64_t image = 0;   ///< generator index of the image written
  /// Acquisition only: the uploader's read-backs of an add (ReadBacks), and
  /// on a seeded share also a download of the new id.
  bool readback = false;
  bool readback_download = false;
};

class Generator {
 public:
  explicit Generator(uint64_t seed);

  /// Image `index` of the seed's universe (independent of call order).
  GenImage Image(int64_t index) const;

  /// add_data request text for `img`, with the inline feature.
  static std::string AddDataText(const GenImage& img);

  /// use_model annotate request text for a stored image.
  static std::string AnnotateText(int64_t image_id);

  /// `n` distinct read requests drawn from the analyst/app mix.
  std::vector<ReadOp> ReadPool(size_t n) const;

  /// Writes that upload images [first, first + n_images): each add_data,
  /// followed by an annotate write-back when the image is flagged.
  /// `readbacks` adds the uploader's read-backs to each add_data.
  std::vector<WriteOp> WriteStream(int64_t first, int64_t n_images,
                                   bool readbacks) const;

  /// The uploader's map refreshes after uploading image `index`: small
  /// bbox searches around it.
  std::vector<ReadOp> ReadBacks(int64_t index) const;

  /// Class centroid of the feature space.
  const std::vector<double>& Centroid(int cls) const {
    return centroids_[static_cast<size_t>(cls)];
  }

 private:
  uint64_t seed_;
  std::vector<std::vector<double>> centroids_;
  std::vector<std::pair<double, double>> hotspots_;
};

/// Per-client read schedule: the pool index of the client's i-th request.
class ReadSchedule {
 public:
  ReadSchedule(uint64_t seed, int client, size_t pool_size);
  size_t Next();

 private:
  uint64_t state_;
  size_t pool_size_;
};

/// download_datasets request text for `ids`.
std::string DownloadText(const std::vector<int64_t>& ids);

/// Every generated stream of a seed serialized as text — the generator's
/// determinism contract in one string (images, read pool, schedules and
/// write stream).
std::string SerializeStreams(uint64_t seed);

}  // namespace perfbench

#endif  // TVDP_PERFBENCH_GEN_H_
