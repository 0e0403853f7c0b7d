#include "runner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/file.h"
#include "common/json.h"
#include "gen.h"
#include "ml/dataset.h"
#include "ml/logistic_regression.h"
#include "oracle.h"
#include "platform/admission.h"
#include "platform/api.h"
#include "platform/model_registry.h"
#include "platform/sharding.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using tvdp::Json;
using tvdp::platform::AdmissionController;
using tvdp::platform::AdmissionOptions;
using tvdp::platform::ApiService;
using tvdp::platform::ModelRegistry;
using tvdp::platform::ShardManager;
using tvdp::platform::ShardManagerOptions;
namespace query = tvdp::query;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads

constexpr size_t kPoolSize = 1024;
constexpr size_t kReadback = static_cast<size_t>(-1);  ///< not a pool read
constexpr int kSetupReps = 4;
constexpr int kReopenReps = 11;
// Idle gap between reopens, so their median samples more than one moment of
// a shared host's CPU.
constexpr auto kReopenGap = std::chrono::milliseconds(200);
// Visual top-k runs on LSH and may miss true neighbours or return fewer
// than k. A run fails when answers short of k exceed this share of the
// checked top-k answers without a bbox (0-1% at the time of writing), or
// when the mean recall of all checked visual answers against the exact
// top k falls below the floor (0.62-0.76 at the time of writing).
constexpr double kMaxShortTopK = 0.05;
constexpr double kMinTopKRecall = 0.5;
// acquisition: writes per second of --seconds (a fixed count, so both
// sides of a comparison do identical work and end at the same size).
constexpr double kAcqWritesPerSecond = 70;
// search_during_ingest: open-loop writer rate, writes per second.
constexpr double kIngestRate = 25;

struct Config {
  std::string name;
  int shards = 4;
  int catalog = 2000;
  int replication = 1;
  int readers = 0;
  bool acquisition = false;  ///< fixed-count closed-loop writer with read-backs
  double writer_rate = 0;    ///< > 0: open-loop writer at this rate
};

std::optional<Config> ConfigFor(const std::string& name) {
  Config c;
  c.name = name;
  if (name == "city_search") {
    c.readers = 2;
  } else if (name == "acquisition") {
    c.shards = 1;
    c.catalog = 1000;
    c.replication = 2;
    c.acquisition = true;
  } else if (name == "search_during_ingest") {
    c.readers = 2;
    c.replication = 2;
    c.writer_rate = kIngestRate;
  } else {
    return std::nullopt;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Storage: the fleet lives in the checkout, on whatever disk holds it. The
// program's whole write path runs, but its fsync calls (file and directory)
// are counted here and do not reach the device — what they cost on tmpfs —
// so the numbers measure TVDP's WAL path and not a shared disk. The count
// (storage.syncs_per_write) still shows a change in how often TVDP syncs.

std::atomic<int64_t> g_syncs{0};  ///< Sync + SyncDirOf calls

class UnflushedFile : public tvdp::WritableFile {
 public:
  explicit UnflushedFile(std::unique_ptr<tvdp::WritableFile> f)
      : f_(std::move(f)) {}
  tvdp::Status Append(const uint8_t* data, size_t n) override {
    return f_->Append(data, n);
  }
  tvdp::Status Sync() override {
    g_syncs.fetch_add(1, std::memory_order_relaxed);
    return tvdp::Status::OK();
  }
  tvdp::Status Close() override { return f_->Close(); }

 private:
  std::unique_ptr<tvdp::WritableFile> f_;
};

class UnflushedFs : public tvdp::Fs {
 public:
  tvdp::Result<std::unique_ptr<tvdp::WritableFile>> OpenWritable(
      const std::string& path, bool truncate) override {
    auto f = base_->OpenWritable(path, truncate);
    if (!f.ok()) return f.status();
    return std::unique_ptr<tvdp::WritableFile>(
        std::make_unique<UnflushedFile>(std::move(f).value()));
  }
  tvdp::Result<std::vector<uint8_t>> ReadAll(const std::string& path) override {
    return base_->ReadAll(path);
  }
  tvdp::Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  tvdp::Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  tvdp::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  tvdp::Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  tvdp::Status SyncDirOf(const std::string&) override {
    g_syncs.fetch_add(1, std::memory_order_relaxed);
    return tvdp::Status::OK();
  }

 private:
  tvdp::Fs* base_ = tvdp::Fs::Default();
};

UnflushedFs* Storage() {
  static UnflushedFs fs;
  return &fs;
}

// ---------------------------------------------------------------------------
// Fleet: a ShardManager behind the API, as a city deployment serves it.

struct Fleet {
  std::unique_ptr<ShardManager> shards;
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<AdmissionController> admission;
  std::unique_ptr<ApiService> api;
  std::string writer_key, reader_key;
};

ShardManagerOptions FleetOptions(const Config& cfg, const std::string& dir) {
  ShardManagerOptions o;
  o.shard_count = cfg.shards;
  o.grid_rows = kGridRows;
  o.grid_cols = kGridCols;
  o.region = tvdp::geo::BoundingBox::FromCorners({kLat0, kLon0},
                                                 {kLat1, kLon1});
  // Range partitioning: contiguous cell blocks per shard.
  const int cells = kGridRows * kGridCols;
  for (int cell = 0; cell < cells; ++cell) {
    o.cell_assignments.emplace_back(cell, cell * cfg.shards / cells);
  }
  o.base_path = dir;
  o.durable.sync_on_commit = true;  // the default flush policy
  o.durable.fs = Storage();
  o.replication.replication_factor = cfg.replication;
  o.replication.sync = tvdp::platform::SyncLevel::kSync;
  return o;
}

/// Wraps an open ShardManager with a registry, an admission controller
/// sized never to queue at the workload's client count, and the API.
void AttachApi(Fleet* f) {
  f->registry = std::make_unique<ModelRegistry>();
  AdmissionOptions ao;
  ao.max_concurrent = 16;
  f->admission = std::make_unique<AdmissionController>(ao);
  f->api = std::make_unique<ApiService>(f->shards.get(), f->registry.get(),
                                        f->admission.get());
  f->writer_key = f->api->CreateApiKey("lasan");
  f->reader_key = f->api->CreateApiKey("analyst");
}

void CloseFleet(Fleet* f) {
  f->api.reset();
  f->admission.reset();
  f->registry.reset();
  f->shards.reset();
}

// ---------------------------------------------------------------------------
// Envelope helpers

struct Envelope {
  Json env;
  bool ok = false;
  bool degraded = false;
};

Envelope Classify(Json env) {
  const Json& c = env;
  Envelope e;
  e.ok = c["status"].is_string() && c["status"].AsString() == "ok";
  e.degraded = c["degraded"].AsBool() || c["data"]["degraded"].AsBool();
  e.env = std::move(env);
  return e;
}

Json ParseOrDie(const std::string& text) {
  tvdp::Result<Json> j = Json::Parse(text);
  if (!j.ok()) Die("generated request does not parse: " + text);
  return std::move(j).value();
}

query::HybridQuery ToQuery(const ReadOp& op) {
  query::HybridQuery q;
  if (op.box) {
    query::SpatialPredicate sp;
    sp.kind = query::SpatialPredicate::Kind::kRange;
    sp.range.min_lat = op.box->min_lat;
    sp.range.min_lon = op.box->min_lon;
    sp.range.max_lat = op.box->max_lat;
    sp.range.max_lon = op.box->max_lon;
    q.spatial = sp;
  }
  if (!op.keywords.empty()) {
    query::TextualPredicate tp;
    tp.mode = op.keyword_or ? query::TextualPredicate::Mode::kOr
                            : query::TextualPredicate::Mode::kAnd;
    tp.keywords = op.keywords;
    q.textual = tp;
  }
  if (op.time) q.temporal = query::TemporalPredicate{op.time->first, op.time->second};
  if (op.label) {
    query::CategoricalPredicate cp;
    cp.classification = kClassification;
    cp.label = Labels()[static_cast<size_t>(*op.label)];
    cp.min_confidence = op.min_confidence;
    q.categorical = cp;
  }
  if (!op.feature.empty()) {
    query::VisualPredicate vp;
    vp.kind = query::VisualPredicate::Kind::kTopK;
    vp.feature_kind = kFeatureKind;
    vp.feature = op.feature;
    vp.k = op.k;
    q.visual = vp;
  }
  return q;
}

/// The one-conjunct queries of `q`, by family name.
std::vector<std::pair<std::string, query::HybridQuery>> Conjuncts(
    const query::HybridQuery& q) {
  std::vector<std::pair<std::string, query::HybridQuery>> out;
  query::HybridQuery one;
  if (q.spatial) { one = {}; one.spatial = q.spatial; out.emplace_back("spatial", one); }
  if (q.textual) { one = {}; one.textual = q.textual; out.emplace_back("textual", one); }
  if (q.temporal) { one = {}; one.temporal = q.temporal; out.emplace_back("temporal", one); }
  if (q.categorical) { one = {}; one.categorical = q.categorical; out.emplace_back("categorical", one); }
  if (q.visual) { one = {}; one.visual = q.visual; out.emplace_back("visual", one); }
  return out;
}

/// Walks an executed plan (single-shard or ScatterGather wrapper): q-error
/// of every operator with both estimate and actual, and Σ actual rows.
void WalkPlan(const Json& plan, std::vector<double>* qerrors, double* rows) {
  std::vector<const Json*> stack;
  if (plan.Has("shard_plans")) {
    for (const Json& sp : plan["shard_plans"].AsArray()) {
      if (sp.Has("plan")) stack.push_back(&sp["plan"]["operators"]);
    }
  } else if (plan.Has("operators")) {
    stack.push_back(&plan["operators"]);
  }
  while (!stack.empty()) {
    const Json* n = stack.back();
    stack.pop_back();
    if (n->Has("actual_rows")) {
      *rows += (*n)["actual_rows"].AsDouble();
      if (n->Has("estimated_rows")) {
        qerrors->push_back(QError((*n)["estimated_rows"].AsDouble(),
                                  (*n)["actual_rows"].AsDouble()));
      }
    }
    if (n->Has("children")) {
      for (const Json& c : (*n)["children"].AsArray()) stack.push_back(&c);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-thread measurement state

/// Samples of the traced run, merged across threads at the end.
struct LayerSamples {
  std::vector<double> parse_us, dump_us, response_bytes, api_self_us;
  std::map<std::string, std::vector<double>> api_ms;  // by endpoint
  std::vector<double> sg_query_ms, sg_slowest_ms, sg_self_ms;
  double sg_queries = 0, sg_probed = 0, sg_yielding = 0, sg_attempts = 0;
  std::vector<double> explain_ms, qerrors;
  double operator_rows = 0, hits = 0;
  std::map<std::string, std::vector<double>> index_ms;  // by family
  std::vector<double> ingest_ms, feature_ms, annotate_ms, predict_us;
  std::vector<double> bytes_copied;

  void Merge(const LayerSamples& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(parse_us, o.parse_us);
    cat(dump_us, o.dump_us);
    cat(response_bytes, o.response_bytes);
    cat(api_self_us, o.api_self_us);
    for (const auto& [k, v] : o.api_ms) cat(api_ms[k], v);
    cat(sg_query_ms, o.sg_query_ms);
    cat(sg_slowest_ms, o.sg_slowest_ms);
    cat(sg_self_ms, o.sg_self_ms);
    sg_queries += o.sg_queries;
    sg_probed += o.sg_probed;
    sg_yielding += o.sg_yielding;
    sg_attempts += o.sg_attempts;
    cat(explain_ms, o.explain_ms);
    cat(qerrors, o.qerrors);
    operator_rows += o.operator_rows;
    hits += o.hits;
    for (const auto& [k, v] : o.index_ms) cat(index_ms[k], v);
    cat(ingest_ms, o.ingest_ms);
    cat(feature_ms, o.feature_ms);
    cat(annotate_ms, o.annotate_ms);
    cat(predict_us, o.predict_us);
    cat(bytes_copied, o.bytes_copied);
  }
};

/// What a read returned, kept for the post-window oracle check.
struct ReadRecord {
  size_t pool = 0;               ///< pool index; readbacks carry `own`
  std::unique_ptr<ReadOp> own;
  int64_t lo = 0, hi = 0;        ///< write-prefix bounds (oracle.h)
  std::vector<int64_t> ids;      ///< search answer
  std::vector<RowFacts> rows;    ///< download answer
};

/// Exact shapes whose one right answer a digest can stand for; the rest
/// (visual ranking, plan-dependent hybrids) are checked on their ids.
bool DigestOnly(const ReadOp& op) {
  return Oracle::Exact(op) && !Oracle::PlanDependent(op);
}

/// A read-only window's answers to one pool request. Every read of the
/// request must return the same ids; the first answer is checked after the
/// window, by its digest or (not DigestOnly) by its ids.
struct PoolAnswer {
  bool seen = false;
  uint64_t digest = 0;
  std::vector<int64_t> ids;  ///< first answer, when not DigestOnly
  int64_t changed = 0;       ///< later answers with another digest
};

// Per client thread, the benchmark keeps at most this many latency samples
// and read records (uniform samples of the window). Both fill within the
// window even at a quarter of today's read rate, so the benchmark's own
// memory is the same however fast the platform answers, and peak_rss_mb
// moves with the platform's memory alone.
constexpr size_t kKeptLatencies = 8192;
constexpr size_t kKeptRecords = 4096;

struct ThreadResult {
  explicit ThreadResult(uint64_t seed = 0)
      : read_ms(kKeptLatencies, seed), records(kKeptRecords, ~seed) {}

  int64_t attempted = 0, failed = 0;
  int64_t reads = 0;  ///< read envelopes sent
  std::vector<int64_t> reads_by_second;  ///< reads completed in each second
  Reservoir<double> read_ms;  ///< latencies of successful reads
  /// Successful reads and their Σ ms, by ReadKind.
  std::array<std::pair<int64_t, double>, kReadKinds> by_kind{};
  std::vector<double> ingest_ms, annotate_ms, late_ms;
  Reservoir<ReadRecord> records;
  std::vector<PoolAnswer> pool_answers;  ///< read-only windows, by pool index
  std::vector<std::string> errors;  ///< correctness failures
  double user_bytes = 0;            ///< JSON bytes of acked writes
  int64_t acked_writes = 0;
  LayerSamples layers;
  std::unique_ptr<SpanLog> log;

  void Fail(const std::string& msg) {
    if (errors.size() < 20) errors.push_back(msg);
  }
};

// ---------------------------------------------------------------------------
// The run

class Run {
 public:
  Run(const RunArgs& args, Config cfg)
      : args_(args), cfg_(std::move(cfg)), gen_(args.seed),
        pool_(gen_.ReadPool(kPoolSize)), origin_(Clock::now()) {
    static_reads_ = !cfg_.acquisition && cfg_.writer_rate == 0;
  }

  int Execute();

 private:
  // The linear cleanliness model, trained on labelled uploads.
  Json TrainModel();
  // Setup: a fresh durable fleet loaded through the API from one thread.
  void Setup(const std::string& dir, double* seconds);
  // One request through the API: parse, HandleEnvelope, dump. Returns the
  // envelope; `ms` gets the request latency, `api_span` the API span.
  Envelope Call(const std::string& key, const std::string& endpoint,
                const std::string& text, ThreadResult* tr, uint64_t rid,
                double* ms, size_t* api_span);
  // A window: readers and the writer run until their stop condition.
  void Window(bool traced, int64_t first_write, int64_t n_writes,
              double seconds, std::vector<ThreadResult>* out,
              double* elapsed_s);
  void Reader(int client, Clock::time_point deadline, bool traced,
              ThreadResult* tr);
  void Writer(const std::vector<WriteOp>& ops, int64_t first_op,
              double rate, bool traced, ThreadResult* tr);
  void DoRead(const ReadOp& op, size_t pool_idx, const std::string& text,
              size_t requested, int64_t lo, bool traced, ThreadResult* tr,
              std::vector<int64_t>* last_ids,
              const std::function<int64_t()>& hi_now);
  bool DoWrite(const WriteOp& w, int64_t op_index, bool traced,
               bool decompose, ThreadResult* tr, double due_offset_ms);
  void Replay(const ReadOp& op, uint64_t rid, uint64_t api_span,
              ThreadResult* tr, double* child_us);
  void CheckReads(const std::vector<ThreadResult>& results);
  void CheckAckedWrites(Fleet* f, const char* when);

  const RunArgs& args_;
  Config cfg_;
  Generator gen_;
  std::vector<ReadOp> pool_;
  Clock::time_point origin_;

  Fleet fleet_;
  Json model_;
  Oracle oracle_;
  std::string dir_;
  int64_t setup_ops_ = 0;  ///< writes of the setup load
  int64_t ops_total_ = 0;  ///< writes issued so far (setup + windows)
  std::vector<int64_t> setup_ids_;
  std::unordered_map<int64_t, size_t> entry_of_image_;
  size_t first_window_entry_ = 0;
  std::atomic<int64_t> started_{0}, acked_{0};  ///< window write prefix
  bool static_reads_ = false;  ///< the catalog never changes under reads

  std::vector<double> setup_s_, setup_ingest_ms_, setup_annotate_ms_;
  double setup_load_s_ = 0;
  int64_t setup_writes_ = 0;
  double user_bytes_ = 0;
  std::vector<std::string> errors_;
  int64_t plan_dependent_checked_ = 0, off_contract_ = 0;
  int64_t topk_checked_ = 0, topk_unboxed_ = 0, short_topk_ = 0;
  double recall_sum_ = 0;
};

Json Run::TrainModel() {
  tvdp::ml::Dataset data;
  for (int64_t i = 0; i < 800; ++i) {
    GenImage img = gen_.Image(i);
    (void)data.Add(img.feature, img.cls);
  }
  tvdp::ml::LogisticRegressionClassifier model;
  if (!model.Train(data).ok()) Die("model training failed");
  return model.ToJson().value();
}

void Run::Setup(const std::string& dir, double* seconds) {
  fleet_ = Fleet();
  oracle_ = Oracle();
  entry_of_image_.clear();
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Timed: what a deployment does to come up with this catalog.
  auto t0 = Clock::now();
  auto created = ShardManager::Create(FleetOptions(cfg_, dir));
  if (!created.ok()) Die("fleet create: " + created.status().ToString());
  fleet_.shards = std::move(created).value();
  AttachApi(&fleet_);
  auto cls = fleet_.shards->RegisterClassification(kClassification, Labels());
  if (!cls.ok()) Die("register classification: " + cls.status().ToString());

  // Share the linear cleanliness model (trained once per run, untimed).
  Json reg = Json::MakeObject();
  Json spec = Json::MakeObject();
  spec["name"] = kModelName;
  spec["feature_kind"] = kFeatureKind;
  spec["classification"] = kClassification;
  Json labels = Json::MakeArray();
  for (const std::string& l : Labels()) labels.Append(l);
  spec["labels"] = std::move(labels);
  reg["spec"] = std::move(spec);
  reg["model"] = model_;
  Envelope r = Classify(fleet_.api->HandleEnvelope(
      fleet_.writer_key, "register_model", ParseOrDie(reg.Dump())));
  if (!r.ok) Die("register_model: " + r.env.Dump());

  // Load the catalog: add_data (+ annotate write-back) per image.
  auto load0 = Clock::now();
  ThreadResult tr;
  std::vector<WriteOp> ops = gen_.WriteStream(0, cfg_.catalog, false);
  ops_total_ = 0;
  for (const WriteOp& w : ops) {
    if (!DoWrite(w, ops_total_, false, false, &tr, -1)) {
      Die("setup write failed: " + (tr.errors.empty() ? "" : tr.errors[0]));
    }
    ++ops_total_;
  }
  setup_load_s_ += MsSince(load0) / 1e3;
  setup_writes_ += tr.acked_writes;
  setup_ops_ = ops_total_;
  setup_ingest_ms_.insert(setup_ingest_ms_.end(), tr.ingest_ms.begin(),
                          tr.ingest_ms.end());
  setup_annotate_ms_.insert(setup_annotate_ms_.end(), tr.annotate_ms.begin(),
                            tr.annotate_ms.end());
  user_bytes_ = tr.user_bytes;
  setup_ids_.clear();
  for (const OracleEntry& e : oracle_.entries()) setup_ids_.push_back(e.id);
  first_window_entry_ = oracle_.entries().size();
  *seconds = MsSince(t0) / 1e3;
}

Envelope Run::Call(const std::string& key, const std::string& endpoint,
                   const std::string& text, ThreadResult* tr, uint64_t rid,
                   double* ms, size_t* api_span) {
  SpanLog* log = tr->log.get();
  auto t0 = Clock::now();
  if (log == nullptr) {
    Json req = ParseOrDie(text);
    Json env = fleet_.api->HandleEnvelope(key, endpoint, req);
    std::string out = env.Dump();
    *ms = MsSince(t0);
    return Classify(std::move(env));
  }
  size_t root = log->Open("request", 0, rid);
  uint64_t root_id = log->at(root).id;
  size_t p = log->Open("json.parse", root_id, rid);
  Json req = ParseOrDie(text);
  log->Close(p);
  size_t a = log->Open("api." + endpoint, root_id, rid);
  Json env = fleet_.api->HandleEnvelope(key, endpoint, req);
  log->Close(a);
  size_t d = log->Open("json.dump", root_id, rid);
  std::string out = env.Dump();
  log->Close(d);
  log->Close(root);
  *ms = MsSince(t0);
  tr->layers.parse_us.push_back(log->at(p).us());
  tr->layers.dump_us.push_back(log->at(d).us());
  tr->layers.response_bytes.push_back(static_cast<double>(out.size()));
  tr->layers.api_ms[endpoint].push_back(log->at(a).us() / 1e3);
  if (api_span) *api_span = a;
  return Classify(std::move(env));
}

void Run::Replay(const ReadOp& op, uint64_t rid, uint64_t api_span,
                 ThreadResult* tr, double* child_us) {
  SpanLog* log = tr->log.get();
  LayerSamples& L = tr->layers;
  query::HybridQuery q = ToQuery(op);
  const bool search = op.endpoint == "search_datasets";
  // EXPLAIN is work the API call itself did only for explain_query.
  size_t e = log->Open("planner.explain", search ? 0 : api_span, rid, true);
  auto plan = fleet_.shards->ExplainQuery(q);
  log->Close(e);
  L.explain_ms.push_back(log->at(e).us() / 1e3);
  if (!search) {
    *child_us += log->at(e).us();
    return;
  }
  size_t s = log->Open("scatter_gather.query", api_span, rid, true);
  auto res = fleet_.shards->ExecuteQuery(q);
  log->Close(s);
  *child_us += log->at(s).us();
  if (res.ok()) {
    double qms = log->at(s).us() / 1e3, slowest = 0;
    int probed = 0;
    for (const query::ShardReport& r : res->coverage.reports) {
      if (r.attempts == 0) continue;
      ++probed;
      slowest = std::max(slowest, r.latency_ms);
      L.sg_attempts += r.attempts;
      if (r.rows > 0) L.sg_yielding += 1;
    }
    L.sg_query_ms.push_back(qms);
    L.sg_slowest_ms.push_back(slowest);
    L.sg_self_ms.push_back(std::max(0.0, qms - slowest));
    L.sg_queries += 1;
    L.sg_probed += probed;
    WalkPlan(res->plan, &L.qerrors, &L.operator_rows);
    L.hits += static_cast<double>(res->hits.size());
  }
  for (const auto& [family, one] : Conjuncts(q)) {
    size_t c = log->Open("index." + family, 0, rid, true);
    auto r = fleet_.shards->ExecuteQuery(one);
    log->Close(c);
    if (r.ok()) L.index_ms[family].push_back(log->at(c).us() / 1e3);
  }
}

void Run::DoRead(const ReadOp& op, size_t pool_idx, const std::string& text,
                 size_t requested, int64_t lo, bool traced, ThreadResult* tr,
                 std::vector<int64_t>* last_ids,
                 const std::function<int64_t()>& hi_now) {
  uint64_t rid = traced ? tr->log->NewRequest() : 0;
  double ms = 0;
  size_t api_span = 0;
  Envelope e =
      Call(fleet_.reader_key, op.endpoint, text, tr, rid, &ms, &api_span);
  int64_t hi = hi_now();
  const int64_t n = tr->reads++;
  ++tr->attempted;
  if (!e.ok || e.degraded) ++tr->failed;
  if (e.degraded) tr->Fail("degraded response to " + op.endpoint);
  if (!e.ok || e.degraded) return;
  tr->read_ms.Add(ms);
  auto& kind = tr->by_kind[static_cast<size_t>(op.kind)];
  kind.first += 1;
  kind.second += ms;
  const Json& data = e.env["data"];
  ReadRecord rec;
  rec.pool = pool_idx;
  if (pool_idx == kReadback) rec.own = std::make_unique<ReadOp>(op);
  rec.lo = lo;
  rec.hi = hi;
  if (op.endpoint == "search_datasets") {
    if (!data["coverage"]["complete"].AsBool()) {
      tr->Fail("incomplete coverage on " + std::string(ReadKindName(op.kind)));
    }
    for (const Json& id : data["image_ids"].AsArray()) rec.ids.push_back(id.AsInt());
    if (!rec.ids.empty() && last_ids) *last_ids = rec.ids;
  } else if (op.endpoint == "download_datasets") {
    for (const Json& r : data["rows"].AsArray()) {
      rec.rows.push_back(RowFacts{r["id"].AsInt(), r["lat"].AsDouble(),
                                  r["lon"].AsDouble(), r["captured_at"].AsInt(),
                                  r["uri"].AsString(), r["source"].AsString()});
    }
    // Every requested id is stored (none is ever deleted), so a download
    // returns one row per distinct id.
    if (rec.rows.size() != requested) {
      tr->Fail("download of " + std::to_string(requested) + " ids returned " +
               std::to_string(rec.rows.size()) + " rows");
    }
  } else {
    if (!data["plan"].is_object()) tr->Fail("explain_query returned no plan");
  }
  // A traced read replays its layer calls on a 1-in-4 sample, so the
  // replays load the fleet less than the requests they explain.
  const bool replay = traced && op.endpoint != "download_datasets" && n % 4 == 1;
  if (replay) {
    double child_us = 0;
    Replay(op, rid, tr->log->at(api_span).id, tr, &child_us);
    tr->layers.api_self_us.push_back(
        std::max(0.0, tr->log->at(api_span).us() - child_us));
  } else if (traced && op.endpoint == "download_datasets") {
    tr->layers.api_self_us.push_back(tr->log->at(api_span).us());
  }
  if (op.endpoint == "explain_query") return;
  if (static_reads_ && op.endpoint == "download_datasets") {
    // Nothing writes during a read-only window, so the oracle cannot change
    // and every download is checked here, off the timed span, not kept.
    for (const RowFacts& row : rec.rows) {
      std::string err = oracle_.CheckRow(row, hi);
      if (!err.empty()) tr->Fail(std::string(ReadKindName(op.kind)) + ": " + err);
    }
    return;
  }
  if (static_reads_ && pool_idx != kReadback && op.endpoint == "search_datasets") {
    // A read-only window: one answer per request is checked; every later
    // answer must carry the same digest.
    PoolAnswer& pa = tr->pool_answers[pool_idx];
    uint64_t digest = IdSetDigest(rec.ids);
    if (!pa.seen) {
      pa.seen = true;
      pa.digest = digest;
      if (!DigestOnly(op)) pa.ids = std::move(rec.ids);
      return;
    }
    if (digest == pa.digest) return;
    ++pa.changed;
    if (DigestOnly(op)) return;  // reported after the window
  }
  tr->records.Add(std::move(rec));
}

bool Run::DoWrite(const WriteOp& w, int64_t op_index, bool traced,
                  bool decompose, ThreadResult* tr, double due_offset_ms) {
  const bool add = w.kind == WriteOp::Kind::kAdd;
  std::string text;
  GenImage img;
  size_t entry = 0;
  if (add) {
    img = gen_.Image(w.image);
    text = Generator::AddDataText(img);
    entry = oracle_.AddImage(op_index, img);
    entry_of_image_[w.image] = entry;
  } else {
    entry = entry_of_image_.at(w.image);
    int64_t id = oracle_.entries()[entry].id;
    if (id < 0) return false;
    text = Generator::AnnotateText(id);
  }
  const std::string endpoint = add ? "add_data" : "use_model";
  started_.store(op_index + 1 - setup_ops_);
  double ms = 0;
  Json data;
  bool ok = false;
  if (!decompose) {
    uint64_t rid = traced ? tr->log->NewRequest() : 0;
    size_t api_span = 0;
    Envelope e =
        Call(fleet_.writer_key, endpoint, text, tr, rid, &ms, &api_span);
    if (traced) tr->layers.api_self_us.push_back(tr->log->at(api_span).us());
    if (e.degraded) tr->Fail("degraded response to " + endpoint);
    ok = e.ok && !e.degraded;
    if (e.ok) data = e.env["data"];
  } else {
    // The same write decomposed into the layer calls the API makes.
    SpanLog* log = tr->log.get();
    LayerSamples& L = tr->layers;
    uint64_t rid = log->NewRequest();
    auto t0 = Clock::now();
    size_t root = log->Open("request", 0, rid);
    uint64_t root_id = log->at(root).id;
    size_t p = log->Open("json.parse", root_id, rid);
    Json req = ParseOrDie(text);
    log->Close(p);
    size_t body = log->Open("decomposed." + endpoint, root_id, rid);
    uint64_t body_id = log->at(body).id;
    auto sample_copied = [&](int64_t id) {
      const Json st = fleet_.shards->StatsJson();
      int64_t shard = id % fleet_.shards->shard_count();
      L.bytes_copied.push_back(
          st["shards"].AsArray()[static_cast<size_t>(shard)]["mvcc"]
            ["bytes_copied_last_commit"].AsDouble());
    };
    Json out = Json::MakeObject();
    if (add) {
      tvdp::platform::ImageRecord rec;
      rec.uri = req["uri"].AsString();
      rec.source = req["source"].AsString();
      rec.location = tvdp::geo::GeoPoint{req["lat"].AsDouble(), req["lon"].AsDouble()};
      rec.captured_at = req["captured_at"].AsInt();
      const Json& f = req["fov"];
      rec.fov = tvdp::geo::FieldOfView::Make(rec.location, f["direction"].AsDouble(),
                                             f["angle"].AsDouble(),
                                             f["radius"].AsDouble())
                    .value();
      for (const Json& k : req["keywords"].AsArray()) rec.keywords.push_back(k.AsString());
      std::vector<double> feature;
      for (const Json& v : req["features"][kFeatureKind].AsArray()) feature.push_back(v.AsDouble());
      size_t c = log->Open("commit.ingest", body_id, rid);
      auto id = fleet_.shards->IngestImage(rec);
      log->Close(c);
      L.ingest_ms.push_back(log->at(c).us() / 1e3);
      if (id.ok()) {
        sample_copied(*id);
        size_t s = log->Open("commit.feature", body_id, rid);
        tvdp::Status st = fleet_.shards->StoreFeature(*id, kFeatureKind, feature);
        log->Close(s);
        L.feature_ms.push_back(log->at(s).us() / 1e3);
        sample_copied(*id);
        if (st.ok()) {
          out["image_id"] = *id;
          ok = true;
        }
      }
    } else {
      int64_t id = req["image_id"].AsInt();
      size_t g = log->Open("shard.get_feature", body_id, rid);
      auto feature = fleet_.shards->GetFeature(id, kFeatureKind);
      log->Close(g);
      if (feature.ok()) {
        size_t m = log->Open("ml.predict", body_id, rid);
        auto pred = fleet_.registry->PredictWithConfidence(kModelName, *feature);
        log->Close(m);
        L.predict_us.push_back(log->at(m).us());
        if (pred.ok()) {
          tvdp::platform::AnnotationRecord ann;
          ann.classification = kClassification;
          ann.label = pred->first;
          ann.confidence = pred->second;
          ann.machine = true;
          size_t c = log->Open("commit.annotate", body_id, rid);
          auto ann_id = fleet_.shards->AnnotateImage(id, ann);
          log->Close(c);
          L.annotate_ms.push_back(log->at(c).us() / 1e3);
          if (ann_id.ok()) {
            sample_copied(id);
            out["label"] = pred->first;
            out["confidence"] = pred->second;
            out["annotation_id"] = *ann_id;
            ok = true;
          }
        }
      }
    }
    log->Close(body);
    size_t d = log->Open("json.dump", root_id, rid);
    std::string out_text = out.Dump();
    log->Close(d);
    log->Close(root);
    ms = MsSince(t0);
    L.parse_us.push_back(log->at(p).us());
    L.dump_us.push_back(log->at(d).us());
    L.response_bytes.push_back(static_cast<double>(out_text.size()));
    data = std::move(out);
  }
  if (due_offset_ms >= 0) ms += due_offset_ms;
  ++tr->attempted;
  (add ? tr->ingest_ms : tr->annotate_ms).push_back(ms);
  if (!ok) {
    ++tr->failed;
    return false;
  }
  if (add) {
    oracle_.Ack(entry, data["image_id"].AsInt());
  } else {
    const auto& labels = Labels();
    auto it = std::find(labels.begin(), labels.end(), data["label"].AsString());
    if (it == labels.end()) {
      tr->Fail("use_model returned an unknown label");
      return false;
    }
    oracle_.Annotate(entry, op_index, static_cast<int>(it - labels.begin()),
                     data["confidence"].AsDouble());
  }
  ++tr->acked_writes;
  tr->user_bytes += static_cast<double>(text.size());
  acked_.store(op_index + 1 - setup_ops_);
  return true;
}

void Run::Reader(int client, Clock::time_point deadline, bool traced,
                 ThreadResult* tr) {
  ReadSchedule sched(args_.seed, client, pool_.size());
  std::vector<int64_t> last_ids;
  auto hi_now = [this] { return setup_ops_ + started_.load(); };
  const auto t0 = Clock::now();
  int64_t n = 0;
  while (Clock::now() < deadline) {
    size_t idx = sched.Next();
    const ReadOp& op = pool_[idx];
    std::string text = op.body;
    size_t requested = 0;
    if (op.kind == ReadKind::kDownload) {
      // ids returned by this client's latest non-empty search.
      std::vector<int64_t> ids;
      for (int i = 0; i < op.download_count; ++i) {
        if (!last_ids.empty()) {
          ids.push_back(last_ids[static_cast<size_t>(i) % last_ids.size()]);
        } else {
          ids.push_back(setup_ids_[static_cast<size_t>(n + i * 7) %
                                   setup_ids_.size()]);
        }
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      requested = ids.size();
      text = DownloadText(ids);
    }
    int64_t lo = setup_ops_ + acked_.load();
    DoRead(op, idx, text, requested, lo, traced, tr, &last_ids, hi_now);
    ++n;
    const size_t second = static_cast<size_t>(MsSince(t0) / 1e3);
    if (tr->reads_by_second.size() <= second) tr->reads_by_second.resize(second + 1);
    ++tr->reads_by_second[second];
  }
}

void Run::Writer(const std::vector<WriteOp>& ops, int64_t first_op,
                 double rate, bool traced, ThreadResult* tr) {
  auto t0 = Clock::now();
  for (size_t k = 0; k < ops.size(); ++k) {
    const WriteOp& w = ops[k];
    double due_ms = -1;
    if (rate > 0) {
      // Open loop: send at the scheduled time; latency counts from it.
      auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(k / rate));
      std::this_thread::sleep_until(due);
      due_ms = std::chrono::duration<double, std::milli>(Clock::now() - due).count();
      tr->late_ms.push_back(due_ms);
    }
    int64_t op_index = first_op + static_cast<int64_t>(k);
    bool decompose = traced && (k % 2 == 1);
    bool ok = DoWrite(w, op_index, traced, decompose, tr, due_ms);
    if (!ok || w.kind != WriteOp::Kind::kAdd) continue;
    // The uploader's read-backs of the upload just acked.
    const OracleEntry& e = oracle_.entries()[entry_of_image_.at(w.image)];
    const int64_t now = op_index + 1;
    auto hi = [now] { return now; };
    if (w.readback) {
      for (const ReadOp& rb : gen_.ReadBacks(w.image)) {
        DoRead(rb, kReadback, rb.body, 0, now, traced, tr, nullptr, hi);
      }
    }
    if (w.readback_download) {
      ReadOp rb;
      rb.kind = ReadKind::kDownload;
      rb.endpoint = "download_datasets";
      rb.body = DownloadText({e.id});
      DoRead(rb, kReadback, rb.body, 1, now, traced, tr, nullptr, hi);
    }
  }
}

void Run::Window(bool traced, int64_t first_write, int64_t n_writes,
                 double seconds, std::vector<ThreadResult>* out,
                 double* elapsed_s) {
  int threads = cfg_.readers + ((cfg_.acquisition || cfg_.writer_rate > 0) ? 1 : 0);
  out->clear();
  for (int t = 0; t < threads; ++t) {
    out->emplace_back(args_.seed * 8 + static_cast<uint64_t>(t) + (traced ? 4 : 0));
    ThreadResult& tr = out->back();
    if (traced) tr.log = std::make_unique<SpanLog>(t + 1, origin_);
    if (static_reads_) tr.pool_answers.resize(pool_.size());
  }
  std::vector<WriteOp> writes;
  if (n_writes > 0) {
    // Enough images to cover `n_writes` writes, cut to the exact count.
    std::vector<WriteOp> all = gen_.WriteStream(first_write, n_writes, cfg_.acquisition);
    writes.assign(all.begin(), all.begin() + std::min<size_t>(all.size(), n_writes));
  }
  started_.store(ops_total_ - setup_ops_);
  acked_.store(ops_total_ - setup_ops_);
  auto t0 = Clock::now();
  auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  std::vector<std::thread> pool;
  for (int c = 0; c < cfg_.readers; ++c) {
    pool.emplace_back([&, c] { Reader(c, deadline, traced, &(*out)[static_cast<size_t>(c)]); });
  }
  if (!writes.empty()) {
    double rate = cfg_.writer_rate;
    int64_t first_op = ops_total_;
    pool.emplace_back([&, rate, first_op] {
      Writer(writes, first_op, rate, traced, &out->back());
    });
  }
  for (std::thread& t : pool) t.join();
  *elapsed_s = MsSince(t0) / 1e3;
  ops_total_ += static_cast<int64_t>(writes.size());
}

void Run::CheckReads(const std::vector<ThreadResult>& results) {
  auto note = [&](const ReadOp& op, const std::string& err) {
    if (!err.empty() && errors_.size() < 20) {
      errors_.push_back(std::string(ReadKindName(op.kind)) + ": " + err +
                        " (" + op.body + ")");
    }
  };
  auto search = [&](const ReadOp& op, int64_t lo, int64_t hi,
                    const std::vector<int64_t>& ids) {
    CheckNotes notes;
    note(op, oracle_.CheckSearch(op, lo, hi, ids, &notes));
    if (Oracle::PlanDependent(op)) ++plan_dependent_checked_;
    off_contract_ += notes.off_fov_contract;
    if (notes.recall >= 0) {
      ++topk_checked_;
      recall_sum_ += notes.recall;
      if (!op.box) {
        ++topk_unboxed_;
        short_topk_ += notes.short_topk;
      }
    }
  };
  std::map<size_t, uint64_t> expected_digest;  // by pool index
  for (const ThreadResult& tr : results) {
    for (const std::string& e : tr.errors) errors_.push_back(e);
    for (size_t i = 0; i < tr.pool_answers.size(); ++i) {
      const PoolAnswer& pa = tr.pool_answers[i];
      if (!pa.seen) continue;
      const ReadOp& op = pool_[i];
      const int64_t p = setup_ops_;
      if (DigestOnly(op)) {
        if (pa.changed > 0) {
          note(op, std::to_string(pa.changed) +
                       " answers differ from the first on an unchanging catalog");
        }
        auto it = expected_digest.find(i);
        if (it == expected_digest.end()) {
          it = expected_digest.emplace(i, IdSetDigest(oracle_.Expect(op, p))).first;
        }
        if (it->second != pa.digest) note(op, "answer differs from the oracle");
      } else {
        search(op, p, p, pa.ids);
      }
    }
    for (const ReadRecord& rec : tr.records.items()) {
      const ReadOp& op = rec.own ? *rec.own : pool_[rec.pool];
      if (op.endpoint == "download_datasets") {
        for (const RowFacts& row : rec.rows) {
          std::string err = oracle_.CheckRow(row, rec.hi);
          note(op, err);
          if (!err.empty()) break;
        }
      } else {
        search(op, rec.lo, rec.hi, rec.ids);
      }
    }
  }
}

void Run::CheckAckedWrites(Fleet* f, const char* when) {
  auto fail = [&](const std::string& msg) {
    if (errors_.size() < 20) errors_.push_back(std::string(when) + ": " + msg);
  };
  auto call = [&](const std::string& endpoint, const std::string& text) {
    return Classify(f->api->HandleEnvelope(f->reader_key, endpoint, ParseOrDie(text)));
  };
  // Every acked upload is downloadable with the fields that were written.
  std::vector<int64_t> ids;
  for (const OracleEntry& e : oracle_.entries()) {
    if (e.id >= 0) ids.push_back(e.id);
  }
  for (size_t i = 0; i < ids.size(); i += 100) {
    std::vector<int64_t> batch(
        ids.begin() + static_cast<std::ptrdiff_t>(i),
        ids.begin() + static_cast<std::ptrdiff_t>(std::min(ids.size(), i + 100)));
    Envelope e = call("download_datasets", DownloadText(batch));
    if (!e.ok || e.env["data"]["rows"].size() != batch.size()) {
      fail("acked uploads not downloadable");
      return;
    }
    for (const Json& r : e.env["data"]["rows"].AsArray()) {
      std::string err = oracle_.CheckRow(
          RowFacts{r["id"].AsInt(), r["lat"].AsDouble(), r["lon"].AsDouble(),
                   r["captured_at"].AsInt(), r["uri"].AsString(),
                   r["source"].AsString()},
          ops_total_);
      if (!err.empty()) return fail(err);
    }
  }
  // Every feature uploaded in a timed window reads back exactly.
  const auto& entries = oracle_.entries();
  for (size_t i = first_window_entry_; i < entries.size(); ++i) {
    if (entries[i].id < 0) continue;
    Json req = Json::MakeObject();
    req["image_id"] = entries[i].id;
    req["kind"] = kFeatureKind;
    Envelope e = call("get_visual_features", req.Dump());
    std::vector<double> got;
    if (e.ok) {
      for (const Json& v : e.env["data"]["feature"].AsArray()) got.push_back(v.AsDouble());
    }
    if (got != entries[i].img.feature) {
      return fail("feature of image " + std::to_string(entries[i].id) +
                  " does not read back");
    }
  }
  // Every acked annotation is found by its label.
  for (size_t l = 0; l < Labels().size(); ++l) {
    ReadOp op;
    op.kind = ReadKind::kCategorical;
    op.endpoint = "search_datasets";
    op.label = static_cast<int>(l);
    Json req = Json::MakeObject();
    req["classification"] = kClassification;
    req["label"] = Labels()[l];
    Envelope e = call("search_datasets", req.Dump());
    std::vector<int64_t> got;
    if (e.ok) {
      for (const Json& id : e.env["data"]["image_ids"].AsArray()) got.push_back(id.AsInt());
    }
    std::string err = oracle_.CheckSearch(op, ops_total_, ops_total_, got);
    if (!e.ok || !err.empty()) return fail("annotations of " + Labels()[l] + ": " + err);
  }
}

// ---------------------------------------------------------------------------
// Process-level probes

double ProcField(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const std::string k = key;
  while (std::getline(in, line)) {
    if (line.compare(0, k.size(), k) == 0) {
      return std::strtod(line.c_str() + k.size(), nullptr);
    }
  }
  return 0;
}

/// The machine's CPU time stolen by the hypervisor, and all CPU time, in
/// ticks (/proc/stat). On a shared host the stolen share explains runs
/// that read slower than their neighbours.
struct HostTicks {
  double steal = 0, total = 0;
};

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks t;
  double v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealPct(const HostTicks& a, const HostTicks& b) {
  double total = b.total - a.total;
  return total > 0 ? 100 * (b.steal - a.steal) / total : 0;
}

double DirBytes(const std::string& dir) {
  double total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += static_cast<double>(e.file_size());
  }
  return total;
}

/// Polls queue depth, replica lag and retired MVCC versions while a traced
/// window runs.
class Monitor {
 public:
  explicit Monitor(Fleet* f) : f_(f), thread_([this] { Loop(); }) {}
  ~Monitor() { Stop(); }
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  double queued = 0, lag = 0, retired = 0;

 private:
  void Loop() {
    while (!stop_.load()) {
      Json srv = f_->api->ServerStatsJson();
      queued = std::max(queued, srv["queue_depth_interactive"].AsDouble() +
                                    srv["queue_depth_batch"].AsDouble());
      double r = 0;
      Json st = f_->shards->StatsJson();
      for (const Json& s : st["shards"].AsArray()) {
        r += s["mvcc"]["retired_versions"].AsDouble();
      }
      retired = std::max(retired, r);
      for (int i = 0; i < f_->shards->shard_count(); ++i) {
        lag = std::max(lag, static_cast<double>(f_->shards->replica_lag_records(i)));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  Fleet* f_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: starts after the members it uses
};

struct Metric {
  std::string name, unit;
  double value;
};

void Emit(std::vector<Metric>* out, const std::string& name,
          const std::string& unit, double v) {
  out->push_back(Metric{name, unit, v});
}

int Run::Execute() {
  Json header = Json::MakeObject();
  if (!args_.header_json.empty()) {
    auto h = Json::Parse(args_.header_json);
    if (!h.ok() || !h->is_object()) Die("--header is not a JSON object");
    header = std::move(h).value();
  }
  header["workload"] = cfg_.name;
  header["seed"] = static_cast<int64_t>(args_.seed);
  header["seconds"] = args_.seconds;
  header["trace"] = args_.trace;
  header["catalog_images"] = cfg_.catalog;
  header["shards"] = cfg_.shards;
  header["replication_factor"] = cfg_.replication;
  header["flush_policy"] =
      "sync_on_commit=true, replication sync; fsync calls counted, not sent "
      "to the device";
  header["readers"] = cfg_.readers;
  header["writer"] = cfg_.acquisition ? "closed loop, fixed count"
                     : cfg_.writer_rate > 0 ? "open loop"
                                            : "none";
  header["writer_rate_per_s"] = cfg_.writer_rate;
  header["hardware_concurrency"] =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  header["build_type"] = PERFBENCH_BUILD_TYPE;
  std::printf("header %s\n", header.Dump().c_str());

  // Setup, several times; the last fleet serves the window.
  model_ = TrainModel();
  const HostTicks ticks0 = ReadHostTicks();
  for (int r = 0; r < kSetupReps; ++r) {
    dir_ = args_.workdir + "/fleet";
    if (r > 0) CloseFleet(&fleet_);
    double s = 0;
    Setup(dir_, &s);
    setup_s_.push_back(s);
  }

  // Timed windows: untraced, then (trace mode) the traced half.
  const double window_s = args_.trace ? args_.seconds / 2 : args_.seconds;
  int64_t n_writes = 0;
  if (cfg_.acquisition) {
    n_writes = static_cast<int64_t>(kAcqWritesPerSecond * window_s + 0.5);
  } else if (cfg_.writer_rate > 0) {
    n_writes = static_cast<int64_t>(cfg_.writer_rate * window_s);
  }
  int64_t next_image = cfg_.catalog;
  std::vector<ThreadResult> plain, traced;
  double plain_s = 0, traced_s = 0;
  const HostTicks ticks1 = ReadHostTicks();
  Window(false, next_image, n_writes, window_s, &plain, &plain_s);
  const HostTicks ticks2 = ReadHostTicks();
  next_image += n_writes;  // images consumed never exceed writes
  LayerSamples layers;
  double queued = 0, lag = 0, retired = 0, wchar_ratio = 0, syncs_per_write = 0;
  Json srv0, srv1, stats1;
  if (args_.trace) {
    srv0 = fleet_.api->ServerStatsJson();
    double wchar0 = ProcField("/proc/self/io", "wchar:");
    const int64_t syncs0 = g_syncs.load();
    {
      Monitor mon(&fleet_);
      Window(true, next_image, n_writes, window_s, &traced, &traced_s);
      mon.Stop();
      queued = mon.queued;
      lag = mon.lag;
      retired = mon.retired;
    }
    double wchar = ProcField("/proc/self/io", "wchar:") - wchar0;
    const double syncs = static_cast<double>(g_syncs.load() - syncs0);
    double ub = 0, writes = 0;
    for (const ThreadResult& tr : traced) {
      layers.Merge(tr.layers);
      ub += tr.user_bytes;
      writes += static_cast<double>(tr.acked_writes);
    }
    wchar_ratio = ub > 0 ? wchar / ub : 0;
    syncs_per_write = writes > 0 ? syncs / writes : 0;
    srv1 = fleet_.api->ServerStatsJson();
    stats1 = fleet_.shards->StatsJson();
  }

  // Correctness: every read answer, then every acked write.
  auto check0 = Clock::now();
  CheckReads(plain);
  CheckReads(traced);
  CheckAckedWrites(&fleet_, "after the window");
  for (const auto* set : {&plain, &traced}) {
    for (const ThreadResult& tr : *set) user_bytes_ += tr.user_bytes;
  }
  double stored = DirBytes(dir_);

  // Close and reopen the durable fleet; time the reopen.
  std::vector<double> recovery;
  for (int r = 0; r < kReopenReps; ++r) {
    CloseFleet(&fleet_);
    if (r > 0) std::this_thread::sleep_for(kReopenGap);
    auto t0 = Clock::now();
    auto reopened = ShardManager::Create(FleetOptions(cfg_, dir_));
    recovery.push_back(MsSince(t0) / 1e3);
    if (!reopened.ok()) Die("reopen: " + reopened.status().ToString());
    fleet_.shards = std::move(reopened).value();
    AttachApi(&fleet_);
  }
  CheckAckedWrites(&fleet_, "after the reopen");
  double check_s = MsSince(check0) / 1e3;
  CloseFleet(&fleet_);
  fs::remove_all(dir_);

  // Aggregate.
  auto gather = [](const std::vector<ThreadResult>& set, auto field) {
    std::vector<double> out;
    for (const ThreadResult& tr : set) {
      const std::vector<double>& v = tr.*field;
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  };
  int64_t attempted = 0, failed = 0, acked = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const ThreadResult& tr : *set) {
      attempted += tr.attempted;
      failed += tr.failed;
    }
  }
  for (const ThreadResult& tr : plain) acked += tr.acked_writes;
  auto latencies = [](const std::vector<ThreadResult>& set) {
    std::vector<double> out;
    for (const ThreadResult& tr : set) {
      out.insert(out.end(), tr.read_ms.items().begin(), tr.read_ms.items().end());
    }
    return out;
  };
  int64_t reads = 0;
  for (const ThreadResult& tr : plain) reads += tr.reads;
  std::vector<double> read_ms = latencies(plain);
  std::vector<double> ingest_ms = gather(plain, &ThreadResult::ingest_ms);
  std::vector<double> annotate_ms = gather(plain, &ThreadResult::annotate_ms);
  double write_per_s = acked / plain_s;
  const bool window_writes = n_writes > 0;
  if (!window_writes) {
    // A read-only window: write-path numbers are those of the setup load.
    ingest_ms = setup_ingest_ms_;
    annotate_ms = setup_annotate_ms_;
    write_per_s = static_cast<double>(setup_writes_) / setup_load_s_;
  }
  // The result carries the end-to-end metrics BENCHMARK.json bounds. The
  // rest are printed beside them but left out of the result: on a shared
  // host their run-to-run spread is wider than any bound a comparison could
  // use (README.md, "End-to-end metrics").
  std::vector<Metric> e2e, ungated;
  Emit(&e2e, "setup_s", "s", Median(setup_s_));
  Emit(&ungated, "read_qps", "1/s", static_cast<double>(reads) / plain_s);
  Emit(&ungated, "read_p50_ms", "ms", Percentile(read_ms, 50));
  Emit(&ungated, "read_p99_ms", "ms", Percentile(read_ms, 99));
  Emit(&ungated, "write_per_s", "1/s", write_per_s);
  Emit(&ungated, "ingest_p50_ms", "ms", Percentile(ingest_ms, 50));
  Emit(&ungated, "ingest_p99_ms", "ms", Percentile(ingest_ms, 99));
  Emit(&ungated, "annotate_p50_ms", "ms", Percentile(annotate_ms, 50));
  Emit(&ungated, "recovery_s", "s", Median(recovery));
  Emit(&ungated, "error_rate", "ratio",
       attempted ? static_cast<double>(failed) / attempted : 0.0);
  Emit(&e2e, "stored_bytes_per_user_byte", "ratio", stored / user_bytes_);
  Emit(&e2e, "peak_rss_mb", "MB", ProcField("/proc/self/status", "VmHWM:") / 1024);

  std::vector<double> late_ms = gather(plain, &ThreadResult::late_ms);
  std::printf("samples read=%zu of %lld ingest=%zu annotate=%zu%s window_s=%.3f "
              "error_rate=%.6f (%lld of %lld) gen_late_p99_ms=%.3f\n",
              read_ms.size(), static_cast<long long>(reads), ingest_ms.size(),
              annotate_ms.size(),
              window_writes ? "" : " (write samples from the setup load)",
              plain_s, attempted ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<long long>(failed), static_cast<long long>(attempted),
              Percentile(late_ms, 99));
  // The read mix as run: each shape's share of the reads and of read time.
  std::array<std::pair<int64_t, double>, kReadKinds> kinds{};
  double kinds_ms = 0;
  for (const ThreadResult& tr : plain) {
    for (size_t k = 0; k < kReadKinds; ++k) {
      kinds[k].first += tr.by_kind[k].first;
      kinds[k].second += tr.by_kind[k].second;
      kinds_ms += tr.by_kind[k].second;
    }
  }
  std::printf("mix (share of reads / of read time / mean ms):");
  for (size_t k = 0; k < kReadKinds; ++k) {
    const auto& v = kinds[k];
    if (v.first == 0) continue;
    std::printf(" %s=%.3f/%.3f/%.3f", ReadKindName(static_cast<ReadKind>(k)),
                static_cast<double>(v.first) / static_cast<double>(reads),
                v.second / kinds_ms, v.second / static_cast<double>(v.first));
  }
  std::printf("\n");
  std::vector<int64_t> per_second;
  for (const ThreadResult& tr : plain) {
    if (per_second.size() < tr.reads_by_second.size()) {
      per_second.resize(tr.reads_by_second.size());
    }
    for (size_t i = 0; i < tr.reads_by_second.size(); ++i) {
      per_second[i] += tr.reads_by_second[i];
    }
  }
  std::printf("reads_by_second=[");
  for (size_t i = 0; i < per_second.size(); ++i) {
    std::printf("%s%lld", i ? "," : "", static_cast<long long>(per_second[i]));
  }
  std::printf("]\n");
  std::printf("phases setup_reps_s=[");
  for (size_t i = 0; i < setup_s_.size(); ++i) {
    std::printf("%s%.3f", i ? "," : "", setup_s_[i]);
  }
  std::printf("] checks_and_reopen_s=%.3f host_steal_pct setup=%.1f window=%.1f\n",
              check_s, StealPct(ticks0, ticks1), StealPct(ticks1, ticks2));
  std::printf("bbox_hybrids_checked=%lld off_fov_contract=%lld (bbox verified "
              "on the camera point when another filter seeds the plan)\n",
              static_cast<long long>(plan_dependent_checked_),
              static_cast<long long>(off_contract_));
  const double recall = topk_checked_ ? recall_sum_ / topk_checked_ : 1.0;
  const double short_share =
      topk_unboxed_ ? static_cast<double>(short_topk_) / topk_unboxed_ : 0.0;
  std::printf("visual_topk_checked=%lld mean_recall=%.4f short_of_k=%lld of "
              "%lld without a bbox (LSH found fewer than k)\n",
              static_cast<long long>(topk_checked_), recall,
              static_cast<long long>(short_topk_),
              static_cast<long long>(topk_unboxed_));
  if (short_share > kMaxShortTopK) {
    errors_.push_back("visual top-k: " + std::to_string(short_topk_) + " of " +
                      std::to_string(topk_unboxed_) +
                      " answers without a bbox returned fewer than k ids");
  }
  if (recall < kMinTopKRecall) {
    errors_.push_back("visual top-k: mean recall " + std::to_string(recall) +
                      " against the exact top k is below " +
                      std::to_string(kMinTopKRecall));
  }

  std::vector<Metric> per_layer;
  if (args_.trace) {
    auto med = [](const std::vector<double>& v) { return Median(v); };
    const LayerSamples& L = layers;
    Emit(&per_layer, "json.parse_us", "us", med(L.parse_us));
    Emit(&per_layer, "json.dump_us", "us", med(L.dump_us));
    Emit(&per_layer, "json.response_bytes", "bytes", med(L.response_bytes));
    for (const char* ep : {"search_datasets", "explain_query",
                           "download_datasets", "add_data", "use_model"}) {
      auto it = L.api_ms.find(ep);
      Emit(&per_layer, std::string("api.") + ep + ".p50_ms", "ms",
           it == L.api_ms.end() ? 0 : med(it->second));
    }
    Emit(&per_layer, "api.self_us", "us", med(L.api_self_us));
    auto delta = [&](const char* k) {
      return srv1[k].AsDouble() - srv0[k].AsDouble();
    };
    Emit(&per_layer, "admission.queued", "count", queued);
    Emit(&per_layer, "admission.shed", "count",
         delta("shed_queue_full") + delta("shed_stale") + delta("rate_limited"));
    Emit(&per_layer, "admission.degraded", "count", delta("admitted_degraded"));
    Emit(&per_layer, "scatter_gather.query_ms", "ms", med(L.sg_query_ms));
    Emit(&per_layer, "scatter_gather.slowest_probe_ms", "ms", med(L.sg_slowest_ms));
    Emit(&per_layer, "scatter_gather.self_ms", "ms", med(L.sg_self_ms));
    Emit(&per_layer, "scatter_gather.shards_probed", "count",
         L.sg_queries > 0 ? L.sg_probed / L.sg_queries : 0);
    Emit(&per_layer, "scatter_gather.probe_yield", "ratio",
         L.sg_probed > 0 ? L.sg_yielding / L.sg_probed : 0);
    Emit(&per_layer, "scatter_gather.attempts_per_probe", "ratio",
         L.sg_probed > 0 ? L.sg_attempts / L.sg_probed : 0);
    Emit(&per_layer, "planner.explain_ms", "ms", med(L.explain_ms));
    Emit(&per_layer, "planner.qerror_p50", "ratio", Percentile(L.qerrors, 50));
    Emit(&per_layer, "planner.qerror_p90", "ratio", Percentile(L.qerrors, 90));
    Emit(&per_layer, "executor.rows_per_hit", "ratio",
         L.hits > 0 ? L.operator_rows / L.hits : 0);
    for (const char* fam : {"spatial", "textual", "temporal", "categorical", "visual"}) {
      auto it = L.index_ms.find(fam);
      Emit(&per_layer, std::string("index.") + fam + ".ms", "ms",
           it == L.index_ms.end() ? 0 : med(it->second));
    }
    Emit(&per_layer, "commit.ingest_ms", "ms", med(L.ingest_ms));
    Emit(&per_layer, "commit.feature_ms", "ms", med(L.feature_ms));
    Emit(&per_layer, "commit.annotate_ms", "ms", med(L.annotate_ms));
    double copied = 0;
    for (double b : L.bytes_copied) copied += b;
    Emit(&per_layer, "mvcc.bytes_copied_per_commit", "bytes",
         L.bytes_copied.empty() ? 0 : copied / static_cast<double>(L.bytes_copied.size()));
    Emit(&per_layer, "mvcc.retired_versions_max", "count", retired);
    Emit(&per_layer, "storage.wchar_per_user_byte", "ratio", wchar_ratio);
    Emit(&per_layer, "storage.syncs_per_write", "ratio", syncs_per_write);
    Emit(&per_layer, "replication.lag_records_max", "count", lag);
    Emit(&per_layer, "ml.predict_us", "us", med(L.predict_us));
    std::vector<double> p50s, p99s;
    for (const Json& s : stats1["shards"].AsArray()) {
      p50s.push_back(s["probe_p50_ms"].AsDouble());
      p99s.push_back(s["probe_p99_ms"].AsDouble());
    }
    Emit(&per_layer, "shard.probe_p50_ms", "ms", Median(p50s));
    Emit(&per_layer, "shard.probe_p99_ms", "ms",
         p99s.empty() ? 0 : *std::max_element(p99s.begin(), p99s.end()));
    Emit(&per_layer, "gen.late_p99_ms", "ms",
         Percentile(gather(traced, &ThreadResult::late_ms), 99));
    double p50_plain = Percentile(read_ms, 50);
    double p50_traced = Percentile(latencies(traced), 50);
    Emit(&per_layer, "trace.overhead_pct", "%",
         p50_plain > 0 ? 100 * (p50_traced - p50_plain) / p50_plain : 0);

    if (!args_.spans_path.empty()) {
      std::FILE* f = std::fopen(args_.spans_path.c_str(), "w");
      bool ok = f != nullptr &&
                std::fprintf(f, "{\"header\":%s}\n", header.Dump().c_str()) > 0;
      if (f) ok = std::fclose(f) == 0 && ok;
      for (const ThreadResult& tr : traced) {
        ok = ok && WriteSpans(args_.spans_path, cfg_.name, tr.log->spans());
      }
      if (!ok) Die("cannot write spans to " + args_.spans_path);
      std::printf("spans %s\n", args_.spans_path.c_str());
    }
  }

  for (const Metric& m : e2e) {
    std::printf("e2e %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : ungated) {
    std::printf("ungated %-24s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : per_layer) {
    std::printf("layer %-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!errors_.empty()) {
    for (const std::string& e : errors_) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
    }
    return 1;
  }
  Json result = Json::MakeObject();
  result["correct"] = true;
  result["attempted"] = attempted;
  result["failed"] = failed;
  Json metrics = Json::MakeObject();
  for (const Metric& m : args_.trace ? per_layer : e2e) {
    Json v = Json::MakeObject();
    v["value"] = m.value;
    v["unit"] = m.unit;
    metrics[m.name] = std::move(v);
  }
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int RunWorkload(const RunArgs& args) {
  std::optional<Config> cfg = ConfigFor(args.workload);
  if (!cfg) Die("unknown workload: " + args.workload);
  if (args.seconds <= 0) Die("--seconds must be positive");
  Run run(args, *cfg);
  return run.Execute();
}

}  // namespace perfbench
