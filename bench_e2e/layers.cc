// Benchmark-side helpers and the per-layer probes (see bench.h).
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>

#include "bench.h"
#include "common/metrics.h"
#include "core/expr.h"
#include "core/filter_planner.h"
#include "core/query_node.h"
#include "core/segment.h"
#include "index/index_factory.h"
#include "simd/distances.h"

namespace bench {

using namespace manu;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MillisSince(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = std::min(
      v.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

HostCpu HostCpu::Read() {
  HostCpu out;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  if (cpu != "cpu") return out;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(f >> v)) return HostCpu{};
    out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

double HostCpu::StealShare(const HostCpu& before, const HostCpu& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

Inputs MakeInputs(uint64_t seed, int64_t rows, int32_t dim, int32_t clusters,
                  int64_t num_queries) {
  Inputs in;
  in.dim = dim;
  in.rows = rows;
  in.num_queries = num_queries;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  std::normal_distribution<float> noise(0.0f, 0.35f);
  std::vector<float> centers(static_cast<size_t>(clusters) * dim);
  for (float& c : centers) c = unit(rng);
  auto draw = [&](std::vector<float>* out, int64_t n) {
    out->resize(static_cast<size_t>(n) * dim);
    for (int64_t i = 0; i < n; ++i) {
      const float* c = centers.data() + (rng() % clusters) * dim;
      for (int32_t j = 0; j < dim; ++j) (*out)[i * dim + j] = c[j] + noise(rng);
    }
  };
  draw(&in.vecs, rows);
  draw(&in.queries, num_queries);
  in.price.resize(rows);
  in.label.resize(rows);
  for (int64_t i = 0; i < rows; ++i) {
    in.price[i] = static_cast<int64_t>(rng() % Inputs::kPriceRange);
    char buf[8];
    std::snprintf(buf, sizeof(buf), "l%d",
                  static_cast<int>(rng() % Inputs::kNumLabels));
    in.label[i] = buf;
  }
  return in;
}

std::vector<Filter> MakeFilters(uint64_t seed, int64_t count) {
  // Price-window widths (out of kPriceRange) for 0.5%, 50% (under a 10%
  // label, so 5% together), 30% and 80%.
  static constexpr int64_t kWidth[4] = {50, 5000, 3000, 8000};
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<Filter> out;
  for (int64_t i = 0; i < count; ++i) {
    Filter f;
    const int64_t width = kWidth[i % 4];
    f.lo = static_cast<int64_t>(rng() % (Inputs::kPriceRange - width + 1));
    f.hi = f.lo + width;
    if (i % 4 == 1) {
      f.label = "l" + std::to_string(rng() % Inputs::kNumLabels);
      f.text = "label == '" + f.label + "' && ";
    }
    f.text += "price >= " + std::to_string(f.lo) +
              " && price < " + std::to_string(f.hi);
    out.push_back(std::move(f));
  }
  return out;
}

EntityBatch MakeBatch(const Inputs& in, const CollectionSchema& schema,
                      int64_t begin, int64_t end) {
  EntityBatch batch;
  for (int64_t i = begin; i < end; ++i) batch.primary_keys.push_back(i);
  batch.columns.push_back(FieldColumn::MakeFloatVector(
      schema.FieldByName("vec")->id, in.dim,
      std::vector<float>(in.vecs.begin() + begin * in.dim,
                         in.vecs.begin() + end * in.dim)));
  batch.columns.push_back(FieldColumn::MakeInt64(
      schema.FieldByName("price")->id,
      std::vector<int64_t>(in.price.begin() + begin, in.price.begin() + end)));
  batch.columns.push_back(FieldColumn::MakeString(
      schema.FieldByName("label")->id,
      std::vector<std::string>(in.label.begin() + begin,
                               in.label.begin() + end)));
  return batch;
}

double Recall(const std::vector<int64_t>& result,
              const std::vector<int64_t>& truth) {
  if (truth.empty()) return 1;
  int64_t hit = 0;
  for (int64_t pk : result) {
    if (std::find(truth.begin(), truth.end(), pk) != truth.end()) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

// --- ProbeStore -------------------------------------------------------------

Status ProbeStore::Put(const std::string& path, const std::string& data) {
  const auto t0 = Clock::now();
  Status st = inner_->Put(path, data);
  put_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count();
  ++put_count;
  put_bytes += static_cast<int64_t>(data.size());
  return st;
}

Result<std::string> ProbeStore::Get(const std::string& path) {
  auto r = inner_->Get(path);
  ++get_count;
  if (r.ok()) get_bytes += static_cast<int64_t>(r.value().size());
  return r;
}

Result<std::string> ProbeStore::GetRange(const std::string& path,
                                         uint64_t offset, uint64_t len) {
  auto r = inner_->GetRange(path, offset, len);
  ++get_count;
  if (r.ok()) get_bytes += static_cast<int64_t>(r.value().size());
  return r;
}

bool ProbeStore::Exists(const std::string& path) {
  return inner_->Exists(path);
}

Status ProbeStore::Delete(const std::string& path) {
  return inner_->Delete(path);
}

std::vector<std::string> ProbeStore::List(const std::string& prefix) {
  return inner_->List(prefix);
}

Result<uint64_t> ProbeStore::Size(const std::string& path) {
  return inner_->Size(path);
}

uint64_t ProbeStore::LiveBytes() {
  uint64_t total = 0;
  for (const std::string& path : inner_->List("")) {
    auto size = inner_->Size(path);
    if (size.ok()) total += size.value();
  }
  return total;
}

// --- TraceFold --------------------------------------------------------------

namespace {

/// Microseconds of [start, end) covered by the union of `children`.
int64_t CoveredUs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = start;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

void TraceFold::Add(const std::vector<SpanRecord>& spans) {
  const SpanRecord* root = nullptr;
  std::map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent_id == 0) root = &s;
    children[s.parent_id].push_back(&s);
  }
  if (root == nullptr) return;

  if (root->name == "proxy.search") {
    int64_t scans = 0;
    int64_t slowest_node = 0;
    for (const SpanRecord& s : spans) {
      if (s.name == "segment.scan") {
        scan_us_.Add(static_cast<double>(s.duration_us));
        ++scans;
      } else if (s.name == "query_node.wait_consistency") {
        wait_us_.Add(static_cast<double>(s.duration_us));
      } else if (s.name == "proxy.merge") {
        merge_us_.Add(static_cast<double>(s.duration_us));
      } else if (s.name == "query_node.search") {
        slowest_node = std::max(slowest_node, s.duration_us);
        std::vector<std::pair<int64_t, int64_t>> kids;
        for (const SpanRecord* c : children[s.span_id]) {
          kids.emplace_back(c->start_us, c->start_us + c->duration_us);
        }
        node_self_us_.Add(static_cast<double>(
            s.duration_us -
            CoveredUs(s.start_us, s.start_us + s.duration_us, kids)));
      }
    }
    scans_per_search_.Add(static_cast<double>(scans));
    overhead_us_.Add(static_cast<double>(root->duration_us - slowest_node));
  } else if (root->name == "proxy.insert") {
    int64_t publishes = 0;
    for (const SpanRecord& s : spans) {
      if (s.name == "logger.append") {
        append_us_.Add(static_cast<double>(s.duration_us));
      } else if (s.name == "wal.publish") {
        publish_us_.Add(static_cast<double>(s.duration_us));
        ++publishes;
      }
    }
    publishes_per_batch_.Add(static_cast<double>(publishes));
  } else if (root->name == "data_node.seal") {
    seal_ms_.Add(static_cast<double>(root->duration_us) / 1e3);
  } else if (root->name == "index_node.build") {
    build_ms_.Add(static_cast<double>(root->duration_us) / 1e3);
  }
}

void TraceFold::Drain() {
  TraceCollector& collector = Tracer::Global().collector();
  auto traces = collector.Traces();
  collector.Clear();
  for (const auto& t : traces) Add(t->Snapshot());
}

void TraceFold::AppendMetrics(Metrics* out) const {
  out->push_back({"segment.scan_us", scan_us_.Get(), "us"});
  out->push_back({"segment.scans_per_search", scans_per_search_.Get(),
                  "count"});
  out->push_back({"query_node.wait_consistency_us", wait_us_.Get(), "us"});
  out->push_back({"query_node.self_us", node_self_us_.Get(), "us"});
  out->push_back({"proxy.merge_us", merge_us_.Get(), "us"});
  out->push_back({"proxy.overhead_us", overhead_us_.Get(), "us"});
  out->push_back({"logger.append_us", append_us_.Get(), "us"});
  out->push_back({"wal.publish_us", publish_us_.Get(), "us"});
  out->push_back({"wal.publishes", publishes_per_batch_.Get(), "count"});
  out->push_back({"data_node.seal_ms", seal_ms_.Get(), "ms"});
  out->push_back({"index_node.build_ms", build_ms_.Get(), "ms"});
}

// --- ProbeLayers ------------------------------------------------------------

namespace {

/// Runs `fn` at least `min_reps` times and for at least `min_s` seconds;
/// returns the mean seconds per call.
template <typename Fn>
double TimePerCall(int64_t min_reps, double min_s, const Fn& fn) {
  const auto t0 = Clock::now();
  int64_t reps = 0;
  while (reps < min_reps || SecondsSince(t0) < min_s) {
    fn(reps);
    ++reps;
  }
  return SecondsSince(t0) / static_cast<double>(reps);
}

SearchParams ParamsFor(const SearchRequest& knobs) {
  SearchParams params;
  params.k = knobs.k;
  params.nprobe = knobs.nprobe;
  params.ef_search = knobs.ef_search;
  return params;
}

}  // namespace

Status ProbeLayers(const LayerProbe& p, Metrics* out) {
  const Inputs& in = *p.in;
  const CollectionSchema& schema = p.meta.schema;
  const FieldId vec_field = schema.FieldByName("vec")->id;
  const ManuConfig& config = p.db->config();
  const int64_t n = std::min(p.segment_rows, in.rows);
  const int64_t nq = std::min(p.probe_queries, in.num_queries);
  const SearchParams params = ParamsFor(p.knobs);

  // Counters the direct node searches below would add to.
  for (const char* name :
       {"legacy", "prefilter", "traversal", "brute_matches", "postscan"}) {
    out->push_back({std::string("filter.strategy.") + name,
                    static_cast<double>(MetricsRegistry::Global().CounterValue(
                        "filter.strategy", {{"strategy", name}})),
                    "count"});
  }

  // simd: the batch L2 kernel over one segment's rows.
  std::vector<float> dist(static_cast<size_t>(n));
  const double l2_s = TimePerCall(20, 0.2, [&](int64_t rep) {
    simd::L2SqrBatch(in.Query(rep % nq), in.vecs.data(),
                     static_cast<size_t>(n), static_cast<size_t>(in.dim),
                     dist.data());
  });
  out->push_back({"simd.l2_batch_ns_per_row",
                  l2_s * 1e9 / static_cast<double>(n), "ns"});

  // index: standalone builds and searches over one segment's rows.
  std::unique_ptr<VectorIndex> served;
  for (const IndexParams* ip : {&p.ivf, &p.hnsw}) {
    const std::string family = ip->type == IndexType::kHnsw ? "hnsw" : "ivf";
    const auto t0 = Clock::now();
    MANU_ASSIGN_OR_RETURN(std::unique_ptr<VectorIndex> index,
                          BuildVectorIndex(*ip, in.vecs.data(), n));
    out->push_back({"index." + family + "_build_s", SecondsSince(t0), "s"});
    Status st;
    const double search_s = TimePerCall(nq, 0, [&](int64_t rep) {
      auto r = index->Search(in.Query(rep % nq), params);
      if (!r.ok()) st = r.status();
    });
    MANU_RETURN_NOT_OK(st);
    out->push_back({"index." + family + "_search_us", search_s * 1e6, "us"});
    if (ip->type == p.served) served = std::move(index);
  }

  // expr: parsing the workload's filter texts. Workloads without filters
  // parse one round of the same four filter shapes (the schema is shared).
  const std::vector<Filter> parse_mix =
      p.filters.empty() ? MakeFilters(1, 4) : p.filters;
  std::vector<std::unique_ptr<FilterExpr>> exprs;
  for (const Filter& f : p.filters) {
    MANU_ASSIGN_OR_RETURN(auto e, FilterExpr::Parse(f.text, schema));
    exprs.push_back(std::move(e));
  }
  Status parse_st;
  const double parse_s = TimePerCall(400, 0.05, [&](int64_t rep) {
    auto e = FilterExpr::Parse(parse_mix[rep % parse_mix.size()].text, schema);
    if (!e.ok()) parse_st = e.status();
  });
  MANU_RETURN_NOT_OK(parse_st);
  out->push_back({"expr.parse_us", parse_s * 1e6, "us"});

  // segment: a standalone sealed segment with the served index and the
  // workload's filters, planned with the deployment's filter settings.
  {
    SealedSegment seg(1, &schema);
    MANU_RETURN_NOT_OK(seg.SetRows(MakeBatch(in, schema, 0, n)));
    MANU_RETURN_NOT_OK(seg.BuildScalarIndexes());
    MANU_RETURN_NOT_OK(seg.SetIndex(vec_field, std::move(served)));
    Status st;
    const double seg_s = TimePerCall(nq, 0, [&](int64_t rep) {
      SegmentSearchRequest req;
      req.field = vec_field;
      const int64_t q = rep % nq;
      req.query = in.Query(q);
      req.params = params;
      req.filter = exprs.empty() ? nullptr : exprs[q].get();
      req.filter_params.enable = config.filter_planner_enable;
      req.filter_params.brute_threshold = config.filter_brute_threshold;
      req.filter_params.prefilter_threshold = config.filter_prefilter_threshold;
      req.filter_params.ef_inflation_cap = config.filter_ef_inflation_cap;
      auto r = seg.Search(req);
      if (!r.ok()) st = r.status();
    });
    MANU_RETURN_NOT_OK(st);
    out->push_back({"segment.sealed_search_us", seg_s * 1e6, "us"});
  }

  // query_coord: routing plans.
  QueryCoordinator* qc = p.db->query_coord();
  const double plan_s =
      TimePerCall(2000, 0.05, [&](int64_t) { (void)qc->PlanFor(p.meta.id); });
  out->push_back({"query_coord.plan_us", plan_s * 1e6, "us"});

  // query_node: every live node's share of a search, called directly with
  // no consistency wait.
  {
    const QueryCoordinator::Plan plan = qc->PlanFor(p.meta.id);
    Status st;
    int64_t calls = 0;
    const auto t0 = Clock::now();
    for (int64_t q = 0; q < nq; ++q) {
      for (const auto& route : plan.routes) {
        NodeSearchRequest req;
        req.collection = p.meta.id;
        req.targets.push_back({vec_field, in.Query(q), 1.0f});
        req.params = params;
        req.read_ts = kMaxTimestamp;
        req.staleness_ms = -1;
        req.sealed_filter = route.sealed_filter;
        req.filter = exprs.empty() ? nullptr : exprs[q].get();
        auto r = route.node->Search(req);
        if (!r.ok()) st = r.status();
        ++calls;
      }
    }
    MANU_RETURN_NOT_OK(st);
    out->push_back({"query_node.search_us",
                    calls > 0 ? SecondsSince(t0) * 1e6 /
                                    static_cast<double>(calls)
                              : 0,
                    "us"});

    double mem_sum = 0;
    double mem_max = 0;
    const auto nodes = qc->Nodes();
    for (const auto& node : nodes) {
      const double mb = static_cast<double>(node->MemoryBytes()) / 1e6;
      mem_sum += mb;
      mem_max = std::max(mem_max, mb);
    }
    out->push_back({"query_node.mem_mb_mean",
                    nodes.empty() ? 0 : mem_sum / static_cast<double>(nodes.size()),
                    "MB"});
    out->push_back({"query_node.mem_mb_max", mem_max, "MB"});
  }

  // query_node: loading every sealed segment into a standalone node (not
  // started, so it serves nothing) from the uncounted store.
  {
    CoreContext ctx;
    ctx.config = config;
    ctx.store = p.store->inner();
    ctx.mq = p.db->mq();
    ctx.tso = p.db->tso();
    auto schema_ptr = std::make_shared<const CollectionSchema>(schema);
    std::vector<double> load_ms;
    {
      QueryNode node(1 << 30, ctx);
      for (const SegmentMeta& seg : p.db->data_coord()->ListSegments(p.meta.id)) {
        if (seg.binlog_path.empty() || seg.index_paths.empty()) continue;
        const auto t0 = Clock::now();
        MANU_RETURN_NOT_OK(node.LoadSealedSegment(seg, schema_ptr));
        load_ms.push_back(MillisSince(t0));
      }
    }
    out->push_back({"query_node.load_ms", Mean(load_ms), "ms"});
  }

  // storage: object-store traffic through the probe.
  const int64_t puts = p.store->put_count.load();
  out->push_back({"storage.put_count", static_cast<double>(puts), "count"});
  out->push_back({"storage.put_bytes",
                  static_cast<double>(p.store->put_bytes.load()), "B"});
  out->push_back({"storage.get_count",
                  static_cast<double>(p.store->get_count.load()), "count"});
  out->push_back({"storage.get_bytes",
                  static_cast<double>(p.store->get_bytes.load()), "B"});
  out->push_back({"storage.put_us",
                  puts > 0 ? static_cast<double>(p.store->put_ns.load()) /
                                 1e3 / static_cast<double>(puts)
                           : 0,
                  "us"});
  return Status::OK();
}

}  // namespace bench
