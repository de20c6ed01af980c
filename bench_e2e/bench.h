// Shared pieces of the end-to-end benchmark: input generation, the
// independent oracles, the storage probe, timing helpers and the per-layer
// probes. Everything here is benchmark code; the program under test is only
// reached through its public headers.
#ifndef MANU_BENCH_E2E_BENCH_H_
#define MANU_BENCH_E2E_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "core/manu.h"
#include "storage/object_store.h"

namespace bench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0);
double MillisSince(Clock::time_point t0);
/// CPU time of the whole process (all threads), in seconds.
double ProcessCpuSeconds();
/// Quantile `q` in [0, 1] of `v` (nearest rank); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Host CPU counters from /proc/stat, for the steal share of a phase.
struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;
  static HostCpu Read();
  /// Share of host CPU time stolen between `before` and `after`.
  static double StealShare(const HostCpu& before, const HostCpu& after);
};

/// One named metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The attribute filters of the benchmark, kept as plain data so the oracle
/// can evaluate them on the generated columns without the program's
/// expression parser. Every filter reads
///   [label == '<label>' &&] price >= lo && price < hi
struct Filter {
  std::string label;  ///< Empty = no label term.
  int64_t lo = 0;
  int64_t hi = 0;
  std::string text;   ///< The same predicate in the program's filter syntax.

  bool Matches(int64_t price, const std::string& row_label) const {
    return price >= lo && price < hi &&
           (label.empty() || row_label == label);
  }
};

/// Generated rows and queries. Row i has primary key i. Vectors come from a
/// Gaussian mixture (uniform centres in [0,1]^dim, per-coordinate stddev
/// 0.35, so neighbouring clusters overlap and IVF recall stays below 1); price is
/// uniform in [0, kPriceRange), label uniform over kNumLabels values.
struct Inputs {
  static constexpr int64_t kPriceRange = 10000;
  static constexpr int kNumLabels = 10;

  int32_t dim = 0;
  int64_t rows = 0;
  std::vector<float> vecs;
  std::vector<int64_t> price;
  std::vector<std::string> label;
  int64_t num_queries = 0;
  std::vector<float> queries;

  const float* Row(int64_t i) const { return vecs.data() + i * dim; }
  const float* Query(int64_t q) const { return queries.data() + q * dim; }
};

Inputs MakeInputs(uint64_t seed, int64_t rows, int32_t dim, int32_t clusters,
                  int64_t num_queries);

/// Rows [begin, end) as an insert batch for the benchmark's schema
/// (`pk`, `vec`, `price`, `label`).
manu::EntityBatch MakeBatch(const Inputs& in,
                            const manu::CollectionSchema& schema,
                            int64_t begin, int64_t end);

/// `count` filters cycling through selectivities of about 0.5%, 5% (the
/// label-and-range conjunction), 30% and 80%, with seeded offsets.
std::vector<Filter> MakeFilters(uint64_t seed, int64_t count);

/// Exact top-k by a plain scalar loop over rows [0, limit) for which
/// `keep(row)` holds. Returns primary keys, nearest first. Deliberately
/// shares no code with the program's distance kernels or indexes.
template <typename Keep>
std::vector<int64_t> ExactTopK(const Inputs& in, const float* query,
                               int64_t limit, size_t k, const Keep& keep);

/// Exact truth for every query, computed on `threads` threads.
/// `keep(q, row)` says whether row is a candidate for query q.
template <typename Keep>
std::vector<std::vector<int64_t>> ExactTruth(const Inputs& in, int64_t limit,
                                             size_t k, const Keep& keep,
                                             int threads = 4);

/// |result ∩ truth| / |truth| (1 when the truth is empty).
double Recall(const std::vector<int64_t>& result,
              const std::vector<int64_t>& truth);

/// ObjectStore decorator that counts and times the traffic to an in-memory
/// store. Injected through ManuInstance(config, store).
class ProbeStore : public manu::ObjectStore {
 public:
  ProbeStore() : inner_(std::make_shared<manu::MemoryObjectStore>()) {}

  manu::Status Put(const std::string& path, const std::string& data) override;
  manu::Result<std::string> Get(const std::string& path) override;
  manu::Result<std::string> GetRange(const std::string& path, uint64_t offset,
                                     uint64_t len) override;
  bool Exists(const std::string& path) override;
  manu::Status Delete(const std::string& path) override;
  std::vector<std::string> List(const std::string& prefix) override;
  manu::Result<uint64_t> Size(const std::string& path) override;

  /// The wrapped store, for reads that must not be counted.
  manu::ObjectStore* inner() { return inner_.get(); }
  /// Bytes of every object currently stored.
  uint64_t LiveBytes();

  std::atomic<int64_t> put_count{0};
  std::atomic<int64_t> put_bytes{0};
  std::atomic<int64_t> put_ns{0};
  std::atomic<int64_t> get_count{0};
  std::atomic<int64_t> get_bytes{0};

 private:
  std::shared_ptr<manu::ObjectStore> inner_;
};

/// Folds retained traces into per-layer figures: span means, self times
/// (a span's duration minus the union of its children's intervals) and the
/// proxy's share of a search (root minus the slowest node span).
class TraceFold {
 public:
  void Add(const std::vector<manu::SpanRecord>& spans);
  /// Drains the tracer's collector into this fold.
  void Drain();
  void AppendMetrics(Metrics* out) const;

 private:
  struct Mean {
    double sum = 0;
    int64_t n = 0;
    void Add(double v) {
      sum += v;
      ++n;
    }
    double Get() const { return n > 0 ? sum / static_cast<double>(n) : 0; }
  };
  Mean scan_us_, scans_per_search_, wait_us_, node_self_us_, merge_us_,
      overhead_us_, append_us_, publish_us_, publishes_per_batch_, seal_ms_,
      build_ms_;
};

/// What the per-layer probes need from a finished workload.
struct LayerProbe {
  manu::ManuInstance* db = nullptr;
  manu::CollectionMeta meta;
  const Inputs* in = nullptr;
  ProbeStore* store = nullptr;
  /// Filters of the workload's searches; empty = unfiltered.
  std::vector<Filter> filters;
  manu::IndexParams ivf;
  manu::IndexParams hnsw;
  /// Which of the two the workload serves with.
  manu::IndexType served = manu::IndexType::kIvfFlat;
  int64_t segment_rows = 0;
  manu::SearchRequest knobs;  ///< k / nprobe / ef_search of the workload.
  int64_t probe_queries = 200;
};

/// Times each layer from outside, around calls into its public functions,
/// and appends the per-layer metrics that are not read from spans.
manu::Status ProbeLayers(const LayerProbe& p, Metrics* out);

// ---------------------------------------------------------------------------

template <typename Keep>
std::vector<int64_t> ExactTopK(const Inputs& in, const float* query,
                               int64_t limit, size_t k, const Keep& keep) {
  std::vector<std::pair<float, int64_t>> best;  // Max-heap on distance.
  best.reserve(k + 1);
  for (int64_t row = 0; row < limit; ++row) {
    if (!keep(row)) continue;
    const float* v = in.Row(row);
    float part[4] = {0, 0, 0, 0};  // dim is a multiple of 4.
    for (int32_t j = 0; j < in.dim; ++j) {
      const float diff = v[j] - query[j];
      part[j % 4] += diff * diff;
    }
    const float d = (part[0] + part[1]) + (part[2] + part[3]);
    if (best.size() < k) {
      best.emplace_back(d, row);
      std::push_heap(best.begin(), best.end());
    } else if (std::make_pair(d, row) < best.front()) {
      std::pop_heap(best.begin(), best.end());
      best.back() = {d, row};
      std::push_heap(best.begin(), best.end());
    }
  }
  std::sort_heap(best.begin(), best.end());
  std::vector<int64_t> pks;
  pks.reserve(best.size());
  for (const auto& [d, row] : best) pks.push_back(row);
  return pks;
}

template <typename Keep>
std::vector<std::vector<int64_t>> ExactTruth(const Inputs& in, int64_t limit,
                                             size_t k, const Keep& keep,
                                             int threads) {
  std::vector<std::vector<int64_t>> truth(in.num_queries);
  std::atomic<int64_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int64_t q = next++; q < in.num_queries; q = next++) {
        truth[q] = ExactTopK(in, in.Query(q), limit, k,
                             [&](int64_t row) { return keep(q, row); });
      }
    });
  }
  for (auto& w : workers) w.join();
  return truth;
}

}  // namespace bench

#endif  // MANU_BENCH_E2E_BENCH_H_
