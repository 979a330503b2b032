// Shared pieces of the benchmark driver: run options, the result record,
// sample statistics, the workload input (a trace file plus its op stream),
// and the in-memory span log of a traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/rvec.hpp"
#include "core/types.hpp"
#include "trace/reader.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of a sample; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// wire_open's fixed send rate (ops/s), read from BENCHMARK.json.
  double rate = 0.0;
  /// Scratch directory for trace files and journals (removed at exit).
  std::string tmp_dir;
  /// Where a traced run writes its spans.
  std::string span_dir;
  /// Repository root (holds data/sample_azure_1k.trc).
  std::string repo_root;
};

/// What one run reports: the verdict of its checks and its metrics.
struct Outcome {
  using MetricMap = std::map<std::string, std::pair<double, std::string>>;

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  MetricMap end_to_end;  ///< reported by an untraced run
  MetricMap per_layer;   ///< reported by a traced run

  void metric(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  /// Records a failed correctness check; the caller's ops then count failed.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      check_failures.push_back(what);
    }
  }
};

enum class OpKind : std::uint8_t { kArrive, kDepart, kQuery };

/// One operation of a workload's op stream. `item` indexes the trace rows.
struct Op {
  OpKind kind = OpKind::kArrive;
  std::uint32_t item = 0;
  dvbp::Time time = 0.0;
};

/// A workload's input: the trace file it was generated into, opened, and
/// the op stream derived from it (the trace's event order, plus any reads).
struct Workload {
  std::string name;
  /// Placement policy the workload's engine runs.
  std::string policy;
  std::unique_ptr<dvbp::trace::TraceReader> reader;
  /// The trace materialized, for the batch engine simulate().
  dvbp::Instance instance;
  std::vector<dvbp::RVec> sizes;          // by trace row
  std::vector<dvbp::TenantId> tenants;    // by trace row
  std::vector<Op> ops;
  std::uint32_t num_tenants = 1;
  double open_ms = 0.0;  ///< TraceReader construction (validation) time

  std::size_t dim() const { return reader->dim(); }
  std::size_t items() const { return reader->size(); }
};

/// Client-side span of a traced wire run. Spans of one request share its
/// request id; a flush span carries the id of the first request it wrote.
struct Span {
  enum Kind : std::uint8_t { kSend = 0, kFlush = 1, kResponse = 2, kPass = 3 };
  std::uint64_t id = 0;
  Kind kind = kSend;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory during the run and written out at the end.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1u << 20);
  }
  bool enabled() const noexcept { return enabled_; }
  void add(std::uint64_t id, Span::Kind kind, std::int64_t start_ns,
           std::int64_t end_ns) {
    if (enabled_) spans_.push_back({id, kind, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Writes one CSV line per span: id,kind,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Workload constructors (workloads.cpp). Each generates its trace from
/// `seed` into `dir`, opens it, and derives the op stream.
Workload make_replay_dense(std::uint64_t seed, const std::string& dir);
Workload make_wire_open(std::uint64_t seed, const std::string& dir,
                        const std::string& repo_root, double rate,
                        double seconds);
Workload make_wire_closed(std::uint64_t seed, const std::string& dir,
                          const std::string& repo_root);

/// Runs (workloads.cpp / wire.cpp): each fills `out` with the end-to-end
/// metrics and, when options.trace, the per-layer ones.
void run_replay_dense(const Options& options, Outcome& out);
void run_wire(const Options& options, Outcome& out);

}  // namespace perfbench
