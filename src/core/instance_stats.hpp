// Instance analytics: the summary a practitioner wants before choosing a
// dispatch policy -- duration spread (mu drives every bound in the paper),
// load/concurrency profile (how many servers the workload inherently
// needs), and size statistics per dimension; and the Lemma-1 height sweep
// that opt/ and trace/ share.
#pragma once

#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/rvec.hpp"
#include "core/types.hpp"

namespace dvbp {

/// Lemma 1(i): OPT keeps ceil(||s(R,t)||_inf) bins open at least, so the
/// integral of that height over time bounds its cost. lb_height, the
/// streaming bounds and analyze() share this sweep, so they agree bit for
/// bit. Feed it build_event_stream() order: advance() to each event's
/// time, then arrive() or depart() its item's size.
class HeightSweep {
 public:
  HeightSweep(std::size_t dim, Time start) : load_(dim), now_(start) {}

  /// Moves the clock to `t`, adding the interval since the previous event
  /// to the bound; returns its length (0 when `t` is not later).
  Time advance(Time t) {
    if (t <= now_) return 0.0;
    const Time dt = t - now_;
    bound_ += robust_ceil(load_.linf()) * dt;
    now_ = t;
    return dt;
  }
  void arrive(const RVec& size) {
    load_ += size;
    ++active_;
  }
  void depart(const RVec& size) {
    load_ -= size;
    load_.clamp_nonnegative();
    --active_;
  }

  /// The active items' summed demand and count, and the bound so far.
  const RVec& load() const noexcept { return load_; }
  std::size_t active() const noexcept { return active_; }
  double bound() const noexcept { return bound_; }

 private:
  RVec load_;
  Time now_;
  std::size_t active_ = 0;
  double bound_ = 0.0;
};

struct InstanceStats {
  std::size_t n = 0;
  std::size_t dim = 0;
  double span = 0.0;
  double mu = 0.0;              ///< max/min duration ratio
  double min_duration = 0.0;
  double max_duration = 0.0;
  double mean_duration = 0.0;
  std::size_t peak_concurrency = 0;    ///< max simultaneously-active items
  double mean_concurrency = 0.0;       ///< time-averaged over the span
  double peak_height = 0.0;            ///< max ||s(R,t)||_inf over time
  double mean_height = 0.0;            ///< time-averaged over the span
  std::vector<double> mean_size;       ///< per-dimension mean item size
  std::vector<double> max_size;        ///< per-dimension max item size
  double utilization_bound = 0.0;      ///< Lemma 1(ii)
  double height_bound = 0.0;           ///< Lemma 1(i)

  /// Multi-line human-readable report.
  std::string report() const;
};

/// Computes the full profile in one event sweep. Empty instances yield a
/// zeroed struct.
InstanceStats analyze(const Instance& inst);

}  // namespace dvbp
