#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  static const char* const kNames[] = {"send", "flush", "response", "pass"};
  out << "id,kind,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << s.id << ',' << kNames[s.kind] << ',' << s.start_ns << ','
        << s.end_ns << '\n';
  }
  if (!out) throw std::runtime_error("short write of spans to " + path);
}

}  // namespace perfbench
