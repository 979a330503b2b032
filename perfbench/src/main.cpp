// perfbench: the repository benchmark (README.md in this directory).
//
//   perfbench --workload=<replay_dense|wire_open|wire_closed> --seed=N
//             --seconds=S --trace=<0|1> [--rate=OPS] [--span-dir=DIR]
//             [--repo-root=DIR] [--commit=ID] [--source-sha256=HEX]
//
// Prints a context stamp, every metric with its unit, the verdict of the
// correctness checks, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics on
// an untraced run, the per-layer ones on a traced run. Scratch files go to
// a fresh directory under $TMPDIR, removed at exit. Exit code 0 after a
// completed run (even one whose checks failed: the result line says so),
// 1 on errors, 2 on bad usage, 3 on a build without NDEBUG.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw std::invalid_argument("bad argument " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      throw std::invalid_argument("flag --" + arg + " needs a value");
    }
  }
  return flags;
}

std::string isa() {
  std::string s;
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) s += "sse4.2 ";
  if (__builtin_cpu_supports("avx2")) s += "avx2 ";
  if (__builtin_cpu_supports("avx512f")) s += "avx512f ";
  if (__builtin_cpu_supports("avx512vl")) s += "avx512vl ";
  if (__builtin_cpu_supports("avx512bw")) s += "avx512bw ";
  if (__builtin_cpu_supports("avx512dq")) s += "avx512dq ";
  if (!s.empty()) s.pop_back();
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to report from a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif
  Options o;
  std::string commit;
  std::string source_sha;
  try {
    const auto flags = parse_flags(argc, argv);
    const auto get = [&](const std::string& key, const std::string& fallback) {
      const auto it = flags.find(key);
      return it == flags.end() ? fallback : it->second;
    };
    o.workload = get("workload", "");
    o.seed = std::stoull(get("seed", "1"));
    o.seconds = std::stod(get("seconds", "10"));
    o.trace = get("trace", "0") == "1";
    o.rate = std::stod(get("rate", "0"));
    o.span_dir = get("span-dir", ".bench_build/spans");
    o.repo_root = get("repo-root", ".");
    commit = get("commit", "unknown");
    source_sha = get("source-sha256", "unknown");
    if (o.workload != "replay_dense" && o.workload != "wire_open" &&
        o.workload != "wire_closed") {
      throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }
    if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    if (o.workload == "wire_open" && !(o.rate > 0.0)) {
      throw std::invalid_argument("wire_open needs --rate > 0");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }

  // Sleeps in the open-loop generator must not overshoot by the default
  // 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const char* tmp_root = std::getenv("TMPDIR");
  std::string tmpl = std::string(tmp_root != nullptr ? tmp_root : "/tmp") +
                     "/perfbench-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::cerr << "perfbench: cannot create a scratch directory under "
              << (tmp_root != nullptr ? tmp_root : "/tmp") << ": "
              << std::strerror(errno) << '\n';
    return 1;
  }
  o.tmp_dir = tmpl;

  std::cout << "{\"context\": {\"workload\": \"" << o.workload
            << "\", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
            << ", \"trace\": " << (o.trace ? 1 : 0)
            << ", \"commit\": \"" << json_escape(commit)
            << "\", \"source_sha256\": \"" << json_escape(source_sha)
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"ndebug\": true, \"nproc\": "
            << std::thread::hardware_concurrency() << ", \"isa\": \"" << isa()
            << "\", \"compiler\": \"" << json_escape(__VERSION__) << "\"}}"
            << std::endl;

  Outcome out;
  int status = 0;
  try {
    if (o.workload == "replay_dense") {
      perfbench::run_replay_dense(o, out);
    } else {
      perfbench::run_wire(o, out);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << ": " << e.what() << '\n';
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(o.tmp_dir, ignored);
  if (status != 0) return status;

  out.check(out.attempted > 0, "the run attempted at least one op");
  if (!out.correct) out.failed = out.attempted;
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  out.metric("max_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  out.metric("ok_share",
             out.attempted == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(out.failed) /
                             static_cast<double>(out.attempted),
             "share");

  const Outcome::MetricMap& reported = o.trace ? out.per_layer : out.end_to_end;
  for (const auto& [name, metric] : reported) {
    out.check(std::isfinite(metric.first), name + " is finite");
  }
  for (const auto& [name, metric] : out.end_to_end) {
    std::cout << "end-to-end " << name << " = " << metric.first << ' '
              << metric.second << '\n';
  }
  for (const auto& [name, metric] : out.per_layer) {
    std::cout << "per-layer " << name << " = " << metric.first << ' '
              << metric.second << '\n';
  }
  for (const std::string& why : out.check_failures) {
    std::cout << "check FAILED: " << why << '\n';
  }
  std::cout << "checks: " << (out.correct ? "all passed" : "FAILED") << '\n';

  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.correct ? out.failed : out.attempted);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : reported) {
    if (!first) line += ", ";
    first = false;
    const double v = std::isfinite(metric.first) ? metric.first : 0.0;
    line += "\"" + name + "\": {\"value\": " + json_number(v) +
            ", \"unit\": \"" + metric.second + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
