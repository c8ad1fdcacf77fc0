// The perf-trajectory recorder every plain chrono harness shares: a best-of
// timer, the metric list, and the BENCH_*.json writer. Each snapshot names
// the host and build that produced it (a `provenance` block), so
// tools/bench_diff can refuse to compare numbers from different machines.
//
// Schema: {"schema": 1, "provenance": {...}, "benchmarks": [{"name",
// "value", "unit"}, ...]}.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

// Set by the build (CMakeLists.txt); the fallbacks keep the header usable
// from any other build.
#ifndef SPECPF_BUILD_TYPE
#define SPECPF_BUILD_TYPE "unknown"
#endif
#ifndef SPECPF_SOURCE_DIR
#define SPECPF_SOURCE_DIR "."
#endif

namespace specpf::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `body` at least `min_calls` times and until `min_seconds` of
/// timed work has accumulated; returns the best seconds per call.
template <typename Fn>
double best_time(const Fn& body, int min_calls = 3, double min_seconds = 0.5) {
  double best = 1e30;
  double total = 0.0;
  for (int calls = 0; calls < min_calls || total < min_seconds; ++calls) {
    const auto t0 = Clock::now();
    body();
    const double dt = seconds_since(t0);
    if (dt < best) best = dt;
    total += dt;
  }
  return best;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Which host and build produced a snapshot.
struct Provenance {
  std::string git_sha;    ///< HEAD of the source tree, "-dirty" if modified
  std::string build_type;
  unsigned hardware_concurrency = 0;
  std::string cpu_model;  ///< first "model name" line of /proc/cpuinfo
};

namespace detail {

/// First line a shell command prints, or "" when it fails.
inline std::string first_line_of(const std::string& command) {
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  char buf[256] = {};
  std::string line;
  if (std::fgets(buf, sizeof buf, pipe) != nullptr) line = buf;
  ::pclose(pipe);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace detail

inline Provenance host_provenance() {
  Provenance p;
  const std::string git = "git -C '" SPECPF_SOURCE_DIR "' ";
  p.git_sha = detail::first_line_of(git + "rev-parse HEAD 2>/dev/null");
  if (p.git_sha.empty()) {
    p.git_sha = "unknown";
  } else if (!detail::first_line_of(git + "status --porcelain "
                                          "--untracked-files=no 2>/dev/null")
                  .empty()) {
    p.git_sha += "-dirty";
  }
  p.build_type = SPECPF_BUILD_TYPE;
  p.hardware_concurrency = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) {
      p.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
    }
    break;
  }
  if (p.cpu_model.empty()) p.cpu_model = "unknown";
  return p;
}

/// Writes `metrics` with this host's provenance to `path` and, when
/// `echo`, prints them to stdout. Returns false (after saying why on
/// stderr) when the file cannot be written.
inline bool write_bench_json(const std::string& path,
                             const std::vector<Metric>& metrics,
                             bool echo = true) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const Provenance p = host_provenance();
  std::fprintf(out,
               "{\n  \"schema\": 1,\n  \"provenance\": {\"git_sha\": \"%s\", "
               "\"build_type\": \"%s\", \"hardware_concurrency\": %u, "
               "\"cpu_model\": \"%s\"},\n  \"benchmarks\": [\n",
               detail::json_escape(p.git_sha).c_str(),
               detail::json_escape(p.build_type).c_str(),
               p.hardware_concurrency,
               detail::json_escape(p.cpu_model).c_str());
  std::size_t width = 0;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"}%s\n",
                 m.name.c_str(), m.value, m.unit.c_str(),
                 i + 1 < metrics.size() ? "," : "");
    if (m.name.size() > width) width = m.name.size();
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s (%s, %s, %u threads, %s)\n", path.c_str(),
              p.git_sha.c_str(), p.build_type.c_str(), p.hardware_concurrency,
              p.cpu_model.c_str());
  if (!echo) return true;
  for (const Metric& m : metrics) {
    std::printf("  %-*s %14.4g %s\n", static_cast<int>(width), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  return true;
}

}  // namespace specpf::bench
