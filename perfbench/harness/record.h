// In-memory result record of one harness run: scalar fields, sample
// lists, correctness checks, per-layer counters and trace spans. Every
// workload fills one Record and prints it as a single JSON object on
// stdout when the run ends; run.py turns it into the benchmark's metrics.
//
// Spans are kept in a vector and only serialized at the end, so a traced
// run costs two clock reads and one push_back per timed layer call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the harness started (the common time base of spans).
std::int64_t now_ns();

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        ///< index of the enclosing span, -1 = root
  std::int64_t req = -1;  ///< request id (serve_tree), -1 = none
};

/// Span recorder. Disabled tracers record nothing; open() then returns -1
/// and close(-1) is a no-op, so call sites need no branches.
class Tracer {
 public:
  bool enabled = false;

  int open(const std::string& name, std::int64_t req = -1) {
    if (!enabled) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(),
                      req});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes at scope exit.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, std::int64_t req = -1)
      : t_(t), id_(t.open(name, req)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

struct Record {
  std::string workload;
  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> layers;
  std::vector<std::pair<std::string, std::string>> failed_checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Tracer tracer;

  void check(bool ok, const std::string& name, const std::string& detail) {
    if (!ok) failed_checks.emplace_back(name, detail);
  }
  void sample(const std::string& key, double v) { samples[key].push_back(v); }

  /// Prints the record as one JSON object (one line) on stdout.
  void print_json() const;
};

/// Peak resident set size of this process [MB].
double peak_rss_mb_self();

}  // namespace perfbench
