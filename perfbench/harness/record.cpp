#include "record.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <string>

namespace perfbench {

namespace {

const Clock::time_point kStart = Clock::now();

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kStart)
      .count();
}

double peak_rss_mb_self() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Record::print_json() const {
  std::string out = "{\"workload\": \"" + escape(workload) + "\"";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"failed_checks\": [";
  for (std::size_t i = 0; i < failed_checks.size(); ++i)
    out += (i ? ", " : "") + std::string("[\"") +
           escape(failed_checks[i].first) + "\", \"" +
           escape(failed_checks[i].second) + "\"]";
  out += "], \"scalars\": {";
  bool first = true;
  for (const auto& [k, v] : scalars) {
    out += (first ? "\"" : ", \"") + k + "\": " + num(v);
    first = false;
  }
  out += "}, \"layers\": {";
  first = true;
  for (const auto& [k, v] : layers) {
    out += (first ? "\"" : ", \"") + k + "\": " + num(v);
    first = false;
  }
  out += "}, \"samples\": {";
  first = true;
  for (const auto& [k, vs] : samples) {
    out += (first ? "\"" : ", \"") + k + "\": [";
    for (std::size_t i = 0; i < vs.size(); ++i)
      out += (i ? "," : "") + num(vs[i]);
    out += "]";
    first = false;
  }
  // Spans as [name, start_ns, end_ns, parent, req] rows.
  out += "}, \"spans\": [";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += (i ? ", [\"" : "[\"") + escape(s.name) + "\", " +
           std::to_string(s.start_ns) + ", " + std::to_string(s.end_ns) +
           ", " + std::to_string(s.parent) + ", " + std::to_string(s.req) +
           "]";
  }
  out += "]}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
