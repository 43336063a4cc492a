// perfbench_harness — runs one benchmark workload and prints its raw
// record (samples, counters, checks, spans) as one JSON line on stdout.
// run.py builds this binary and turns the record into metrics.
//
//   perfbench_harness <workload> [--seed N] [--seconds S] [--trace 0|1]
//                     [--serve-bin PATH]
//   perfbench_harness selftest
//
// Workloads: sta_grid, sta_tree, serve_tree, gates. Exit status is 0 when
// every correctness check passed, 1 when one failed, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness sta_grid|sta_tree|serve_tree|gates "
               "[--seed N] [--seconds S] [--trace 0|1] [--serve-bin PATH]\n"
               "       perfbench_harness selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  RunOptions o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--seed")
      o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds")
      o.seconds = std::atof(v);
    else if (a == "--trace")
      o.trace = std::strcmp(v, "0") != 0;
    else if (a == "--serve-bin")
      o.serve_bin = v;
    else
      return usage();
  }

  Record rec;
  rec.workload = o.workload;
  rec.tracer.enabled = o.trace;
  int rc = 0;
  if (o.workload == "sta_grid" || o.workload == "sta_tree")
    rc = run_sta(o, rec);
  else if (o.workload == "gates")
    rc = run_gates(o, rec);
  else if (o.workload == "serve_tree")
    rc = run_serve(o, rec);
  else if (o.workload == "selftest")
    rc = run_selftest(rec);
  else
    return usage();
  rec.print_json();
  return rc;
}
