// The benchmark's workloads. Each one fills a Record; main.cpp dispatches
// on the workload name and prints the Record.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "qwm/device/model_set.h"
#include "qwm/device/process.h"
#include "qwm/device/tabular_model.h"
#include "qwm/sta/sta.h"
#include "record.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  ///< qwm_serve executable (serve_tree only)
};

/// Characterized device models: construction is the characterization.
struct Models {
  qwm::device::Process proc = qwm::device::Process::cmosp35();
  qwm::device::TabularDeviceModel nmos{qwm::device::MosType::nmos, proc};
  qwm::device::TabularDeviceModel pmos{qwm::device::MosType::pmos, proc};

  qwm::device::ModelSet set() const {
    return qwm::device::ModelSet{&nmos, &pmos, &proc};
  }
};

/// Edge outcome counts over every stage output of an analysed design:
/// each output has a rise and a fall edge.
struct EdgeCounts {
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;  ///< valid arrival
  std::uint64_t nominal = 0;   ///< valid and not degraded
};
EdgeCounts count_edges(const qwm::sta::StaEngine& engine);

/// True when both engines agree bitwise on every stage-output arrival
/// (time, slew, degraded flag, both edges) and on worst_arrival().
bool arrivals_identical(const qwm::sta::StaEngine& a,
                        const qwm::sta::StaEngine& b);

/// A seeded what-if target: a transistor edge of some stage and its new
/// width (0.5x to 2x of the current one).
struct WhatIf {
  int stage = 0;
  qwm::circuit::EdgeId edge = 0;
  double width = 0.0;
};
WhatIf pick_what_if(const qwm::circuit::PartitionedDesign& design,
                    std::mt19937_64& rng);

/// Per-layer QWM and device counters of one analysis or one pass.
void record_qwm_layers(const qwm::core::QwmStats& q, Record& rec);

/// Per-layer counters read from an engine after one analysis.
void record_engine_layers(const qwm::sta::StaEngine& engine, Record& rec);

int run_sta(const RunOptions& o, Record& rec);
int run_gates(const RunOptions& o, Record& rec);
int run_serve(const RunOptions& o, Record& rec);
int run_selftest(Record& rec);

}  // namespace perfbench
