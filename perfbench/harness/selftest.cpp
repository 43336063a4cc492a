// Self-test of the edge arithmetic behind answered_frac and nominal_frac,
// on the 4-gate deck whose missing arcs are known: inv, inv, nor2, nand2
// with the late input on pin b. Today the nor2 output-fall and the nand2
// output-rise arrivals are missing; with the pins swapped every edge is
// timed. count_edges() must agree with a per-net tally of both decks, and
// the only edges allowed to be missing are those two.
#include <set>

#include "qwm/frontend/blif.h"
#include "qwm/frontend/elaborate.h"
#include "workloads.h"

namespace perfbench {

using namespace qwm;

namespace {

std::string deck(bool late_on_b) {
  const std::string pins = late_on_b ? "a=b b=a2" : "a=a2 b=b";
  return ".model item1\n"
         ".inputs a b\n"
         ".outputs y z\n"
         ".gate inv a=a y=a1\n"
         ".gate inv a=a1 y=a2\n"
         ".gate nor2 " + pins + " y=y\n"
         ".gate nand2 " + pins + " y=z\n"
         ".end\n";
}

}  // namespace

int run_selftest(Record& rec) {
  const Models models;
  for (const bool late_on_b : {true, false}) {
    const std::string tag = late_on_b ? "late_on_b" : "late_on_a";
    const frontend::BlifResult parsed = frontend::parse_blif(deck(late_on_b));
    rec.check(parsed.ok(), tag + ".parse", "4-gate deck failed to parse");
    if (!parsed.ok()) continue;
    const frontend::ElaboratedDesign elab =
        frontend::elaborate(parsed.netlist, models.set());
    sta::StaOptions opt;
    opt.schedule = sta::Schedule::deps;
    sta::StaEngine engine(elab.design, models.set(), opt);
    engine.run();

    // Hand tally, net by name.
    EdgeCounts tally;
    std::set<std::string> missing;
    for (const char* name : {"a1", "a2", "y", "z"}) {
      const auto id = elab.nl.find_net(name);
      rec.check(id.has_value(), tag + ".net", std::string("no net ") + name);
      if (!id) continue;
      const sta::NetTiming& t = engine.timing(*id);
      for (const auto& [edge, a] :
           {std::pair{"rise", &t.rise}, std::pair{"fall", &t.fall}}) {
        ++tally.attempted;
        if (!a->valid()) {
          missing.insert(std::string(name) + "." + edge);
          continue;
        }
        ++tally.answered;
        if (!a->degraded) ++tally.nominal;
      }
    }
    const EdgeCounts c = count_edges(engine);
    rec.check(c.attempted == 8 && tally.attempted == 8, tag + ".attempted",
              "expected 8 edges, counted " + std::to_string(c.attempted));
    rec.check(c.answered == tally.answered && c.nominal == tally.nominal,
              tag + ".counts",
              "count_edges answered/nominal " + std::to_string(c.answered) +
                  "/" + std::to_string(c.nominal) + " vs tally " +
                  std::to_string(tally.answered) + "/" +
                  std::to_string(tally.nominal));
    const std::set<std::string> known =
        late_on_b ? std::set<std::string>{"y.fall", "z.rise"}
                  : std::set<std::string>{};
    bool subset = true;
    for (const auto& m : missing) subset = subset && known.count(m);
    std::string got;
    for (const auto& m : missing) got += m + " ";
    rec.check(subset, tag + ".missing", "unexpected missing edges: " + got);
    rec.layers[tag + ".answered"] = static_cast<double>(c.answered);
    rec.layers[tag + ".nominal"] = static_cast<double>(c.nominal);
    ++rec.attempted;
  }
  return rec.failed_checks.empty() ? 0 : 1;
}

}  // namespace perfbench
