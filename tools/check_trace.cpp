// check_trace: dependency-free (C++-only) self-check of the telemetry
// subsystem's end-to-end output.  Runs decks/first_star.enzo (the scaled
// first-star collapse) for a few root steps with event capture and a
// diagnostics sink, then validates what a user of --trace-out/--diag-out
// would consume:
//
//   * the Chrome trace JSON parses, every event is a complete "X" event,
//     timestamps are monotonic, and nested scopes appear for hydro, gravity,
//     chemistry, boundary conditions, and hierarchy rebuild on >= 2 levels;
//   * the component-table fractions sum to 1 within 1e-9;
//   * the JSONL diagnostics stream has one schema-valid record per root step
//     with per-level grid/cell counts and the active dt limiter.
//
//   $ ./check_trace [trace.json [diag.jsonl]]     (exit 0 = all checks pass)

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/parameter_file.hpp"
#include "core/simulation.hpp"
#include "perf/diagnostics.hpp"
#include "perf/json.hpp"
#include "perf/trace.hpp"

using namespace enzo;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%-64s %s\n", what.c_str(), ok ? "ok" : "FAIL");
  if (!ok) ++failures;
}

std::string read_file(const std::string& path) {
  std::string out;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 14];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "check_trace.json";
  const std::string diag_path = argc > 2 ? argv[2] : "check_trace_diag.jsonl";
  constexpr int kSteps = 3;

  // ---- run the instrumented collapse ---------------------------------------
  perf::TraceRecorder& recorder = perf::TraceRecorder::global();
  recorder.reset();
  recorder.enable_events(true);

  const core::ParameterDeck deck =
      core::parse_parameter_file(ENZO_SOURCE_DIR "/decks/first_star.enzo");
  core::Simulation sim(deck.config);
  core::setup_from_deck(sim, deck);

  {
    perf::DiagnosticsSink sink(diag_path);
    if (!sink.ok()) {
      std::fprintf(stderr, "cannot open %s\n", diag_path.c_str());
      return 1;
    }
    sim.set_diagnostics_sink(&sink);
    for (int s = 0; s < kSteps; ++s) sim.advance_root_step();
    sim.set_diagnostics_sink(nullptr);
  }
  check(sim.hierarchy().deepest_level() >= 1,
        "collapse run refined beyond the root level");
  if (!recorder.write_chrome_trace(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }

  // ---- Chrome trace validity -----------------------------------------------
  perf::JsonValue doc;
  std::string err;
  check(perf::json_parse(read_file(trace_path), &doc, &err),
        "trace file parses as JSON (" + err + ")");
  const perf::JsonValue* events = doc.find("traceEvents");
  check(events != nullptr && events->is_array() && !events->array().empty(),
        "traceEvents is a non-empty array");
  bool monotonic = true, complete = true, nested = true;
  std::set<std::string> cats;
  std::set<int> levels_seen;
  bool saw_l1_nesting = false;
  double last_ts = -1.0;
  if (events != nullptr && events->is_array()) {
    for (const perf::JsonValue& ev : events->array()) {
      const perf::JsonValue* ph = ev.find("ph");
      const perf::JsonValue* ts = ev.find("ts");
      const perf::JsonValue* dur = ev.find("dur");
      const perf::JsonValue* cat = ev.find("cat");
      const perf::JsonValue* args = ev.find("args");
      if (ph == nullptr || ph->str() != "X" || ts == nullptr ||
          dur == nullptr || cat == nullptr || ev.find("name") == nullptr ||
          ev.find("pid") == nullptr || ev.find("tid") == nullptr) {
        complete = false;
        continue;
      }
      if (ts->number() < last_ts) monotonic = false;
      last_ts = ts->number();
      cats.insert(cat->str());
      const perf::JsonValue* path =
          args != nullptr ? args->find("path") : nullptr;
      const perf::JsonValue* level =
          args != nullptr ? args->find("level") : nullptr;
      if (path == nullptr || level == nullptr) {
        nested = false;
        continue;
      }
      levels_seen.insert(static_cast<int>(level->number()));
      if (path->str().rfind("evolve_level/L0/evolve_level/L1/", 0) == 0)
        saw_l1_nesting = true;
    }
  }
  check(complete, "every event is a complete (ph=X) event with all keys");
  check(monotonic, "event timestamps are monotonic");
  check(nested, "every event carries args.path and args.level");
  for (const char* comp :
       {perf::component::kHydro, perf::component::kGravity,
        perf::component::kChemistry, perf::component::kBoundary,
        perf::component::kRebuild})
    check(cats.count(comp) == 1,
          std::string("trace has events for component: ") + comp);
  check(levels_seen.count(0) == 1 && levels_seen.count(1) == 1,
        "trace covers >= 2 refinement levels (0 and 1)");
  check(saw_l1_nesting,
        "scopes nest through evolve_level/L0/evolve_level/L1/...");
  check(recorder.path_calls("evolve_level/L0/step_grids/hydro") >=
            static_cast<std::uint64_t>(kSteps),
        "hydro scopes nest under evolve_level via the step_grids phase");

  // ---- component-table fractions -------------------------------------------
  double fraction_sum = 0.0;
  for (const auto& row : recorder.component_table())
    fraction_sum += row.fraction;
  check(std::abs(fraction_sum - 1.0) <= 1e-9,
        "component fractions sum to 1 (sum = " +
            perf::json_number(fraction_sum) + ")");

  // ---- JSONL diagnostics stream --------------------------------------------
  const std::string diag = read_file(diag_path);
  int records = 0;
  bool schema_ok = true, level_stats_ok = true, limiter_ok = true;
  std::size_t pos = 0;
  while (pos < diag.size()) {
    std::size_t nl = diag.find('\n', pos);
    if (nl == std::string::npos) nl = diag.size();
    const std::string line = diag.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    perf::StepRecord rec;
    if (!perf::parse_step_record(line, &rec)) {
      schema_ok = false;
      continue;
    }
    ++records;
    if (rec.step != records || rec.dt <= 0.0) schema_ok = false;
    if (rec.levels.empty() || rec.levels[0].grids == 0 ||
        rec.levels[0].cells == 0)
      level_stats_ok = false;
    for (std::size_t l = 0; l < rec.levels.size(); ++l)
      if (rec.levels[l].level != static_cast<int>(l)) level_stats_ok = false;
    if (rec.dt_limiter.empty() || rec.dt_limiter == "none") limiter_ok = false;
  }
  check(records == kSteps, "one JSONL record per root step");
  check(schema_ok, "every JSONL record round-trips through the schema");
  check(level_stats_ok, "records carry per-level grid/cell counts");
  check(limiter_ok, "records name the active dt limiter");

  std::remove(trace_path.c_str());
  std::remove(diag_path.c_str());
  if (failures > 0) {
    std::printf("\ncheck_trace: %d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\ncheck_trace: all checks passed\n");
  return 0;
}
