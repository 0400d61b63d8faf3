// Parameter-deck tests: parsing, validation (unknown keys, malformed
// values, line numbers), problem dispatch, and render round trips —
// including the shipped-deck suite that proves every key in every
// decks/*.enzo is parsed, rendered, and re-parsed losslessly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/parameter_file.hpp"
#include "util/constants.hpp"

using namespace enzo;
using core::ParameterDeck;

namespace {
ParameterDeck parse(const std::string& text) {
  std::istringstream in(text);
  return core::parse_parameter_deck(in);
}

/// All shipped decks, sorted (tests run from the build tree; the source dir
/// is baked in by CMake).
std::vector<std::filesystem::path> shipped_decks() {
  std::vector<std::filesystem::path> out;
  for (const auto& e : std::filesystem::directory_iterator(
           std::string(ENZO_SOURCE_DIR) + "/decks"))
    if (e.path().extension() == ".enzo") out.push_back(e.path());
  std::sort(out.begin(), out.end());
  EXPECT_GE(out.size(), 7u) << "shipped decks went missing";
  return out;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}
}  // namespace

TEST(Deck, ParsesFullCollapseDeck) {
  const auto d = parse(R"(
# comment line
ProblemType            = CollapseCloud
TopGridDimensions      = 16 16 16
RefineBy               = 2
MaximumRefinementLevel = 4   # trailing comment
RefineByJeansLength    = 8
ChemistryEnabled       = 1
GravityEnabled         = true
BoxSizeParsec          = 4.0
CloudOverdensity       = 12.5
StopSteps              = 7
)");
  EXPECT_EQ(d.problem, "CollapseCloud");
  EXPECT_EQ(d.config.hierarchy.root_dims, (mesh::Index3{16, 16, 16}));
  EXPECT_EQ(d.config.hierarchy.max_level, 4);
  EXPECT_DOUBLE_EQ(d.config.refinement.jeans_number, 8.0);
  EXPECT_TRUE(d.config.enable_chemistry);
  EXPECT_TRUE(d.config.enable_gravity);
  // ChemistryEnabled also switches on the full field list.
  EXPECT_EQ(d.config.hierarchy.fields.size(),
            mesh::chemistry_field_list().size());
  EXPECT_NEAR(d.collapse.box_proper_cm, 4.0 * constants::kParsec, 1e6);
  EXPECT_DOUBLE_EQ(d.collapse.overdensity, 12.5);
  EXPECT_EQ(d.stop_steps, 7);
}

TEST(Deck, OneDimensionalDims) {
  const auto d = parse("TopGridDimensions = 128\n");
  EXPECT_EQ(d.config.hierarchy.root_dims, (mesh::Index3{128, 1, 1}));
}

TEST(Deck, UnknownKeyReportsLineNumber) {
  try {
    parse("Gamma = 1.4\nNotAKey = 3\n");
    FAIL() << "should have thrown";
  } catch (const enzo::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos);
    EXPECT_NE(msg.find("NotAKey"), std::string::npos);
  }
}

TEST(Deck, MalformedValuesRejected) {
  EXPECT_THROW(parse("Gamma = abc\n"), enzo::Error);
  EXPECT_THROW(parse("MaximumRefinementLevel = 2.5\n"), enzo::Error);
  EXPECT_THROW(parse("ChemistryEnabled = maybe\n"), enzo::Error);
  EXPECT_THROW(parse("Gamma 1.4\n"), enzo::Error);       // missing '='
  EXPECT_THROW(parse("= 3\n"), enzo::Error);             // empty key
  EXPECT_THROW(parse("Gamma =\n"), enzo::Error);         // empty value
  EXPECT_THROW(parse("TopGridDimensions = 8 8 8 8\n"), enzo::Error);
  EXPECT_THROW(parse("ProblemType = FirstStar\n"), enzo::Error);
  EXPECT_THROW(parse("HydroMethod = MUSCL\n"), enzo::Error);
}

TEST(Deck, CosmologyKeysMapThrough) {
  const auto d = parse(R"(
ProblemType         = Cosmology
ComovingCoordinates = 1
HubbleConstantNow   = 0.5
OmegaMatterNow      = 1.0
OmegaBaryonNow      = 0.06
Sigma8              = 0.7
InitialRedshift     = 30
ComovingBoxSizeMpc  = 2.0
RandomSeed          = 99
NestedStaticLevels  = 2
)");
  EXPECT_TRUE(d.config.comoving);
  EXPECT_DOUBLE_EQ(d.config.frw.sigma8, 0.7);
  EXPECT_NEAR(d.comoving_box_mpc.value_or(0.0) * constants::kMpc,
              2.0 * constants::kMpc, 1e10);
  EXPECT_EQ(d.cosmology.seed, 99u);
  EXPECT_EQ(d.cosmology.nested_static_levels, 2);
}

TEST(Deck, SetupDispatchesSod) {
  auto d = parse(R"(
ProblemType       = SodTube
TopGridDimensions = 64
Gamma             = 1.4
)");
  core::Simulation sim(d.config);
  core::setup_from_deck(sim, d);
  EXPECT_EQ(sim.hierarchy().total_cells(), 64);
  EXPECT_FALSE(sim.config().hierarchy.periodic);
  // The diaphragm is set up.
  mesh::Grid* g = sim.hierarchy().grids(0)[0];
  EXPECT_DOUBLE_EQ(g->field(mesh::Field::kDensity)(g->sx(10), 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(g->field(mesh::Field::kDensity)(g->sx(50), 0, 0), 0.125);
}

TEST(Deck, SetupDispatchesUniformAndRuns) {
  auto d = parse(R"(
ProblemType           = Uniform
TopGridDimensions     = 8 8 8
UniformDensity        = 2.5
UniformInternalEnergy = 0.7
StopSteps             = 2
)");
  core::Simulation sim(d.config);
  core::setup_from_deck(sim, d);
  for (int s = 0; s < d.stop_steps; ++s) sim.advance_root_step();
  mesh::Grid* g = sim.hierarchy().grids(0)[0];
  EXPECT_NEAR(g->field(mesh::Field::kDensity)(g->sx(3), g->sy(3), g->sz(3)),
              2.5, 1e-12);
}

TEST(Deck, RenderRoundTrips) {
  const auto d = parse(R"(
ProblemType            = CollapseCloud
TopGridDimensions      = 16 16 16
MaximumRefinementLevel = 3
RefineByJeansLength    = 4
ChemistryEnabled       = 1
GravityEnabled         = 1
HydroMethod            = Zeus
Gamma                  = 1.4
StopSteps              = 5
)");
  const std::string text = core::render_deck(d);
  std::istringstream in(text);
  const auto d2 = core::parse_parameter_deck(in);
  EXPECT_EQ(d2.problem, d.problem);
  EXPECT_EQ(d2.config.hierarchy.max_level, d.config.hierarchy.max_level);
  EXPECT_EQ(d2.config.hydro.solver, d.config.hydro.solver);
  EXPECT_DOUBLE_EQ(d2.config.hydro.gamma, d.config.hydro.gamma);
  EXPECT_EQ(d2.stop_steps, d.stop_steps);

  // Keys that several problems read are stored once: each survives a round
  // trip even when set to the value another problem uses as its default.
  struct Shared {
    const char* problem;
    const char* key;
    double value;
    std::optional<double> ParameterDeck::*field;
  };
  for (const Shared& s :
       {Shared{"ZeldovichPancake", "InitialTemperature", 400.0,
               &ParameterDeck::initial_temperature},
        Shared{"CollapseCloud", "InitialTemperature", 100.0,
               &ParameterDeck::initial_temperature},
        Shared{"ZeldovichPancake", "ComovingBoxSizeMpc", 0.128,
               &ParameterDeck::comoving_box_mpc},
        Shared{"Cosmology", "ComovingBoxSizeMpc", 64.0,
               &ParameterDeck::comoving_box_mpc},
        Shared{"Cosmology", "InitialIonizationFraction", 1e-4,
               &ParameterDeck::initial_ionization},
        Shared{"CollapseCloud", "InitialIonizationFraction", 2e-4,
               &ParameterDeck::initial_ionization},
        Shared{"Cosmology", "InitialH2Fraction", 5e-4,
               &ParameterDeck::initial_h2_fraction},
        Shared{"CollapseCloud", "InitialH2Fraction", 2e-6,
               &ParameterDeck::initial_h2_fraction}}) {
    SCOPED_TRACE(std::string(s.problem) + " " + s.key);
    std::ostringstream text;
    text << "ProblemType = " << s.problem << "\n"
         << s.key << " = " << s.value << "\n";
    const auto sd = parse(text.str());
    const auto sd2 = parse(core::render_deck(sd));
    EXPECT_EQ(sd2.*s.field, s.value);
    EXPECT_EQ(core::render_deck(sd2), core::render_deck(sd));
  }
  // A deck built in code renders the same key.
  ParameterDeck coded;
  coded.problem = "ZeldovichPancake";
  coded.initial_temperature = 400.0;
  EXPECT_EQ(parse(core::render_deck(coded)).initial_temperature, 400.0);
}

TEST(Deck, RemovedStorageAndTopologyKeysAreUnknown) {
  // Pooled storage and the overlap-topology cache are the only paths, so
  // the keys that once switched them are unknown.  The backend follows
  // Threads, worker pinning, the particle lattice size, the dual-energy
  // threshold and the flag buffer are fixed, so their keys are unknown too.
  for (const std::string key :
       {"ArenaMode", "BlockGranularity", "UseOverlapTopology", "Executor",
        "PinThreads", "ParticlesPerAxis", "DualEnergyEta",
        "FlagBufferCells"}) {
    try {
      parse("Gamma = 1.4\n" + key + " = 1\n");
      ADD_FAILURE() << key << " should be rejected";
    } catch (const enzo::Error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown parameter '" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Deck, EveryKeyRoundTripsANonDefaultValue) {
  // One non-default value per deck key, in render order.  `rendered` is the
  // value's canonical text where it differs from the input.
  struct Entry {
    const char* key;
    const char* value;
    const char* rendered = nullptr;
  };
  const std::vector<Entry> entries = {
      {"ProblemType", "SodTube"},
      {"TopGridDimensions", "16 8", "16 8 1"},
      {"RefineBy", "4"},
      {"MaximumRefinementLevel", "3"},
      {"PeriodicBoundary", "false", "0"},
      {"GhostZones", "5"},
      {"ClusterEfficiency", "0.55"},
      {"HydroEnabled", "0"},
      {"GravityEnabled", "yes", "1"},
      {"ChemistryEnabled", "1"},
      {"ParticlesEnabled", "1"},
      {"Gamma", "1.4"},
      {"CourantSafetyNumber", "0.3"},
      {"HydroMethod", "Zeus"},
      {"PPMFlattening", "0"},
      {"RefineByBaryonMass", "0.001"},
      {"RefineByDarkMatterMass", "0.0009", "9e-04"},
      {"RefineByJeansLength", "4"},
      {"RefineByOverdensity", "1.5"},
      {"ComovingCoordinates", "1"},
      {"HubbleConstantNow", "0.7"},
      {"OmegaMatterNow", "0.3"},
      {"OmegaBaryonNow", "0.04"},
      {"OmegaLambdaNow", "0.7"},
      {"Sigma8", "0.9"},
      {"InitialRedshift", "50"},
      {"ComovingBoxSizeMpc", "0.25"},
      {"RandomSeed", "12345"},
      {"NestedStaticLevels", "2"},
      {"BoxSizeParsec", "4"},
      {"CloudRadius", "0.25"},
      {"CloudOverdensity", "10"},
      {"BackgroundDensityCGS", "1e-19"},
      {"InitialTemperature", "300"},
      {"InitialIonizationFraction", "0.0002", "2e-04"},
      {"InitialH2Fraction", "5e-06"},
      {"PancakeCausticRedshift", "2"},
      {"UniformDensity", "2.5"},
      {"UniformInternalEnergy", "0.7"},
      {"SedovEnergy", "2"},
      {"SedovDepositRadius", "0.1"},
      {"AuditInvariants", "1"},
      {"AuditInterval", "3"},
      {"Threads", "4"},
      {"RebuildInterval", "2"},
      {"StopSteps", "7"},
      {"StopTime", "0.5"},
      {"CheckpointPath", "ckpt/run"},
      {"CheckpointInterval", "16"},
      {"CheckpointKeep", "2"},
  };
  std::set<std::string> distinct;
  std::string all_in, all_out;
  for (const Entry& e : entries) {
    SCOPED_TRACE(e.key);
    distinct.insert(e.key);
    const std::string in = std::string(e.key) + " = " + e.value + "\n";
    const std::string line =
        std::string(e.key) + " = " + (e.rendered ? e.rendered : e.value) +
        "\n";
    all_in += in;
    all_out += line;
    // The field holds the value: render reads it back as the same line,
    // and parse∘render is a fixpoint.
    const std::string r1 = core::render_deck(parse(in));
    EXPECT_NE(r1.find(line), std::string::npos) << r1;
    EXPECT_EQ(core::render_deck(parse(r1)), r1);
  }
  EXPECT_EQ(distinct.size(), 50u) << "one entry per deck key";
  // All keys in one deck: every line is emitted, in table order, and
  // nothing else is.
  EXPECT_EQ(core::render_deck(parse(all_in)), all_out);

  // The lane count picks the backend, and `Threads = 0` (all hardware
  // threads on the pool) is not confused with the serial default.
  for (const auto& [threads, backend] :
       {std::pair{"0", exec::Backend::kThreadPool},
        std::pair{"1", exec::Backend::kSerial},
        std::pair{"4", exec::Backend::kThreadPool}}) {
    const auto d = parse(core::render_deck(
        parse(std::string("Threads = ") + threads + "\n")));
    EXPECT_EQ(d.config.exec.threads, std::stoi(threads));
    EXPECT_EQ(d.config.exec.backend, backend) << threads;
  }
  EXPECT_EQ(core::render_deck(ParameterDeck{}).find("Threads"),
            std::string::npos);
}

TEST(Deck, OutOfRangeIntegersRejected) {
  // Values below a key's minimum, beyond int, or not exact are deck errors
  // with the line number and the key, never a crash or a silent wrap.
  for (const char* text :
       {"RebuildInterval = 0", "RebuildInterval = -2", "AuditInterval = 0",
        "Threads = -1", "StopSteps = -1", "MaximumRefinementLevel = -1",
        "CheckpointInterval = -4", "StopSteps = 1e10",
        "GhostZones = 9007199254740993", "RefineBy = nan",
        "RandomSeed = -5", "RandomSeed = 18446744073709551616",
        "RandomSeed = 2001.5", "RandomSeed = 1e3", "RefineBy = 1",
        "RefineBy = -2", "GhostZones = -1", "GhostZones = 2",
        "TopGridDimensions = 0 8 8", "TopGridDimensions = 8 8 -1"}) {
    SCOPED_TRACE(text);
    const std::string t = text;
    const std::string key = t.substr(0, t.find(' '));
    try {
      parse("Gamma = 1.4\n" + t + "\n");
      ADD_FAILURE() << "should be rejected";
    } catch (const enzo::Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("parameter deck line 2: " + key), std::string::npos)
          << msg;
    }
  }
  // The minimums themselves are accepted.
  const auto d = parse(
      "RebuildInterval = 1\nAuditInterval = 1\nThreads = 0\n"
      "StopSteps = 0\nMaximumRefinementLevel = 0\nCheckpointInterval = 0\n"
      "RefineBy = 2\nGhostZones = 3\nTopGridDimensions = 1 1 1\n");
  EXPECT_EQ(d.config.rebuild_interval, 1);
  EXPECT_EQ(d.stop_steps, 0);
  EXPECT_EQ(d.config.hierarchy.refine_factor, 2);
  EXPECT_EQ(d.config.hierarchy.nghost, 3);
  EXPECT_EQ(d.config.hierarchy.root_dims, (mesh::Index3{1, 1, 1}));
  // RandomSeed is exact over the whole unsigned 64-bit range, including
  // values a double cannot hold.
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{9007199254740993ULL},
        std::uint64_t{18446744073709551615ULL}}) {
    const std::string text = "RandomSeed = " + std::to_string(seed) + "\n";
    const auto s = parse(text);
    EXPECT_EQ(s.cosmology.seed, seed);
    EXPECT_EQ(parse(core::render_deck(s)).cosmology.seed, seed);
  }
}

TEST(Deck, UnknownProblemTypeListsRegisteredNames) {
  // The error text is derived from the problem registry, so it names the
  // problems that actually exist (satellite of ISSUE 10).
  try {
    parse("ProblemType = FirstStar\n");
    FAIL() << "should have thrown";
  } catch (const enzo::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("FirstStar"), std::string::npos);
    for (const char* name : {"SodTube", "SedovBlast", "ZeldovichPancake",
                             "CollapseCloud", "Cosmology", "Uniform"})
      EXPECT_NE(msg.find(name), std::string::npos) << name;
  }
}

TEST(Deck, ShippedDecksRenderRoundTrip) {
  // parse → render → parse → render must be a fixed point for every shipped
  // deck: the renderer emits every live key with round-trip float precision.
  for (const auto& path : shipped_decks()) {
    const auto d1 = core::parse_parameter_file(path.string());
    const std::string r1 = core::render_deck(d1);
    const auto d2 = parse(r1);
    EXPECT_EQ(core::render_deck(d2), r1) << path;
    EXPECT_EQ(d2.problem, d1.problem) << path;
  }
}

TEST(Deck, EveryShippedKeyIsLive) {
  // Removing any key line from a shipped deck must change the rendered
  // config — otherwise the key is either silently dropped by the renderer
  // (a lossy parse/render pair) or redundantly restates a default.
  // Intentional restatements are allowlisted and verified to actually BE
  // redundant, so the allowlist cannot rot either.
  const std::map<std::string, std::set<std::string>> redundant = {
      {"sod.enzo", {"HydroMethod"}},
      {"first_star.enzo", {"HydroMethod"}},
      {"sedov.enzo", {"TopGridDimensions"}},  // 32^3 is also the default
      {"cosmology_box.enzo",
       {"HubbleConstantNow", "OmegaMatterNow", "OmegaBaryonNow",
        "OmegaLambdaNow", "Sigma8", "RandomSeed", "StopSteps"}},
  };
  for (const auto& path : shipped_decks()) {
    const std::string text = slurp(path);
    const std::string base = core::render_deck(parse(text));
    const auto allow_it = redundant.find(path.filename().string());
    const std::set<std::string> allow = allow_it == redundant.end()
                                            ? std::set<std::string>{}
                                            : allow_it->second;
    std::istringstream lines(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(lines, line)) {
      ++line_no;
      const auto hash = line.find('#');
      const std::string body =
          hash == std::string::npos ? line : line.substr(0, hash);
      const auto eq = body.find('=');
      if (eq == std::string::npos) continue;
      std::string key = body.substr(0, eq);
      key.erase(0, key.find_first_not_of(" \t"));
      key.erase(key.find_last_not_of(" \t") + 1);
      // Re-parse the deck with this one line removed.
      std::istringstream all(text);
      std::ostringstream rest;
      std::string l2;
      std::size_t n2 = 0;
      while (std::getline(all, l2))
        if (++n2 != line_no) rest << l2 << "\n";
      const std::string without = core::render_deck(parse(rest.str()));
      if (allow.count(key)) {
        EXPECT_EQ(without, base)
            << path << ": '" << key << "' is allowlisted as redundant but "
            << "actually changes the config — drop it from the allowlist";
      } else {
        EXPECT_NE(without, base)
            << path << ": key '" << key << "' has no effect on the rendered "
            << "config — it is silently ignored or restates a default";
      }
    }
  }
}
