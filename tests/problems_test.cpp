// Problem-registry tests: lookup and error behavior, out-of-tree
// registration via problems::Registrar, and the smoke gate that every
// registered problem initializes from its own smoke deck and takes one
// root step under the invariant auditor.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/parameter_file.hpp"
#include "problems/registry.hpp"
#include "util/error.hpp"

using namespace enzo;

namespace {
core::ParameterDeck parse(const std::string& text) {
  std::istringstream in(text);
  return core::parse_parameter_deck(in);
}
}  // namespace

TEST(ProblemRegistry, BuiltinsRegistered) {
  const auto names = problems::Registry::global().names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* n :
       {"CollapseCloud", "Cosmology", "IsothermalCollapse", "SedovBlast",
        "SedovBlastSMR", "SodTube", "SodTubeSMR", "Uniform",
        "ZeldovichPancake"})
    EXPECT_TRUE(std::find(names.begin(), names.end(), n) != names.end()) << n;
}

TEST(ProblemRegistry, SpecsAreComplete) {
  for (const auto& name : problems::Registry::global().names()) {
    const auto& spec = problems::Registry::global().at(name);
    EXPECT_FALSE(spec.description.empty()) << name;
    EXPECT_TRUE(static_cast<bool>(spec.make)) << name;
  }
}

TEST(ProblemRegistry, AtThrowsListingRegisteredNames) {
  try {
    problems::Registry::global().at("NoSuchProblem");
    FAIL() << "should have thrown";
  } catch (const enzo::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("NoSuchProblem"), std::string::npos);
    EXPECT_NE(msg.find("SodTube"), std::string::npos);
    EXPECT_NE(msg.find("SedovBlast"), std::string::npos);
  }
}

TEST(ProblemRegistry, RegistrarMakesProblemDeckSelectable) {
  problems::ProblemSpec spec;
  spec.name = "TestBlob";
  spec.description = "out-of-tree registration test problem";
  spec.make = [](const core::ParameterDeck& d) {
    core::ParameterDeck doubled = d;
    doubled.uniform_density *= 2.0;
    return problems::Registry::global().at("Uniform").make(doubled);
  };
  problems::Registrar reg(spec);

  // Duplicate registration is an error, not a silent override.
  EXPECT_THROW(problems::Registry::global().add(spec), enzo::Error);

  // The parser now accepts the name and dispatch reaches the new factory.
  auto deck = parse(
      "ProblemType = TestBlob\n"
      "TopGridDimensions = 8 8 8\n"
      "UniformDensity = 1.5\n");
  core::Simulation sim(deck.config);
  core::setup_from_deck(sim, deck);
  mesh::Grid* g = sim.hierarchy().grids(0)[0];
  EXPECT_DOUBLE_EQ(g->field(mesh::Field::kDensity)(g->sx(1), g->sy(1), g->sz(1)),
                   3.0);
  sim.advance_root_step();
}

TEST(ProblemRegistry, EveryProblemSmokesUnderAuditor) {
  for (const auto& name : problems::Registry::global().names()) {
    const auto& spec = problems::Registry::global().at(name);
    if (spec.smoke_deck.empty()) continue;  // out-of-tree test problems
    SCOPED_TRACE(name);
    auto deck = parse(spec.smoke_deck + "ProblemType = " + name +
                      "\nAuditInvariants = 1\n");
    core::Simulation sim(deck.config);
    core::setup_from_deck(sim, deck);
    for (int s = 0; s < deck.stop_steps; ++s) sim.advance_root_step();
    EXPECT_GE(sim.audits_run(), 1l);
    EXPECT_EQ(sim.audit_violations_total(), 0u);
  }
}

TEST(ProblemRegistry, MakeReadsConfigOnlyThroughHooks) {
  // A problem's initializer takes physics and hierarchy values from the
  // Simulation it initializes, never from deck.config: here the deck's
  // config disagrees with the Simulation's and the Simulation's wins.
  {
    SCOPED_TRACE("SodTubeSMR");
    auto deck = parse(
        "ProblemType = SodTubeSMR\n"
        "TopGridDimensions = 16 1 1\n"
        "MaximumRefinementLevel = 1\n"
        "Gamma = 1.4\n");
    core::SimulationConfig cfg = deck.config;
    cfg.hierarchy.root_dims = {32, 1, 1};
    core::Simulation sim(cfg);
    core::setup_from_deck(sim, deck);
    // The static region is the middle half of the tube at level 1:
    // [16, 48) for a 32-cell root (plus the flag buffer), centered on the
    // tube, not the deck's [8, 24).
    ASSERT_EQ(sim.hierarchy().deepest_level(), 1);
    std::int64_t lo = 1 << 20, hi = -1;
    for (const mesh::Grid* g : sim.hierarchy().grids(1)) {
      lo = std::min(lo, g->box().lo[0]);
      hi = std::max(hi, g->box().hi[0]);
    }
    EXPECT_LE(lo, 16);
    EXPECT_GE(hi, 48);
    EXPECT_EQ(lo + hi, 64);
  }
  {
    SCOPED_TRACE("CollapseCloud, chemistry on in the Simulation only");
    auto deck = parse(
        "ProblemType = CollapseCloud\n"
        "TopGridDimensions = 8 8 8\n"
        "GravityEnabled = 1\n");
    core::SimulationConfig cfg = deck.config;
    cfg.enable_chemistry = true;
    cfg.hierarchy.fields = mesh::chemistry_field_list();
    core::Simulation sim(cfg);
    core::setup_from_deck(sim, deck);
    EXPECT_TRUE(sim.config().enable_chemistry);
    const mesh::Grid* g = sim.hierarchy().grids(0)[0];
    EXPECT_GT(g->field(mesh::Field::kH2I)(g->sx(4), g->sy(4), g->sz(4)), 0.0);
  }
  {
    SCOPED_TRACE("CollapseCloud, chemistry on in the deck only");
    auto deck = parse(
        "ProblemType = CollapseCloud\n"
        "TopGridDimensions = 8 8 8\n"
        "GravityEnabled = 1\n"
        "ChemistryEnabled = 1\n");
    core::SimulationConfig cfg = deck.config;
    cfg.enable_chemistry = false;
    cfg.hierarchy.fields = core::SimulationConfig{}.hierarchy.fields;
    core::Simulation sim(cfg);
    EXPECT_NO_THROW(core::setup_from_deck(sim, deck));
    EXPECT_FALSE(sim.config().enable_chemistry);
    sim.advance_root_step();
  }
}
