#include "core/parameter_file.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <vector>

#include "exec/exec_config.hpp"
#include "problems/registry.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"

namespace enzo::core {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Shortest round-trip rendering of a double (std::to_chars): re-parsing
/// the text recovers the bit-identical value, so render/parse cycles are
/// lossless.
std::string fmt(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Parser {
  ParameterDeck deck;
  int line_no = 0;

  [[noreturn]] void fail(const std::string& msg) const {
    throw enzo::Error("parameter deck line " + std::to_string(line_no) + ": " +
                      msg);
  }

  double num(const std::string& v) const {
    try {
      std::size_t pos = 0;
      const double x = std::stod(v, &pos);
      if (trim(v.substr(pos)).empty()) return x;
    } catch (...) {
    }
    fail("expected a number, got '" + v + "'");
  }
  /// An integer in [min, INT_MAX], range-checked before the narrowing cast.
  int integer(const char* key, const std::string& v, int min) const {
    const double x = num(v);
    if (!(x == std::trunc(x) && x >= min && x <= INT_MAX))
      fail(std::string(key) + " expects an integer in [" +
           std::to_string(min) + ", " + std::to_string(INT_MAX) + "], got '" +
           v + "'");
    return static_cast<int>(x);
  }
  /// An exact unsigned 64-bit decimal (no sign, fraction or exponent).
  std::uint64_t unsigned64(const char* key, const std::string& v) const {
    std::uint64_t x = 0;
    const auto res = std::from_chars(v.data(), v.data() + v.size(), x);
    if (res.ec != std::errc() || res.ptr != v.data() + v.size())
      fail(std::string(key) + " expects an unsigned 64-bit integer, got '" +
           v + "'");
    return x;
  }
  bool boolean(const std::string& v) const {
    if (v == "1" || v == "true" || v == "yes") return true;
    if (v == "0" || v == "false" || v == "no") return false;
    fail("expected a boolean (0/1/true/false), got '" + v + "'");
  }
  /// Up to three extents (missing ones are 1), each at least 1.
  mesh::Index3 dims(const char* key, const std::string& v) const {
    std::istringstream ss(v);
    mesh::Index3 d{1, 1, 1};
    if (!(ss >> d[0])) fail("expected up to three integers, got '" + v + "'");
    ss >> d[1] >> d[2];
    std::string rest;
    if (ss.clear(), std::getline(ss, rest); !trim(rest).empty())
      fail("trailing text after dimensions: '" + rest + "'");
    for (const std::int64_t n : d)
      if (n < 1)
        fail(std::string(key) + " expects each extent >= 1, got '" + v + "'");
    return d;
  }
};

/// One deck key: `set` parses a value into the parser's deck, `get` renders
/// the deck's value (nullopt: the key is unset).  render_deck emits a key
/// when it is always rendered or when its text differs from a default
/// deck's.
struct Key {
  const char* name;
  std::function<void(Parser&, const std::string&)> set;
  std::function<std::optional<std::string>(const ParameterDeck&)> get;
  bool always = false;
};

constexpr bool kAlways = true;

// Row builders for the common value kinds.  `field` maps a (const or
// mutable) deck to the member the key names.
template <class Field>
Key real(const char* name, Field field, bool always = false) {
  return {name,
          [field](Parser& p, const std::string& v) { field(p.deck) = p.num(v); },
          [field](const ParameterDeck& d) -> std::optional<std::string> {
            return fmt(field(d));
          },
          always};
}

template <class Field>
Key optional_real(const char* name, Field field) {
  return {name,
          [field](Parser& p, const std::string& v) { field(p.deck) = p.num(v); },
          [field](const ParameterDeck& d) -> std::optional<std::string> {
            if (!field(d)) return std::nullopt;
            return fmt(*field(d));
          }};
}

template <class Field>
Key integer(const char* name, Field field, int min = INT_MIN,
            bool always = false) {
  return {name,
          [name, field, min](Parser& p, const std::string& v) {
            field(p.deck) = p.integer(name, v, min);
          },
          [field](const ParameterDeck& d) -> std::optional<std::string> {
            return std::to_string(field(d));
          },
          always};
}

template <class Field>
Key flag(const char* name, Field field, bool always = false) {
  return {name,
          [field](Parser& p, const std::string& v) {
            field(p.deck) = p.boolean(v);
          },
          [field](const ParameterDeck& d) -> std::optional<std::string> {
            return field(d) ? "1" : "0";
          },
          always};
}

// The deck member a row reads and writes, for a const or a mutable deck.
#define DECK_FIELD(path) [](auto& d) -> auto& { return d.path; }

/// Every deck key, in render order.
const std::vector<Key>& keys() {
  static const std::vector<Key> table = {
      {"ProblemType",
       [](Parser& p, const std::string& v) {
         // Validated against the problem registry, so the accepted names
         // and this error's listing can never drift from the generators.
         const auto& reg = problems::Registry::global();
         if (reg.find(v) == nullptr)
           p.fail("unknown ProblemType '" + v +
                  "' (registered: " + reg.names_joined() + ")");
         p.deck.problem = v;
       },
       [](const ParameterDeck& d) -> std::optional<std::string> {
         return d.problem;
       },
       kAlways},
      // --- hierarchy ---------------------------------------------------------
      {"TopGridDimensions",
       [](Parser& p, const std::string& v) {
         p.deck.config.hierarchy.root_dims = p.dims("TopGridDimensions", v);
       },
       [](const ParameterDeck& d) -> std::optional<std::string> {
         const auto& n = d.config.hierarchy.root_dims;
         return std::to_string(n[0]) + " " + std::to_string(n[1]) + " " +
                std::to_string(n[2]);
       },
       kAlways},
      integer("RefineBy", DECK_FIELD(config.hierarchy.refine_factor), 2,
              kAlways),
      integer("MaximumRefinementLevel", DECK_FIELD(config.hierarchy.max_level),
              0, kAlways),
      flag("PeriodicBoundary", DECK_FIELD(config.hierarchy.periodic), kAlways),
      // PPM reads parabolas at cells [ng-1, n-ng], valid only in [2, n-3].
      integer("GhostZones", DECK_FIELD(config.hierarchy.nghost), 3),
      real("ClusterEfficiency",
           DECK_FIELD(config.hierarchy.cluster.min_efficiency)),
      // --- physics toggles ---------------------------------------------------
      flag("HydroEnabled", DECK_FIELD(config.enable_hydro), kAlways),
      flag("GravityEnabled", DECK_FIELD(config.enable_gravity), kAlways),
      {"ChemistryEnabled",
       [](Parser& p, const std::string& v) {
         auto& cfg = p.deck.config;
         cfg.enable_chemistry = p.boolean(v);
         if (cfg.enable_chemistry)
           cfg.hierarchy.fields = mesh::chemistry_field_list();
       },
       [](const ParameterDeck& d) -> std::optional<std::string> {
         return d.config.enable_chemistry ? "1" : "0";
       },
       kAlways},
      flag("ParticlesEnabled", DECK_FIELD(config.enable_particles), kAlways),
      // --- hydro -------------------------------------------------------------
      real("Gamma", DECK_FIELD(config.hydro.gamma), kAlways),
      real("CourantSafetyNumber", DECK_FIELD(config.hydro.cfl), kAlways),
      {"HydroMethod",
       [](Parser& p, const std::string& v) {
         auto& solver = p.deck.config.hydro.solver;
         if (v == "PPM") solver = hydro::Solver::kPpm;
         else if (v == "Zeus") solver = hydro::Solver::kZeus;
         else p.fail("unknown HydroMethod '" + v + "' (PPM or Zeus)");
       },
       [](const ParameterDeck& d) -> std::optional<std::string> {
         return d.config.hydro.solver == hydro::Solver::kPpm ? "PPM" : "Zeus";
       },
       kAlways},
      flag("PPMFlattening", DECK_FIELD(config.hydro.flattening)),
      // --- refinement criteria -----------------------------------------------
      real("RefineByBaryonMass",
           DECK_FIELD(config.refinement.baryon_mass_threshold)),
      real("RefineByDarkMatterMass",
           DECK_FIELD(config.refinement.dm_mass_threshold)),
      real("RefineByJeansLength", DECK_FIELD(config.refinement.jeans_number)),
      real("RefineByOverdensity",
           DECK_FIELD(config.refinement.overdensity_threshold)),
      // --- cosmology ---------------------------------------------------------
      flag("ComovingCoordinates", DECK_FIELD(config.comoving)),
      real("HubbleConstantNow", DECK_FIELD(config.frw.hubble)),
      real("OmegaMatterNow", DECK_FIELD(config.frw.omega_matter)),
      real("OmegaBaryonNow", DECK_FIELD(config.frw.omega_baryon)),
      real("OmegaLambdaNow", DECK_FIELD(config.frw.omega_lambda)),
      real("Sigma8", DECK_FIELD(config.frw.sigma8)),
      real("InitialRedshift", DECK_FIELD(config.initial_redshift)),
      optional_real("ComovingBoxSizeMpc", DECK_FIELD(comoving_box_mpc)),
      {"RandomSeed",
       [](Parser& p, const std::string& v) {
         p.deck.cosmology.seed = p.unsigned64("RandomSeed", v);
       },
       [](const ParameterDeck& d) -> std::optional<std::string> {
         return std::to_string(d.cosmology.seed);
       }},
      integer("NestedStaticLevels", DECK_FIELD(cosmology.nested_static_levels)),
      // --- collapse problem --------------------------------------------------
      {"BoxSizeParsec",
       [](Parser& p, const std::string& v) {
         p.deck.collapse.box_proper_cm = p.num(v) * constants::kParsec;
       },
       [](const ParameterDeck& d) -> std::optional<std::string> {
         return fmt(d.collapse.box_proper_cm / constants::kParsec);
       }},
      real("CloudRadius", DECK_FIELD(collapse.cloud_radius)),
      real("CloudOverdensity", DECK_FIELD(collapse.overdensity)),
      real("BackgroundDensityCGS", DECK_FIELD(collapse.mean_density_cgs)),
      optional_real("InitialTemperature", DECK_FIELD(initial_temperature)),
      optional_real("InitialIonizationFraction",
                    DECK_FIELD(initial_ionization)),
      optional_real("InitialH2Fraction", DECK_FIELD(initial_h2_fraction)),
      // --- pancake / uniform / sedov -----------------------------------------
      real("PancakeCausticRedshift", DECK_FIELD(pancake.a_caustic_redshift)),
      real("UniformDensity", DECK_FIELD(uniform_density)),
      real("UniformInternalEnergy", DECK_FIELD(uniform_eint)),
      real("SedovEnergy", DECK_FIELD(sedov.energy)),
      real("SedovDepositRadius", DECK_FIELD(sedov.radius)),
      // --- execution and run control -----------------------------------------
      flag("AuditInvariants", DECK_FIELD(config.audit_invariants)),
      integer("AuditInterval", DECK_FIELD(config.audit_interval), 1),
      {"Threads",
       [](Parser& p, const std::string& v) {
         p.deck.config.exec.set_threads(p.integer("Threads", v, 0));
       },
       [](const ParameterDeck& d) -> std::optional<std::string> {
         // Only a backend that follows the lane count is a deck value: the
         // default (serial, threads 0) has no Threads line.
         exec::ExecConfig e;
         e.set_threads(d.config.exec.threads);
         if (e.backend != d.config.exec.backend) return std::nullopt;
         return std::to_string(d.config.exec.threads);
       }},
      integer("RebuildInterval", DECK_FIELD(config.rebuild_interval), 1),
      integer("StopSteps", DECK_FIELD(stop_steps), 0, kAlways),
      real("StopTime", DECK_FIELD(stop_time)),
      {"CheckpointPath",
       [](Parser& p, const std::string& v) { p.deck.checkpoint_path = v; },
       [](const ParameterDeck& d) -> std::optional<std::string> {
         return d.checkpoint_path;
       }},
      integer("CheckpointInterval", DECK_FIELD(checkpoint_interval), 0),
      integer("CheckpointKeep", DECK_FIELD(checkpoint_keep)),
  };
  return table;
}

#undef DECK_FIELD

}  // namespace

ParameterDeck parse_parameter_deck(std::istream& in) {
  Parser p;
  std::string line;
  while (std::getline(in, line)) {
    ++p.line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) p.fail("expected 'Key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) p.fail("empty key");
    if (value.empty()) p.fail("empty value for '" + key + "'");
    const auto& table = keys();
    const auto row = std::find_if(table.begin(), table.end(),
                                  [&](const Key& k) { return key == k.name; });
    if (row == table.end()) p.fail("unknown parameter '" + key + "'");
    row->set(p, value);
  }
  return std::move(p.deck);
}

ParameterDeck parse_parameter_file(const std::string& path) {
  std::ifstream in(path);
  ENZO_REQUIRE(in.good(), "cannot open parameter file: " + path);
  return parse_parameter_deck(in);
}

ProblemSetup deck_problem_setup(const ParameterDeck& deck) {
  // Registry dispatch: throws (listing the registered names) for a problem
  // name set programmatically without going through the parser.
  return problems::Registry::global().at(deck.problem).make(deck);
}

void setup_from_deck(Simulation& sim, const ParameterDeck& deck) {
  sim.initialize(deck_problem_setup(deck));
}

void configure_from_deck(Simulation& sim, const ParameterDeck& deck) {
  sim.configure_for_restart(deck_problem_setup(deck));
}

std::string render_deck(const ParameterDeck& deck) {
  const ParameterDeck defaults;
  std::string out;
  for (const Key& k : keys()) {
    const std::optional<std::string> text = k.get(deck);
    if (!text || (!k.always && text == k.get(defaults))) continue;
    out += std::string(k.name) + " = " + *text + "\n";
  }
  return out;
}

}  // namespace enzo::core
