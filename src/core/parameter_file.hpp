#pragma once
// Parameter-file front end.
//
// Production cosmology codes are driven by plain-text parameter files
// (Enzo's `ProblemType = 30`-style decks); this module parses that format
// into a SimulationConfig + problem selection so runs are reproducible from
// a checked-in text file rather than recompiled C++.
//
// Format: one `Key = value` per line; `#` starts a comment; keys are
// case-sensitive; unknown keys are an error (catching typos is the whole
// point of a deck parser).  Example:
//
//     # first-star collapse at laptop scale
//     ProblemType            = CollapseCloud
//     TopGridDimensions      = 16 16 16
//     MaximumRefinementLevel = 4
//     RefineByJeansLength    = 4
//     ChemistryEnabled       = 1
//     CloudOverdensity       = 10.0
//
// The problem is selected *by name* from the problem-generator registry
// (src/problems/registry.hpp): any registered problem — built-in or added
// via problems::Registrar — is deck-selectable, and the "unknown
// ProblemType" error lists exactly the registered names, so the accepted
// set can never drift from the actual generators.
//
// Each key is one row of the key table in parameter_file.cpp (the full key
// list): the row parses the value and renders it back, so render_deck() is
// the exact inverse of the parser (every non-default value is emitted with
// round-trip float precision), pinned by the deck round-trip suite in
// tests/deck_test.cpp.  Integer keys are range-checked (RebuildInterval and
// AuditInterval >= 1; Threads, StopSteps, MaximumRefinementLevel and
// CheckpointInterval >= 0) and RandomSeed is an exact unsigned 64-bit
// decimal.  `Threads = N` also picks the execution backend: 1 is serial,
// any other count (0 = all hardware threads) is the thread pool.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/problem_setup.hpp"
#include "core/simulation.hpp"

namespace enzo::core {

/// Collapse-cloud options (problems `CollapseCloud` / `IsothermalCollapse`):
/// an overdense parabolic sphere in a periodic box of proper size
/// box_proper_cm; code density 1 is the background density.
struct CollapseOptions {
  double box_proper_cm = 2.0 * 3.0857e18;  ///< deck key BoxSizeParsec
  double cloud_radius = 0.2;               ///< code units; CloudRadius
  double overdensity = 8.0;                ///< CloudOverdensity
  double mean_density_cgs = 1e-20;         ///< BackgroundDensityCGS
};

/// Cosmology-box options (problem `Cosmology`).
struct CosmologyOptions {
  std::uint64_t seed = 2001;  ///< deck key RandomSeed
  /// Nested static levels covering the central half-box (each level halves
  /// the covered region, like the paper's zoom-in region);
  /// NestedStaticLevels.
  int nested_static_levels = 0;
};

/// Zel'dovich pancake options (problem `ZeldovichPancake`).
struct PancakeOptions {
  double a_caustic_redshift = 1.0;  ///< deck key PancakeCausticRedshift
};

/// Sedov–Taylor blast options (problem `SedovBlast` / `SedovBlastSMR`):
/// energy deposited as thermal energy in a central sphere of the given
/// radius (code units) in an ambient medium with rho = 1, eint = 1e-4.
struct SedovOptions {
  double energy = 1.0;    ///< deck key SedovEnergy
  double radius = 0.08;   ///< deck key SedovDepositRadius
};

/// Everything a deck specifies: the simulation config, the problem, and the
/// per-problem options.
struct ParameterDeck {
  /// Problem-registry name (deck key ProblemType), e.g. "SodTube".
  std::string problem = "Uniform";
  SimulationConfig config;
  CollapseOptions collapse;
  CosmologyOptions cosmology;
  PancakeOptions pancake;
  SedovOptions sedov;
  double uniform_density = 1.0;
  double uniform_eint = 1.0;
  // Keys several problems read.  Unset means each problem's own default
  // (collapse: 400 K, x_e 1e-4, f_H2 5e-4; pancake: 100 K in a 64 Mpc box;
  // cosmology: x_e 2e-4, f_H2 2e-6 in a 128 kpc box).
  std::optional<double> comoving_box_mpc;     ///< ComovingBoxSizeMpc
  std::optional<double> initial_temperature;  ///< InitialTemperature [K]
  std::optional<double> initial_ionization;   ///< InitialIonizationFraction
  std::optional<double> initial_h2_fraction;  ///< InitialH2Fraction
  // Run control.
  double stop_time = -1.0;      ///< code units; <0 → use stop_steps only
  int stop_steps = 10;
  /// Checkpoint directory (periodic mode) or file path (end-of-run mode).
  std::string checkpoint_path;
  /// Root steps between automatic checkpoints; 0 → only one at end of run.
  int checkpoint_interval = 0;
  /// Rolling retention: keep the newest N snapshots in checkpoint_path.
  int checkpoint_keep = 3;
};

/// Parse a deck from a stream; throws enzo::Error with line numbers on
/// malformed input, unknown keys, or a ProblemType that is not registered.
ParameterDeck parse_parameter_deck(std::istream& in);

/// Convenience: parse from a file path.
ParameterDeck parse_parameter_file(const std::string& path);

/// The deck's problem as a composable ProblemSetup (problem-registry
/// dispatch on deck.problem).  The setup reads only the deck's problem
/// parameters; physics and hierarchy values come from the config of the
/// Simulation it initializes.
ProblemSetup deck_problem_setup(const ParameterDeck& deck);

/// Apply the deck's problem setup to a simulation (build_root + fields +
/// finalize).  The simulation may be built from any config, not only
/// deck.config.
void setup_from_deck(Simulation& sim, const ParameterDeck& deck);

/// Restart path: apply only the deck setup's configure hooks (units, physics
/// toggles, field list) so the config matches the original run; the state
/// itself then comes from io::read_checkpoint / restore_latest_checkpoint.
void configure_from_deck(Simulation& sim, const ParameterDeck& deck);

/// Render the effective deck back to text.  Exact inverse of the parser:
/// re-parsing the result reproduces the deck (round-trip float formatting;
/// keys whose text equals a default deck's are omitted, a fixed
/// always-emitted core set excepted).
std::string render_deck(const ParameterDeck& deck);

}  // namespace enzo::core
