#pragma once
// Tests initialize registered problems the way run_deck does: through a
// parameter deck and core::setup_from_deck.  The problem's initializer reads
// only the deck's problem parameters, so the Simulation may be built from
// any config.

#include <string>

#include "core/parameter_file.hpp"

namespace enzo::test {

/// A deck selecting the registered problem `name`, every problem parameter
/// at its default.
inline core::ParameterDeck problem_deck(const std::string& name) {
  core::ParameterDeck deck;
  deck.problem = name;
  return deck;
}

}  // namespace enzo::test
