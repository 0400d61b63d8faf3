// Problem "Uniform": a uniform periodic medium.  The trivial smoke-test
// problem — and a real regression check: on a periodic uniform state every
// term in the update vanishes, so any drift of the density field away from
// exactly uniform is a solver bug, which is what the l1 callback measures.

#include <cmath>

#include "problems/detail.hpp"
#include "problems/registry.hpp"

namespace enzo::problems {

void register_uniform(Registry& r) {
  ProblemSpec s;
  s.name = "Uniform";
  s.description = "uniform periodic medium (smoke tests / trivial steady state)";
  s.make = [](const core::ParameterDeck& d) {
    core::ProblemSetup setup;
    setup.fill(detail::uniform_fill(d.uniform_density, d.uniform_eint));
    return setup;
  };
  s.l1_density_error = [](const core::Simulation& sim,
                          const core::ParameterDeck& d) {
    double l1 = 0.0;
    std::int64_t n = 0;
    detail::for_each_root_density(
        sim, [&](double, double, double, double rho) {
          l1 += std::abs(rho - d.uniform_density);
          ++n;
        });
    return l1 / static_cast<double>(n);
  };
  s.smoke_deck =
      "TopGridDimensions = 8 8 8\n"
      "StopSteps = 2\n";
  r.add(std::move(s));
}

}  // namespace enzo::problems
