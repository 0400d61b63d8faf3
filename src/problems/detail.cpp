#include "problems/detail.hpp"

#include "chemistry/chemistry.hpp"
#include "util/annotations.hpp"
#include "util/constants.hpp"

namespace enzo::problems::detail {

namespace cn = constants;
using mesh::Field;

ENZO_UNITS_BOUNDARY double eint_code(double T, double mu, double gamma,
                                     const cosmology::CodeUnits& u) {
  const double e_cgs =
      T * cn::kBoltzmann / ((gamma - 1.0) * mu * cn::kHydrogenMass);
  return e_cgs / (u.velocity_cgs() * u.velocity_cgs());
}

core::ProblemSetup::SimHook uniform_fill(double rho, double eint) {
  return [rho, eint](core::Simulation& sim) {
    for (mesh::Grid* g : sim.hierarchy().grids(0)) {
      g->field(Field::kDensity).fill(rho);
      g->field(Field::kVelocityX).fill(0.0);
      g->field(Field::kVelocityY).fill(0.0);
      g->field(Field::kVelocityZ).fill(0.0);
      g->field(Field::kInternalEnergy).fill(eint);
      g->field(Field::kTotalEnergy).fill(eint);
      if (sim.config().enable_chemistry)
        chemistry::initialize_primordial_composition(
            *g, sim.config().chemistry, 1e-4, 1e-6);
    }
  };
}

}  // namespace enzo::problems::detail
