// Host-speed calibration for deckbench; see calibrate.hpp.
#include "calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

namespace deckbench {

namespace {

constexpr int kCells = 8192;  ///< per lane: 12 arrays of 64 KiB fit in L2
constexpr int kPasses = 24;   ///< sweeps per unit of work (~4 ms)
constexpr double kGamma = 1.4;
constexpr double kDtDx = 1e-3;

}  // namespace

struct Calibrator::Lane {
  std::vector<double> d0, m0, e0;  ///< initial conserved state
  std::vector<double> d, m, e;     ///< evolving conserved state
  std::vector<double> u, p, c;     ///< primitives
  std::vector<double> fd, fm, fe;  ///< face fluxes
  double sink = 0.0;

  Lane()
      : d0(kCells), m0(kCells), e0(kCells), d(kCells), m(kCells),
        e(kCells), u(kCells), p(kCells), c(kCells), fd(kCells), fm(kCells),
        fe(kCells) {
    for (int i = 0; i < kCells; ++i) {
      const double x = 0.01 * i;
      d0[i] = 1.0 + 0.1 * std::sin(x);
      m0[i] = 0.05 * d0[i] * std::cos(x);
      e0[i] = 2.5 + 0.1 * std::cos(x);
    }
  }

  void work() {
    std::copy(d0.begin(), d0.end(), d.begin());
    std::copy(m0.begin(), m0.end(), m.begin());
    std::copy(e0.begin(), e0.end(), e.begin());
    double* __restrict dd = d.data();
    double* __restrict mm = m.data();
    double* __restrict ee = e.data();
    double* __restrict uu = u.data();
    double* __restrict pp = p.data();
    double* __restrict cc = c.data();
    double* __restrict gd = fd.data();
    double* __restrict gm = fm.data();
    double* __restrict ge = fe.data();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (int i = 0; i < kCells; ++i) {
        uu[i] = mm[i] / dd[i];
        pp[i] = (kGamma - 1.0) * (ee[i] - 0.5 * mm[i] * uu[i]);
        cc[i] = std::sqrt(kGamma * pp[i] / dd[i]);
      }
      // HLL flux through face i + 1/2.
      for (int i = 0; i < kCells - 1; ++i) {
        const double sl = std::fmin(uu[i] - cc[i], uu[i + 1] - cc[i + 1]);
        const double sr = std::fmax(uu[i] + cc[i], uu[i + 1] + cc[i + 1]);
        const double inv = 1.0 / (sr - sl);
        const double fdl = mm[i], fdr = mm[i + 1];
        const double fml = mm[i] * uu[i] + pp[i];
        const double fmr = mm[i + 1] * uu[i + 1] + pp[i + 1];
        const double fel = (ee[i] + pp[i]) * uu[i];
        const double fer = (ee[i + 1] + pp[i + 1]) * uu[i + 1];
        gd[i] = (sr * fdl - sl * fdr + sl * sr * (dd[i + 1] - dd[i])) * inv;
        gm[i] = (sr * fml - sl * fmr + sl * sr * (mm[i + 1] - mm[i])) * inv;
        ge[i] = (sr * fel - sl * fer + sl * sr * (ee[i + 1] - ee[i])) * inv;
      }
      for (int i = 1; i < kCells - 1; ++i) {
        dd[i] -= kDtDx * (gd[i] - gd[i - 1]);
        mm[i] -= kDtDx * (gm[i] - gm[i - 1]);
        ee[i] -= kDtDx * (ge[i] - ge[i - 1]);
      }
    }
    sink += dd[kCells / 2] + ee[kCells / 3];
  }

  double timed_work() {
    const auto t0 = std::chrono::steady_clock::now();
    work();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }
};

Calibrator::Calibrator(int lanes)
    : lanes_(std::max(lanes, 1)),
      lane_(std::make_unique<Lane[]>(static_cast<std::size_t>(lanes_))) {
  for (int l = 0; l < lanes_; ++l) lane_[l].work();  // touch every page
}

Calibrator::~Calibrator() = default;

double Calibrator::sample() {
  std::vector<double> t(static_cast<std::size_t>(lanes_), 0.0);
  std::vector<std::thread> others;
  for (int l = 1; l < lanes_; ++l)
    others.emplace_back([this, &t, l] { t[l] = lane_[l].timed_work(); });
  t[0] = lane_[0].timed_work();
  for (std::thread& th : others) th.join();
  double sum = 0.0;
  for (double v : t) sum += v;
  return sum / lanes_;
}

}  // namespace deckbench
