// Host-speed calibration for deckbench (see README.md, "Host speed").
//
// The benchmark shares its host with other tenants, and their load changes
// how fast the same instructions retire here by up to ~2x for minutes at a
// time (RECORD.json).  A fixed unit of reference work, timed beside the
// workload, measures the host's current speed; the benchmark's time metrics
// scale each measured time by kReferenceSeconds / (the reference work's time
// in the same repetition).  The reference work is benchmark code, fixed
// here, so a change to the engine never changes it.
#pragma once

#include <memory>

namespace deckbench {

/// The reference work's time on the host the benchmark was defined on
/// (RECORD.json "host"); a scaled time reads in that host's seconds.
inline constexpr double kReferenceSeconds = 0.004;

/// Fixed throughput-bound reference work: a 1-D finite-volume sweep
/// (pressure, sound speed, limited slopes, HLL fluxes, flux-difference
/// update) over L2-resident arrays, vectorized the way the engine's SoA
/// kernels are.  One instance per lane; buffers are made and touched once,
/// so a timing takes no page faults.
class Calibrator {
 public:
  explicit Calibrator(int lanes);
  ~Calibrator();
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// Seconds for one unit of reference work, run on every lane at once
  /// (one thread per lane); the mean over lanes.
  double sample();

 private:
  struct Lane;
  int lanes_;
  std::unique_ptr<Lane[]> lane_;
};

}  // namespace deckbench
