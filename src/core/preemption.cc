#include "src/core/preemption.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace osprof {

double ForcedPreemptionProbability(const PreemptionParams& params) {
  if (params.tperiod <= 0.0 || params.quantum <= 0.0) {
    throw std::invalid_argument("tperiod and quantum must be positive");
  }
  if (params.yield_probability < 0.0 || params.yield_probability > 1.0) {
    throw std::invalid_argument("yield probability must be in [0, 1]");
  }
  const double busy_fraction = params.tcpu / params.tperiod;
  const double exponent = params.quantum / params.tperiod;
  const double no_yield =
      std::pow(1.0 - params.yield_probability, exponent);
  const double pr = busy_fraction * no_yield;
  return std::min(1.0, std::max(0.0, pr));
}

double ExpectedPreemptedRequests(const Histogram& profile, double quantum) {
  if (quantum <= 0.0) {
    throw std::invalid_argument("quantum must be positive");
  }
  double expected = 0.0;
  for (int b = 0; b < profile.num_buckets(); ++b) {
    const std::uint64_t n = profile.bucket(b);
    if (n != 0) {
      expected += static_cast<double>(n) *
                  BucketMidLatency(b, profile.resolution()) / quantum;
    }
  }
  return expected;
}

NoisePreemptionCheck CheckNoisePreemptions(int tasks, int num_cpus,
                                           std::uint64_t samples,
                                           Cycles burst, double quantum,
                                           double measured,
                                           double tolerance) {
  NoisePreemptionCheck check;
  check.measured = measured;
  check.tolerance = tolerance;
  if (tasks > num_cpus) {
    Histogram profile;
    profile.set_bucket(BucketIndex(burst),
                       static_cast<std::uint64_t>(tasks) * samples);
    check.predicted = ExpectedPreemptedRequests(profile, quantum);
  }
  if (check.predicted > 0.0) {
    check.rel_err = std::abs(measured - check.predicted) / check.predicted;
  } else if (measured > 0.0) {
    check.rel_err = 1.0;
  }
  return check;
}

int PreemptionBucket(double quantum, int resolution) {
  return BucketIndex(static_cast<Cycles>(quantum), resolution);
}

}  // namespace osprof
