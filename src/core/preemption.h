// The forcible-preemption model (paper §3.3, Equation 3).
//
// Early code profilers rejected latency as a metric because a multitasking
// OS can reschedule a process at an arbitrary point.  The paper shows that
// for typical workloads the probability of being *forcibly* preempted while
// inside a profiled request is negligible:
//
//     Pr(fp) = tcpu / tperiod * (1 - Y)^(Q / tperiod)              (Eq. 3)
//
// where tcpu is the request's CPU time, tperiod the average CPU time
// (user + system) between request arrivals, Y the probability that the
// process voluntarily yields during a request, and Q the scheduling
// quantum.  The model also predicts how many preempted requests a profile
// with a given bucket population should show: a request from bucket b has
// tcpu = 3/2 * 2^b, so the expected count of preempted requests is
// sum_b n_b * (3/2 * 2^b) / Q, and they surface near bucket log2(Q).

#ifndef OSPROF_SRC_CORE_PREEMPTION_H_
#define OSPROF_SRC_CORE_PREEMPTION_H_

#include <cstdint>

#include "src/core/clock.h"
#include "src/core/histogram.h"

namespace osprof {

struct PreemptionParams {
  double tcpu = 0.0;     // CPU time of the profiled request, cycles.
  double tperiod = 0.0;  // Average CPU time between requests, cycles.
  double yield_probability = 0.0;  // Y: chance of a voluntary yield.
  double quantum = 0.0;  // Q: scheduling quantum, cycles.
};

// Evaluates Equation 3.  Returns a probability in [0, 1].
double ForcedPreemptionProbability(const PreemptionParams& params);

// Expected number of forcibly preempted requests for a captured profile of
// a non-yielding workload (Y = 0): sum over buckets of
// n_b * BucketMid(b) / quantum.  This is the paper's "expected 388 +- 33%
// elements in the 26th bucket" computation for Figure 3.
double ExpectedPreemptedRequests(const Histogram& profile, double quantum);

// Equation 3 applied to the OS-noise workload: `tasks` CPU-bound tasks on
// `num_cpus` CPUs each record `samples` bursts of `burst` cycles.  Every
// sample sits in the burst's bucket, so the prediction is
// ExpectedPreemptedRequests over a histogram holding tasks * samples
// records there.  The preemption term assumes a waiting competitor (a
// quantum-expired task with an empty run queue is re-dispatched), so
// without CPU oversubscription the model predicts zero.  The check
// passes when the relative error is within `tolerance`; a
// default-constructed check (nothing predicted or measured) passes.
struct NoisePreemptionCheck {
  double predicted = 0.0;  // Expected forced preemptions.
  double measured = 0.0;   // Forced preemptions observed.
  // |measured - predicted| / predicted; 1 when preemptions were measured
  // where the model predicts none.
  double rel_err = 0.0;
  double tolerance = 0.0;
  bool pass() const { return rel_err <= tolerance; }
};
NoisePreemptionCheck CheckNoisePreemptions(int tasks, int num_cpus,
                                           std::uint64_t samples,
                                           Cycles burst, double quantum,
                                           double measured, double tolerance);

// The bucket where preempted requests surface: preemption adds a wait of
// roughly one quantum, so floor(log2(Q)).
int PreemptionBucket(double quantum, int resolution = 1);

}  // namespace osprof

#endif  // OSPROF_SRC_CORE_PREEMPTION_H_
