// The `osprof_tool run` subcommand: execute a named scenario once on the
// multi-trial runner (src/runner) and report every view of that one
// result -- merged profiles with cross-trial dispersion, the layered
// latency decomposition, lock-order cycles and SimRace data races.
//
// With --baseline it is also the profile-regression gate.  The paper's
// automated analysis tool (§3.2, §5.3) compares complete profile sets and
// flags meaningful differences; the gate applies it to the run's merged
// per-layer profiles and committed goldens with all four §5.3 raters
// (EMD, Chi-square, total-ops, total-latency) at their default
// thresholds.  It also requires the layered decomposition to match
// exactly, no deadlock-capable lock cycle, the expected SimRace outcome
// and, for noise scenarios, the Equation 3 prediction.  Scenario runs are
// deterministic for a fixed (scenario, trials) pair, so a clean gate
// scores every rater at distance 0.

#ifndef OSPROF_SRC_TOOLS_RUN_COMMAND_H_
#define OSPROF_SRC_TOOLS_RUN_COMMAND_H_

#include <ostream>
#include <string>
#include <vector>

namespace ostools {

// args are the tokens after "run":
//   run --list
//   run <scenario> [--trials=N] [--jobs=J] [--out=PREFIX]
//                  [--baseline=PREFIX] [--json=FILE]
// --out serializes each merged layer to PREFIX.<layer>.prof and the
// layered decomposition to PREFIX.layers.  --baseline reads the same
// files under its PREFIX (before --out writes anything) and gates the
// run against them; --json writes that verdict as osprof-gate-v1.
// Exit codes:
//   0  ok (and, with --baseline, every check passed)
//   1  usage error or unknown scenario
//   2  runtime failure, unwritable output, or missing/corrupt baseline
//   3  regression: --baseline and at least one check failed
int RunRunCommand(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err);

}  // namespace ostools

#endif  // OSPROF_SRC_TOOLS_RUN_COMMAND_H_
