// The `osprof_tool run` subcommand: execute a named scenario once on the
// multi-trial runner (src/runner) and report every view of that one
// result -- merged profiles with cross-trial dispersion, the layered
// latency decomposition, lock-order cycles and SimRace data races.

#ifndef OSPROF_SRC_TOOLS_RUN_COMMAND_H_
#define OSPROF_SRC_TOOLS_RUN_COMMAND_H_

#include <ostream>
#include <string>
#include <vector>

namespace ostools {

// args are the tokens after "run":
//   run --list
//   run <scenario> [--trials=N] [--jobs=J] [--out=PREFIX]
// --out serializes each merged layer to PREFIX.<layer>.prof and the
// layered decomposition to PREFIX.layers.
// Returns the process exit code (0 ok, 1 usage, 2 runtime failure).
int RunRunCommand(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err);

}  // namespace ostools

#endif  // OSPROF_SRC_TOOLS_RUN_COMMAND_H_
