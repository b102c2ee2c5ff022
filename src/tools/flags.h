// Command-line flag helpers shared by the osprof_tool subcommands.

#ifndef OSPROF_SRC_TOOLS_FLAGS_H_
#define OSPROF_SRC_TOOLS_FLAGS_H_

#include <charconv>
#include <optional>
#include <ostream>
#include <string>
#include <system_error>

namespace ostools {

// Parses "--flag=value"; returns nullopt if arg doesn't start with prefix.
inline std::optional<std::string> FlagValue(const std::string& arg,
                                            const std::string& prefix) {
  if (arg.rfind(prefix, 0) != 0) {
    return std::nullopt;
  }
  return arg.substr(prefix.size());
}

// Parses the value of numeric flag `flag` into `*out`.  The whole value
// must be one base-10 number: "1x", "1.5" (for an integer) and "" are
// rejected.  On error, prints "osprof_tool <command>: bad <flag> value"
// to `err` and returns false.
template <typename T>
bool ParseNumberFlag(const std::string& value, const char* command,
                     const char* flag, T* out, std::ostream& err) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
  if (ec == std::errc() && ptr == end) {
    return true;
  }
  err << "osprof_tool " << command << ": bad " << flag << " value '" << value
      << "'\n";
  return false;
}

}  // namespace ostools

#endif  // OSPROF_SRC_TOOLS_FLAGS_H_
