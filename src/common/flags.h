#ifndef FEDREC_COMMON_FLAGS_H_
#define FEDREC_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

/// \file
/// Tiny command-line flag parser used by the bench binaries and examples.
/// Accepts `--name=value`, `--name value` and bare boolean `--name`.

namespace fedrec {

/// Parsed command line: flags plus positional arguments.
class FlagParser {
 public:
  FlagParser() = default;

  /// Parses argv. Returns InvalidArgument on malformed input (e.g., a value
  /// flag at the end of the line with no value).
  [[nodiscard]] Status Parse(int argc, const char* const* argv);

  /// True when --name was present (with or without value).
  bool Has(const std::string& name) const;

  /// String flag with fallback.
  std::string GetString(const std::string& name, const std::string& fallback) const;

  /// Integer flag with fallback; aborts on malformed numbers (a CLI typo is
  /// caught immediately instead of silently using the fallback).
  long long GetInt(const std::string& name, long long fallback) const;

  /// Double flag with fallback.
  double GetDouble(const std::string& name, double fallback) const;

  /// Boolean flag: `--x`, `--x=true/false/1/0/yes/no`. Fallback when absent.
  bool GetBool(const std::string& name, bool fallback) const;

  /// Comma-separated list of doubles, e.g. `--rho=0.01,0.05,0.1`.
  std::vector<double> GetDoubleList(const std::string& name,
                                    const std::vector<double>& fallback) const;

  /// The parsed flags whose names are not in `known`, in name order: a
  /// program that lists the flags it reads can reject a mistyped one
  /// before it runs instead of silently using the defaults.
  std::vector<std::string> UnknownFlags(
      const std::vector<std::string>& known) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]) if parsed.
  const std::string& program_name() const { return program_name_; }

 private:
  std::string program_name_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace fedrec

#endif  // FEDREC_COMMON_FLAGS_H_
