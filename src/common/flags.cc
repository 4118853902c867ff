#include "common/flags.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"

namespace fedrec {

Status FlagParser::Parse(int argc, const char* const* argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (arg.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      continue;
    }
    // `--name value` when the next token is not itself a flag; else boolean.
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(arg)] = "";
    }
  }
  return Status::OK();
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::vector<std::string> FlagParser::UnknownFlags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      unknown.push_back(name);
    }
  }
  return unknown;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

long long FlagParser::GetInt(const std::string& name, long long fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  Result<long long> parsed = ParseInt(it->second);
  FEDREC_CHECK(parsed.ok()) << "flag --" << name << ": " << parsed.status().ToString();
  return parsed.value();
}

double FlagParser::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  Result<double> parsed = ParseDouble(it->second);
  FEDREC_CHECK(parsed.ok()) << "flag --" << name << ": " << parsed.status().ToString();
  return parsed.value();
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string lowered = ToLower(it->second);
  if (lowered.empty() || lowered == "true" || lowered == "1" || lowered == "yes") {
    return true;
  }
  if (lowered == "false" || lowered == "0" || lowered == "no") {
    return false;
  }
  FEDREC_CHECK(false) << "flag --" << name << ": not a boolean: '" << it->second << "'";
  return fallback;
}

std::vector<double> FlagParser::GetDoubleList(
    const std::string& name, const std::vector<double>& fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<double> out;
  for (std::string_view piece : SplitString(it->second, ',')) {
    Result<double> parsed = ParseDouble(piece);
    FEDREC_CHECK(parsed.ok()) << "flag --" << name << ": " << parsed.status().ToString();
    out.push_back(parsed.value());
  }
  return out;
}

}  // namespace fedrec
