#ifndef HDIDX_TOOLS_FLAGS_H_
#define HDIDX_TOOLS_FLAGS_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <set>
#include <string>

#include "common/parallel.h"

namespace hdidx::tools {

/// Minimal --flag=value / --flag value parser for the command-line tools.
///
/// Parsing is strict: when a known-flag list is supplied, unknown flags are
/// an error, and GetUint/GetDouble record an error for values that are not
/// entirely a valid number (instead of silently parsing "3x" as 3 or "abc"
/// as 0). Errors accumulate into error() — tools call ExitOnError() after
/// reading all their flags to fail fast with exit code 2; tests construct
/// Flags directly and inspect ok()/error().
class Flags {
 public:
  /// Accepts any flag names (no known-list validation).
  Flags(int argc, char** argv) { Parse(argc, argv); }

  /// Validates every provided flag against `known`; unknown flags are
  /// recorded as errors.
  Flags(int argc, char** argv, std::initializer_list<const char*> known) {
    Parse(argc, argv);
    const std::set<std::string> allowed(known.begin(), known.end());
    for (const auto& [name, unused] : values_) {
      if (allowed.count(name) == 0) {
        RecordError("unknown flag: --" + name);
      }
    }
  }

  /// True iff no parse or validation error has been recorded so far.
  bool ok() const { return error_.empty(); }

  /// The first recorded error ("" if none).
  const std::string& error() const { return error_; }

  /// Prints the first error to stderr and exits with code 2 if any error
  /// was recorded. Call after reading every flag, before doing real work.
  void ExitOnError(const char* usage = nullptr) const {
    if (ok()) return;
    std::fprintf(stderr, "error: %s\n", error_.c_str());
    if (usage != nullptr) std::fprintf(stderr, "%s", usage);
    std::exit(2);
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    const auto it = values_.find(name);
    return it != values_.end() ? it->second : fallback;
  }

  /// A value above `max` is an error too (for flags that land in a
  /// narrower type, such as a 16-bit port).
  uint64_t GetUint(const std::string& name, uint64_t fallback,
                   uint64_t max = UINT64_MAX) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    if (v.empty() || v[0] == '-') {
      RecordError("--" + name + " expects a non-negative integer, got '" + v +
                  "'");
      return fallback;
    }
    char* end = nullptr;
    errno = 0;
    const uint64_t parsed = std::strtoull(v.c_str(), &end, 10);
    if (end != v.c_str() + v.size() || errno != 0) {
      RecordError("--" + name + " expects a non-negative integer, got '" + v +
                  "'");
      return fallback;
    }
    if (parsed > max) {
      RecordError("--" + name + " must be at most " + std::to_string(max) +
                  ", got '" + v + "'");
      return fallback;
    }
    return parsed;
  }

  double GetDouble(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    char* end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (v.empty() || end != v.c_str() + v.size()) {
      RecordError("--" + name + " expects a number, got '" + v + "'");
      return fallback;
    }
    return parsed;
  }

  /// A bare flag or any value but "false"/"0" is true; an absent flag is
  /// `fallback`.
  bool GetBool(const std::string& name, bool fallback = false) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return it->second != "false" && it->second != "0";
  }

 private:
  void Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        RecordError("unexpected argument: " + arg);
        continue;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  void RecordError(std::string message) const {
    if (error_.empty()) error_ = std::move(message);
  }

  std::map<std::string, std::string> values_;
  // Get* are logically const reads; a malformed value discovered there is
  // still an input error worth recording, hence mutable.
  mutable std::string error_;
};

/// Applies the shared --threads flag: a positive value overrides the
/// HDIDX_THREADS / hardware-concurrency policy for this process, and a
/// malformed value or one above common::kMaxThreads exits with code 2. Call
/// before any library work so the shared pool is sized accordingly (results
/// are identical for every thread count either way — only wall-clock
/// changes).
inline void ApplyThreadsFlag(const Flags& flags) {
  const uint64_t threads = flags.GetUint("threads", 0, common::kMaxThreads);
  flags.ExitOnError();
  if (threads > 0) common::SetThreadCount(static_cast<size_t>(threads));
}

}  // namespace hdidx::tools

#endif  // HDIDX_TOOLS_FLAGS_H_
