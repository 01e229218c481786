#ifndef PRIVSHAPE_COMMON_CLI_H_
#define PRIVSHAPE_COMMON_CLI_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace privshape {

/// Strict flag-value parsers: the whole (whitespace-trimmed) text must be
/// one in-range number. Trailing junk ("12abc"), empty strings, and
/// overflow all return InvalidArgument instead of a partial value or an
/// uncaught std::stoi exception — a malformed PRIVSHAPE_THREADS must never
/// abort the process. `name` labels the flag in the error message.
Result<int> ParseIntFlag(const std::string& name, const std::string& text);
Result<double> ParseDoubleFlag(const std::string& name,
                               const std::string& text);

/// Tiny flag parser for the bench/example binaries.
///
/// Accepts `--name=value` and `--name value`. Unrecognized positional
/// arguments are ignored unless the binary calls CheckAllRead, which
/// refuses them along with every flag no lookup read. `-` and `_` are
/// one character in flag names (`--min-clients` is `--min_clients`; the
/// later spelling wins). For every lookup, an environment variable
/// PRIVSHAPE_<NAME> (upper-cased, `-` spelled `_`, e.g.
/// PRIVSHAPE_MIN_CLIENTS) acts as fallback before the default, so the
/// whole harness can be scaled with e.g. PRIVSHAPE_TRIALS=50.
class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  /// Returns the flag (or env var) value as int/double/string, else `def`.
  /// Numeric lookups parse strictly (ParseIntFlag/ParseDoubleFlag) and fall
  /// back to `def` on malformed values; use the GetIntStatus/GetDoubleStatus
  /// forms where a malformed value should be reported instead of masked.
  int GetInt(const std::string& name, int def) const;
  double GetDouble(const std::string& name, double def) const;

  /// Like GetInt/GetDouble, but a present-yet-malformed value is an
  /// InvalidArgument error rather than a silent fallback. A missing flag
  /// still yields `def`.
  Result<int> GetIntStatus(const std::string& name, int def) const;
  Result<double> GetDoubleStatus(const std::string& name, double def) const;
  /// A non-negative count, parsed strictly: a malformed or negative value
  /// is an InvalidArgument naming the flag, never a silent fallback or a
  /// wrap through size_t to ~2^64.
  Result<size_t> GetCount(const std::string& name, int def) const;
  std::string GetString(const std::string& name,
                        const std::string& def) const;
  bool Has(const std::string& name) const;
  /// A boolean flag: false when absent, true when given bare (`--check`).
  /// Any other value is an InvalidArgument naming the flag, so a bare
  /// flag that swallowed the next argument (`--check stray`) stops the
  /// binary instead of dropping that argument.
  Result<bool> GetBool(const std::string& name) const;

  /// InvalidArgument naming the first command-line flag, or stray
  /// positional argument, that no lookup above has read: a misspelt flag
  /// (`--user 300`) or one the binary does not take (`--help`) then fails
  /// instead of running on defaults. Environment fallbacks are not
  /// checked. Call it after the binary's last lookup, before any work.
  Status CheckAllRead() const;

 private:
  /// Flag value, or env fallback, or empty optional semantics via bool.
  /// Records `name` as read either way.
  bool Lookup(const std::string& name, std::string* out) const;

  std::map<std::string, std::string> flags_;
  /// The command line without its values: each flag as spelt
  /// (`--name`) and each stray positional argument, in order.
  std::vector<std::string> given_;
  /// Flag keys some lookup asked for. Recording them makes the const
  /// lookups unsafe to call from two threads at once.
  mutable std::set<std::string> read_;
};

/// The lenient `--threads` flag (env PRIVSHAPE_THREADS) of the bench and
/// example binaries: their worker count. `0` (the default) means
/// "hardware concurrency", matching ThreadPool's convention; negative or
/// malformed values fall back to `def`. privshape_collector reads the
/// same flag strictly, through GetCount, like its other counts.
size_t ThreadsFromArgs(const CliArgs& args, size_t def = 0);

}  // namespace privshape

#endif  // PRIVSHAPE_COMMON_CLI_H_
