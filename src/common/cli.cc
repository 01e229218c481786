#include "common/cli.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace privshape {

namespace {

/// The whitespace-trimmed view of `text` ("" when all-whitespace).
std::string Trimmed(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

/// The one spelling of a flag name: `-` and `_` are interchangeable.
std::string FlagKey(std::string name) {
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

Status MalformedFlag(const std::string& name, const std::string& text,
                     const char* expected) {
  return Status::InvalidArgument("--" + name + ": expected " + expected +
                                 ", got \"" + text + "\"");
}

}  // namespace

Result<int> ParseIntFlag(const std::string& name, const std::string& text) {
  std::string value = Trimmed(text);
  if (value.empty()) return MalformedFlag(name, text, "an integer");
  errno = 0;
  char* end = nullptr;
  long parsed = std::strtol(value.c_str(), &end, 10);
  if (end != value.c_str() + value.size()) {
    return MalformedFlag(name, text, "an integer");
  }
  if (errno == ERANGE || parsed < INT_MIN || parsed > INT_MAX) {
    return MalformedFlag(name, text, "an in-range integer");
  }
  return static_cast<int>(parsed);
}

Result<double> ParseDoubleFlag(const std::string& name,
                               const std::string& text) {
  std::string value = Trimmed(text);
  if (value.empty()) return MalformedFlag(name, text, "a number");
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size()) {
    return MalformedFlag(name, text, "a number");
  }
  // strtod also reads "nan" and "inf"; no flag takes them.
  if (errno == ERANGE || !std::isfinite(parsed)) {
    return MalformedFlag(name, text, "a finite, in-range number");
  }
  return parsed;
}

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      given_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    given_.push_back("--" + arg.substr(0, eq));
    if (eq != std::string::npos) {
      flags_[FlagKey(arg.substr(0, eq))] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[FlagKey(arg)] = argv[++i];
    } else {
      flags_[FlagKey(arg)] = "1";  // bare flag acts as boolean
    }
  }
}

bool CliArgs::Lookup(const std::string& name, std::string* out) const {
  std::string key = FlagKey(name);
  read_.insert(key);
  auto it = flags_.find(key);
  if (it != flags_.end()) {
    *out = it->second;
    return true;
  }
  std::string env_name = "PRIVSHAPE_" + key;
  std::transform(env_name.begin(), env_name.end(), env_name.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (const char* env = std::getenv(env_name.c_str())) {
    *out = env;
    return true;
  }
  return false;
}

int CliArgs::GetInt(const std::string& name, int def) const {
  auto parsed = GetIntStatus(name, def);
  return parsed.ok() ? *parsed : def;
}

double CliArgs::GetDouble(const std::string& name, double def) const {
  auto parsed = GetDoubleStatus(name, def);
  return parsed.ok() ? *parsed : def;
}

Result<int> CliArgs::GetIntStatus(const std::string& name, int def) const {
  std::string v;
  if (!Lookup(name, &v)) return def;
  return ParseIntFlag(name, v);
}

Result<double> CliArgs::GetDoubleStatus(const std::string& name,
                                        double def) const {
  std::string v;
  if (!Lookup(name, &v)) return def;
  return ParseDoubleFlag(name, v);
}

Result<size_t> CliArgs::GetCount(const std::string& name, int def) const {
  auto value = GetIntStatus(name, def);
  if (!value.ok()) return value.status();
  if (*value < 0) {
    return Status::InvalidArgument("--" + name + " must be >= 0");
  }
  return static_cast<size_t>(*value);
}

std::string CliArgs::GetString(const std::string& name,
                               const std::string& def) const {
  std::string v;
  return Lookup(name, &v) ? v : def;
}

bool CliArgs::Has(const std::string& name) const {
  std::string v;
  return Lookup(name, &v);
}

Status CliArgs::CheckAllRead() const {
  for (const std::string& arg : given_) {
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument \"" + arg + "\"");
    }
    if (read_.count(FlagKey(arg.substr(2))) == 0) {
      return Status::InvalidArgument("unknown flag " + arg);
    }
  }
  return Status::Ok();
}

size_t ThreadsFromArgs(const CliArgs& args, size_t def) {
  int threads = args.GetInt("threads", static_cast<int>(def));
  if (threads < 0) return def;
  return static_cast<size_t>(threads);
}

}  // namespace privshape
