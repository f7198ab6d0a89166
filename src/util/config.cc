#include "util/config.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/check.h"

namespace lncl::util {

Config::Config(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "1";
    }
  }
}

bool Config::Lookup(const std::string& key, std::string* value,
                    std::string* source) const {
  auto it = values_.find(key);
  if (it != values_.end()) {
    *value = it->second;
    if (source != nullptr) *source = "--" + key;
    return true;
  }
  std::string env_key = "LNCL_";
  for (char c : key) {
    env_key += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  if (const char* env = std::getenv(env_key.c_str())) {
    *value = env;
    if (source != nullptr) *source = env_key;
    return true;
  }
  return false;
}

namespace {

[[noreturn]] void FailMalformed(const std::string& source,
                                const std::string& value, const char* want) {
  CheckFailure(__FILE__, __LINE__, source.c_str(),
               "malformed value \"" + value + "\" (want " + want + ")");
}

// True when from_chars consumed the whole of `value` without error.
template <typename T>
bool ParseWhole(const std::string& value, T* out) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

bool Config::Has(const std::string& key) const {
  std::string unused;
  return Lookup(key, &unused, nullptr);
}

std::string Config::GetString(const std::string& key,
                              const std::string& default_value) const {
  std::string v;
  return Lookup(key, &v, nullptr) ? v : default_value;
}

int Config::GetInt(const std::string& key, int default_value) const {
  std::string v, source;
  if (!Lookup(key, &v, &source)) return default_value;
  int out = 0;
  if (!ParseWhole(v, &out)) FailMalformed(source, v, "a decimal int");
  return out;
}

double Config::GetDouble(const std::string& key, double default_value) const {
  std::string v, source;
  if (!Lookup(key, &v, &source)) return default_value;
  double out = 0.0;
  if (!ParseWhole(v, &out) || !std::isfinite(out)) {
    FailMalformed(source, v, "a finite number");
  }
  return out;
}

bool Config::GetBool(const std::string& key, bool default_value) const {
  std::string v, source;
  if (!Lookup(key, &v, &source)) return default_value;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  FailMalformed(source, v, "1/0, true/false, yes/no or on/off");
}

void Config::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

}  // namespace lncl::util
