#pragma once

#include <map>
#include <string>
#include <vector>

namespace lncl::util {

// Tiny command-line / environment configuration reader for the benchmark
// harness and examples.
//
// Accepted argv forms: `--key=value`, `--key value`, and bare `--flag`
// (treated as "1"). An environment variable `LNCL_<KEY>` (upper-cased key)
// provides a fallback, so e.g. `LNCL_FULL=1` switches benches to paper-scale
// sweeps without editing scripts.
//
// The typed getters parse the whole value: GetInt a decimal int in range,
// GetDouble a finite number, GetBool one of 1/0, true/false, yes/no, on/off.
// A value that does not parse aborts through CheckFailure naming its source
// (`--key` or `LNCL_<KEY>`) and the value, so a mistyped flag never runs a
// bench at a scale nobody asked for. A missing key returns the default.
class Config {
 public:
  Config() = default;
  Config(int argc, char** argv);

  bool Has(const std::string& key) const;

  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int GetInt(const std::string& key, int default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  void Set(const std::string& key, const std::string& value);

  // All unparsed positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  // Writes the raw value for key, checking argv first and the LNCL_<KEY>
  // environment variable second, and returns whether either had it. When
  // `source` is non-null it gets "--key" or "LNCL_<KEY>".
  bool Lookup(const std::string& key, std::string* value,
              std::string* source) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace lncl::util

