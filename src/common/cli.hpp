// Tiny command-line flag parser for the example binaries, plus the
// --exec-mode value parsing shared by the binaries that take that flag
// (vgg16_profile, design_space).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chain/config.hpp"

namespace chainnn {

class CliFlags {
 public:
  // Parses argv; `spec` maps flag name (without dashes) to a default value.
  // Returns false and fills `error` if an unknown flag or malformed value
  // was seen.
  bool parse(int argc, const char* const* argv,
             const std::map<std::string, std::string>& defaults,
             std::string* error);

  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  // Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  // Renders "--name=default" lines for a usage message.
  [[nodiscard]] static std::string usage(
      const std::map<std::string, std::string>& defaults);

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

// Result of parsing an --exec-mode flag value. Besides the two engines,
// binaries may accept "compare" (run both engines and cross-check) and
// "none" (skip execution); which of those are legal is per-binary.
struct ExecModeSelection {
  chain::ExecMode mode = chain::ExecMode::kAnalytical;
  bool compare = false;
  bool none = false;

  // "analytical" / "cycle-accurate" / "compare" / "none".
  [[nodiscard]] const char* name() const;
};

// Parses `value` ("analytical", "cycle-accurate"/"cycle", plus
// "compare" / "none" when allowed). On failure returns false and fills
// `error` with a message listing the values this binary accepts.
[[nodiscard]] bool parse_exec_mode_selection(const std::string& value,
                                             bool allow_compare,
                                             bool allow_none,
                                             ExecModeSelection* out,
                                             std::string* error);

}  // namespace chainnn
