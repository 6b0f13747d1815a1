#include "common/cli.hpp"

#include <cstdlib>
#include <sstream>

#include "common/check.hpp"
#include "common/strings.hpp"

namespace chainnn {

bool CliFlags::parse(int argc, const char* const* argv,
                     const std::map<std::string, std::string>& defaults,
                     std::string* error) {
  values_ = defaults;
  positional_.clear();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!strings::starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      const auto it = defaults.find(name);
      const bool is_bool_flag =
          it != defaults.end() && (it->second == "true" || it->second == "false");
      if (is_bool_flag) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        if (error) *error = "flag --" + name + " is missing a value";
        return false;
      }
    }
    if (defaults.find(name) == defaults.end()) {
      if (error) *error = "unknown flag --" + name;
      return false;
    }
    values_[name] = value;
  }
  return true;
}

std::string CliFlags::get_string(const std::string& name) const {
  const auto it = values_.find(name);
  CHAINNN_CHECK_MSG(it != values_.end(), "flag --" << name << " not declared");
  return it->second;
}

std::int64_t CliFlags::get_int(const std::string& name) const {
  return std::strtoll(get_string(name).c_str(), nullptr, 10);
}

double CliFlags::get_double(const std::string& name) const {
  return std::strtod(get_string(name).c_str(), nullptr);
}

bool CliFlags::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  return v == "true" || v == "1" || v == "yes";
}

std::string CliFlags::usage(
    const std::map<std::string, std::string>& defaults) {
  std::ostringstream os;
  os << "flags:\n";
  for (const auto& [name, def] : defaults)
    os << "  --" << name << "=" << def << "\n";
  return os.str();
}

const char* ExecModeSelection::name() const {
  if (compare) return "compare";
  if (none) return "none";
  return chain::exec_mode_name(mode);
}

bool parse_exec_mode_selection(const std::string& value, bool allow_compare,
                               bool allow_none, ExecModeSelection* out,
                               std::string* error) {
  ExecModeSelection sel;
  if (allow_compare && value == "compare") {
    sel.compare = true;
  } else if (allow_none && value == "none") {
    sel.none = true;
  } else if (!chain::parse_exec_mode(value, &sel.mode)) {
    if (error) {
      std::string valid = "analytical | cycle-accurate";
      if (allow_compare) valid += " | compare";
      if (allow_none) valid += " | none";
      *error = "unknown --exec-mode \"" + value + "\" (" + valid + ")";
    }
    return false;
  }
  *out = sel;
  return true;
}

}  // namespace chainnn
