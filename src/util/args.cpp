#include "util/args.h"

#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace fs::util {

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  options_[name] = Option{default_value, help};
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  flags_declared_.insert(name);
  options_["__flag_" + name] = Option{"", help};  // help bookkeeping only
}

void ArgParser::parse(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    if (flags_declared_.count(arg)) {
      if (has_value)
        throw std::invalid_argument("flag --" + arg + " takes no value");
      flags_set_.insert(arg);
      continue;
    }
    const auto it = options_.find(arg);
    if (it == options_.end())
      throw std::invalid_argument("unknown option --" + arg);
    if (!has_value) {
      if (i + 1 >= argc)
        throw std::invalid_argument("option --" + arg + " needs a value");
      value = argv[++i];
    }
    it->second.value = std::move(value);
  }
}

const std::string& ArgParser::get(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end())
    throw std::invalid_argument("undeclared option --" + name);
  return it->second.value;
}

long long ArgParser::get_int(const std::string& name) const {
  return parse_int(get(name));
}

long long ArgParser::get_int_in(const std::string& name, long long min,
                                long long max) const {
  const long long value = get_int(name);
  if (value < min || value > max)
    throw std::invalid_argument("option --" + name + " must be in [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "], got " +
                                std::to_string(value));
  return value;
}

double ArgParser::get_double(const std::string& name) const {
  return parse_double(get(name));
}

bool ArgParser::get_flag(const std::string& name) const {
  if (!flags_declared_.count(name))
    throw std::invalid_argument("undeclared flag --" + name);
  return flags_set_.count(name) > 0;
}

std::string ArgParser::help() const {
  std::ostringstream oss;
  for (const auto& [name, option] : options_) {
    if (starts_with(name, "__flag_")) {
      oss << "  --" << name.substr(7) << "\n      " << option.help << '\n';
    } else {
      oss << "  --" << name << " <value> (default: "
          << (option.value.empty() ? "none" : option.value) << ")\n      "
          << option.help << '\n';
    }
  }
  return oss.str();
}

}  // namespace fs::util
