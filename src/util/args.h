// Minimal command-line option parser for the CLI tool and examples.
//
// Supports:  --name value | --name=value | --flag | positional arguments.
// Unknown options are an error (loudness over forgiveness).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace fs::util {

class ArgParser {
 public:
  /// Declares an option taking a value, with a default.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Declares a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv after the program name (and, by convention, after the
  /// subcommand). Throws std::invalid_argument on unknown/malformed input.
  void parse(int argc, const char* const* argv, int first = 1);

  const std::string& get(const std::string& name) const;
  long long get_int(const std::string& name) const;
  /// get_int, range-checked: throws std::invalid_argument naming the
  /// option when the value lies outside [min, max], so a caller may cast it
  /// to a narrower or unsigned type without wrapping.
  long long get_int_in(const std::string& name, long long min,
                       long long max) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// One line per declared option, for --help output.
  std::string help() const;

 private:
  struct Option {
    std::string value;
    std::string help;
  };
  std::map<std::string, Option> options_;
  std::set<std::string> flags_declared_;
  std::set<std::string> flags_set_;
  std::vector<std::string> positional_;
};

}  // namespace fs::util
