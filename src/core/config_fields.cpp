// The FriendSeekerConfig field table (ConfigField in pipeline.h).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

#include "core/pipeline.h"
#include "util/args.h"
#include "util/strings.h"

namespace fs::core {

namespace {

// Integer members convert through long long; check() has made the value
// integral and in range.
template <typename M>
void assign(M& member, double value) {
  if constexpr (std::is_floating_point_v<M>)
    member = value;
  else
    member = static_cast<M>(static_cast<long long>(value));
}

// The get/put pair for one member.
#define FS_CONFIG_MEMBER(member)                                          \
  [](const FriendSeekerConfig& c) { return static_cast<double>(c.member); }, \
      [](FriendSeekerConfig& c, double v) { assign(c.member, v); }

std::string range_text(const ConfigField& field) {
  return (field.type == ConfigField::Type::kInt ? "an integer in ["
                                                : "a number in [") +
         field.format(field.lo) + ", " + field.format(field.hi) + "]";
}

[[noreturn]] void reject(const ConfigField& field, const std::string& got) {
  throw std::invalid_argument(std::string(field.name) + " must be " +
                              range_text(field) + ", got " + got);
}

}  // namespace

const std::vector<ConfigField>& config_fields() {
  using T = ConfigField::Type;
  static const std::vector<ConfigField> fields = {
      {"sigma", T::kInt, 1, 1e8,
       "max POIs per quadtree grid (the paper's sigma)",
       FS_CONFIG_MEMBER(sigma)},
      {"tau", T::kReal, 1e-3, 3650,
       "time-slot length in days (the paper's tau)",
       FS_CONFIG_MEMBER(tau_days)},
      {"dim", T::kInt, 1, 4096,
       "presence feature dimension (the paper's d)",
       FS_CONFIG_MEMBER(presence.feature_dim)},
      {"k", T::kInt, 2, 16, "k-hop reachable subgraph depth",
       FS_CONFIG_MEMBER(k)},
      {"max_iterations", T::kInt, 1, 1000,
       "cap on phase-2 refinement iterations",
       FS_CONFIG_MEMBER(max_iterations)},
      {"block_hops", T::kInt, 0, 16,
       "keep pairs within this many hops of the strong co-occurrence "
       "graph even without direct co-occurrence",
       FS_CONFIG_MEMBER(blocking.hop_expansion)},
      {"block_slot_tolerance", T::kInt, 0, 64,
       "time-slot tolerance for cell co-occurrence blocking",
       FS_CONFIG_MEMBER(blocking.slot_tolerance)},
  };
  return fields;
}

#undef FS_CONFIG_MEMBER

const ConfigField& config_field(const std::string& name) {
  std::string names;
  for (const ConfigField& field : config_fields()) {
    if (name == field.name) return field;
    names += (names.empty() ? "" : ", ") + std::string(field.name);
  }
  throw std::invalid_argument("unknown key '" + name + "'; the fields are {" +
                              names + "}");
}

std::string ConfigField::flag() const {
  std::string text = name;
  std::replace(text.begin(), text.end(), '_', '-');
  return text;
}

void ConfigField::check(double value) const {
  if (!(value >= lo && value <= hi) ||
      (type != Type::kReal && value != std::floor(value)))
    reject(*this, format(value));
}

double ConfigField::parse(const std::string& text) const {
  double value = NAN;
  try {
    value = type == Type::kInt ? static_cast<double>(util::parse_int(text))
                               : util::parse_double(text);
  } catch (const std::invalid_argument&) {
  }
  if (!(value >= lo && value <= hi)) reject(*this, "'" + text + "'");
  return value;
}

std::string ConfigField::format(double value) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);  // round-trips exactly
  return buf;
}

void ConfigField::set(FriendSeekerConfig& config, double value) const {
  check(value);
  put(config, value);
}

void validate_config(const FriendSeekerConfig& config) {
  for (const ConfigField& field : config_fields())
    field.check(field.get(config));
}

void add_config_flags(util::ArgParser& args,
                      const FriendSeekerConfig& defaults) {
  for (const ConfigField& field : config_fields())
    args.add_option(field.flag(), field.format(field.get(defaults)),
                    field.doc + ("; " + range_text(field)));
}

void apply_config_flags(const util::ArgParser& args,
                        FriendSeekerConfig& config) {
  for (const ConfigField& field : config_fields())
    if (args.given(field.flag()))
      field.set(config, field.parse(args.get(field.flag())));
}

}  // namespace fs::core
