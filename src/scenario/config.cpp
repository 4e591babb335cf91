#include "scenario/config.h"

#include <cstdio>
#include <limits>
#include <sstream>

#include "core/pipeline.h"
#include "eval/digest.h"
#include "par/pool.h"
#include "scenario/options.h"
#include "util/error.h"

namespace fs::scenario {

namespace json = obs::json;

namespace {

std::string fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

DefenseMechanism mechanism_from(const std::string& name) {
  if (name == "none") return DefenseMechanism::kNone;
  if (name == "hiding") return DefenseMechanism::kHiding;
  if (name == "blur-in") return DefenseMechanism::kBlurIn;
  if (name == "blur-cross") return DefenseMechanism::kBlurCross;
  return DefenseMechanism::kFriendGuard;
}

WorldSpec parse_world(const json::Value& node, const std::string& context) {
  OptionReader reader(node, context);
  WorldSpec spec;
  spec.preset = reader.get_enum("preset", "tiny",
                                {"tiny", "gowalla", "brightkite"});
  spec.label = reader.get_string("label", "");
  spec.users = static_cast<std::size_t>(
      reader.get_int("users", 0, 0, 1'000'000));
  spec.pois =
      static_cast<std::size_t>(reader.get_int("pois", 0, 0, 10'000'000));
  spec.weeks = static_cast<int>(reader.get_int("weeks", 0, 0, 520));
  spec.seed_offset = static_cast<std::uint64_t>(
      reader.get_int("seed_offset", 0, 0, 1'000'000'000));
  spec.cyber_fraction = reader.get_number("cyber_fraction", -1.0, -1.0, 1.0);
  reader.finish();
  return spec;
}

DefenseSpec parse_defense(const json::Value& node,
                          const std::string& context) {
  OptionReader reader(node, context);
  DefenseSpec spec;
  spec.mechanism = mechanism_from(reader.get_enum(
      "mechanism", "none",
      {"none", "hiding", "blur-in", "blur-cross", "friendguard"}));
  spec.label = reader.get_string("label", "");
  spec.rate = reader.get_number("rate", 0.0, 0.0, 1.0);
  spec.grid_sigma = static_cast<std::size_t>(
      reader.get_int("grid_sigma", 120, 1, 100'000));
  reader.finish();
  return spec;
}

AttackSpec parse_attack(const json::Value& node, const std::string& context) {
  OptionReader reader(node, context);
  AttackSpec spec;
  spec.label = reader.get_string("label", "");
  spec.threads = static_cast<std::size_t>(reader.get_int(
      "threads", 0, 0, static_cast<long long>(par::kMaxThreads)));
  reader.finish();
  return spec;
}

/// Each key but "label" names a core::config_fields() row and carries a
/// number in the row's range.
ModelSpec parse_model(const json::Value& node, const std::string& context) {
  OptionReader reader(node, context);
  ModelSpec spec;
  spec.label = reader.get_string("label", "");
  for (const auto& [key, value] : node.as_object()) {
    if (key == "label") continue;
    try {
      const core::ConfigField& field = core::config_field(key);
      if (!value.is_number()) reader.fail("'" + key + "' must be a number");
      field.check(value.as_number());
      spec.overrides[key] = value.as_number();
    } catch (const std::invalid_argument& e) {
      reader.fail(e.what());
    }
  }
  return spec;
}

DynamicsSpec parse_dynamics(const json::Value& node,
                            const std::string& context) {
  OptionReader reader(node, context);
  DynamicsSpec spec;
  spec.label = reader.get_string("label", "");
  spec.drift = reader.get_number("drift", 0.0, 0.0, 1.0);
  reader.finish();
  return spec;
}

ToleranceBands parse_tolerance(const json::Value& node,
                               const std::string& context) {
  OptionReader reader(node, context);
  ToleranceBands bands;
  bands.f1 = reader.get_number("f1", bands.f1, 0.0, 1.0);
  bands.precision = reader.get_number("precision", bands.precision, 0.0, 1.0);
  bands.recall = reader.get_number("recall", bands.recall, 0.0, 1.0);
  bands.auc = reader.get_number("auc", bands.auc, 0.0, 1.0);
  bands.precision_at_k =
      reader.get_number("precision_at_k", bands.precision_at_k, 0.0, 1.0);
  reader.finish();
  return bands;
}

/// Parses one axis array into specs; a missing axis becomes {Spec{}}.
template <typename Spec, typename ParseFn>
std::vector<Spec> parse_axis(OptionReader& axes, const std::string& name,
                             ParseFn parse_fn) {
  std::vector<Spec> specs;
  const json::Array* raw = axes.get_array(name);
  if (raw == nullptr) {
    specs.push_back(Spec{});
    return specs;
  }
  if (raw->empty())
    axes.fail("axis '" + name + "' must have at least one element");
  for (std::size_t i = 0; i < raw->size(); ++i) {
    std::ostringstream context;
    context << name << " axis element " << i;
    specs.push_back(parse_fn((*raw)[i], context.str()));
  }
  return specs;
}

json::Value world_to_json(const WorldSpec& spec) {
  json::Object o;
  o["preset"] = spec.preset;
  o["label"] = world_label(spec);
  o["users"] = spec.users;
  o["pois"] = spec.pois;
  o["weeks"] = spec.weeks;
  o["seed_offset"] = spec.seed_offset;
  o["cyber_fraction"] = spec.cyber_fraction;
  return json::Value(std::move(o));
}

json::Value defense_to_json(const DefenseSpec& spec) {
  json::Object o;
  o["mechanism"] = mechanism_name(spec.mechanism);
  o["label"] = defense_label(spec);
  o["rate"] = spec.rate;
  o["grid_sigma"] = spec.grid_sigma;
  return json::Value(std::move(o));
}

json::Value attack_to_json(const AttackSpec& spec) {
  json::Object o;
  o["label"] = attack_label(spec);
  o["threads"] = spec.threads;
  return json::Value(std::move(o));
}

json::Value model_to_json(const ModelSpec& spec) {
  json::Object o;
  o["label"] = model_label(spec);
  for (const auto& [name, value] : spec.overrides) o[name] = value;
  return json::Value(std::move(o));
}

json::Value dynamics_to_json(const DynamicsSpec& spec) {
  json::Object o;
  o["label"] = dynamics_label(spec);
  o["drift"] = spec.drift;
  return json::Value(std::move(o));
}

}  // namespace

std::string mechanism_name(DefenseMechanism mechanism) {
  switch (mechanism) {
    case DefenseMechanism::kNone: return "none";
    case DefenseMechanism::kHiding: return "hiding";
    case DefenseMechanism::kBlurIn: return "blur-in";
    case DefenseMechanism::kBlurCross: return "blur-cross";
    case DefenseMechanism::kFriendGuard: return "friendguard";
  }
  return "none";
}

std::string world_label(const WorldSpec& spec) {
  if (!spec.label.empty()) return spec.label;
  std::vector<std::string> mods;
  if (spec.users != 0) mods.push_back("u" + std::to_string(spec.users));
  if (spec.pois != 0) mods.push_back("p" + std::to_string(spec.pois));
  if (spec.weeks != 0) mods.push_back("w" + std::to_string(spec.weeks));
  if (spec.seed_offset != 0)
    mods.push_back("s" + std::to_string(spec.seed_offset));
  if (spec.cyber_fraction >= 0.0)
    mods.push_back("cy" + fmt2(spec.cyber_fraction));
  if (mods.empty()) return spec.preset;
  std::string label = spec.preset + "[";
  for (std::size_t i = 0; i < mods.size(); ++i)
    label += (i ? "," : "") + mods[i];
  return label + "]";
}

std::string defense_label(const DefenseSpec& spec) {
  if (!spec.label.empty()) return spec.label;
  if (spec.mechanism == DefenseMechanism::kNone) return "none";
  std::string label = mechanism_name(spec.mechanism) + ":" + fmt2(spec.rate);
  if ((spec.mechanism == DefenseMechanism::kBlurIn ||
       spec.mechanism == DefenseMechanism::kBlurCross ||
       spec.mechanism == DefenseMechanism::kFriendGuard) &&
      spec.grid_sigma != 120)
    label += "@g" + std::to_string(spec.grid_sigma);
  return label;
}

std::string attack_label(const AttackSpec& spec) {
  if (!spec.label.empty()) return spec.label;
  return "thr:" + std::to_string(spec.threads);
}

std::string model_label(const ModelSpec& spec) {
  if (!spec.label.empty()) return spec.label;
  std::string label;
  for (const auto& [name, value] : spec.overrides)
    label += (label.empty() ? "" : ",") + name + ":" +
             core::config_field(name).format(value);
  return label.empty() ? "preset" : label;
}

std::string dynamics_label(const DynamicsSpec& spec) {
  if (!spec.label.empty()) return spec.label;
  return "drift:" + fmt2(spec.drift);
}

ScenarioConfig parse_scenario_config(const json::Value& doc) {
  OptionReader top(doc, "top level");
  const std::string schema = top.get_string("schema", kConfigSchema);
  if (schema != kConfigSchema)
    top.fail("'schema' must be '" + std::string(kConfigSchema) + "', got '" +
             schema + "'");
  const long long version =
      top.get_int("schema_version", kConfigSchemaVersion, 1, 1'000'000);
  if (version != kConfigSchemaVersion)
    top.fail("'schema_version' must be " +
             std::to_string(kConfigSchemaVersion) + ", got " +
             std::to_string(version));

  ScenarioConfig config;
  config.name = top.get_string("name", config.name);
  config.seed = static_cast<std::uint64_t>(
      top.get_int("seed", static_cast<long long>(config.seed), 0,
                  std::numeric_limits<long long>::max()));

  const json::Value* axes_node = top.get_object("axes");
  if (axes_node != nullptr) {
    OptionReader axes(*axes_node, "axes");
    config.worlds = parse_axis<WorldSpec>(axes, "world", parse_world);
    config.defenses = parse_axis<DefenseSpec>(axes, "defense", parse_defense);
    config.attacks = parse_axis<AttackSpec>(axes, "attack", parse_attack);
    config.models = parse_axis<ModelSpec>(axes, "model", parse_model);
    config.dynamics =
        parse_axis<DynamicsSpec>(axes, "dynamics", parse_dynamics);
    axes.finish();
  } else {
    config.worlds.push_back(WorldSpec{});
    config.defenses.push_back(DefenseSpec{});
    config.attacks.push_back(AttackSpec{});
    config.models.push_back(ModelSpec{});
    config.dynamics.push_back(DynamicsSpec{});
  }

  const json::Value* tolerance_node = top.get_object("tolerance");
  if (tolerance_node != nullptr)
    config.tolerance = parse_tolerance(*tolerance_node, "tolerance");
  top.finish();
  return config;
}

ScenarioConfig parse_scenario_config_text(const std::string& text) {
  return parse_scenario_config(json::parse(text));
}

json::Value scenario_config_to_json(const ScenarioConfig& config) {
  json::Object axes;
  json::Array worlds, defenses, attacks, models, dynamics;
  for (const WorldSpec& spec : config.worlds)
    worlds.push_back(world_to_json(spec));
  for (const DefenseSpec& spec : config.defenses)
    defenses.push_back(defense_to_json(spec));
  for (const AttackSpec& spec : config.attacks)
    attacks.push_back(attack_to_json(spec));
  for (const ModelSpec& spec : config.models)
    models.push_back(model_to_json(spec));
  for (const DynamicsSpec& spec : config.dynamics)
    dynamics.push_back(dynamics_to_json(spec));
  axes["world"] = std::move(worlds);
  axes["defense"] = std::move(defenses);
  axes["attack"] = std::move(attacks);
  axes["model"] = std::move(models);
  axes["dynamics"] = std::move(dynamics);

  json::Object tolerance;
  tolerance["f1"] = config.tolerance.f1;
  tolerance["precision"] = config.tolerance.precision;
  tolerance["recall"] = config.tolerance.recall;
  tolerance["auc"] = config.tolerance.auc;
  tolerance["precision_at_k"] = config.tolerance.precision_at_k;

  json::Object doc;
  doc["schema"] = kConfigSchema;
  doc["schema_version"] = kConfigSchemaVersion;
  doc["name"] = config.name;
  doc["seed"] = config.seed;
  doc["axes"] = json::Value(std::move(axes));
  doc["tolerance"] = json::Value(std::move(tolerance));
  return json::Value(std::move(doc));
}

std::vector<ScenarioCell> expand_grid(const ScenarioConfig& config) {
  std::vector<ScenarioCell> cells;
  cells.reserve(config.worlds.size() * config.defenses.size() *
                config.attacks.size() * config.models.size() *
                config.dynamics.size());
  for (const WorldSpec& world : config.worlds)
    for (const DefenseSpec& defense : config.defenses)
      for (const AttackSpec& attack : config.attacks)
        for (const ModelSpec& model : config.models)
          for (const DynamicsSpec& dyn : config.dynamics) {
            ScenarioCell cell;
            cell.index = cells.size();
            cell.world = world;
            cell.defense = defense;
            cell.attack = attack;
            cell.model = model;
            cell.dynamics = dyn;
            cell.id = world_label(world) + " / " + defense_label(defense) +
                      " / " + attack_label(attack) + " / " +
                      model_label(model) + " / " + dynamics_label(dyn);
            cells.push_back(std::move(cell));
          }
  return cells;
}

std::string config_fingerprint(const ScenarioConfig& config) {
  return eval::text_digest(scenario_config_to_json(config).dump(0));
}

std::string cell_fingerprint(const ScenarioConfig& config,
                             const ScenarioCell& cell) {
  json::Object o;
  o["seed"] = config.seed;
  o["world"] = world_to_json(cell.world);
  o["defense"] = defense_to_json(cell.defense);
  o["attack"] = attack_to_json(cell.attack);
  o["model"] = model_to_json(cell.model);
  o["dynamics"] = dynamics_to_json(cell.dynamics);
  return eval::text_digest(json::Value(std::move(o)).dump(0));
}

}  // namespace fs::scenario
