// Declarative scenario configuration: the attack x defense x world matrix.
//
// A scenario config is one JSON document declaring up to five axes (world,
// defense, attack, model, dynamics); the runner executes the full
// cross-product. Every axis element is a small typed spec parsed through
// OptionReader, so unknown keys and out-of-range values are rejected with
// fs::ParseError before anything runs. A missing axis defaults to a single
// identity element, so "grid" degenerates gracefully to a single cell.
//
// Grid expansion order is fixed (world-major, then defense, attack, model,
// dynamics innermost) and cell ids are derived from axis labels, so the
// same config always produces the same cells in the same order — the
// property scenario_diff and the golden matrix slice pin.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace fs::scenario {

/// Which synthetic world a cell runs against. `preset` names an
/// eval::bench_preset; the override fields shrink or reshape it (0 / -1 =
/// keep the preset's value) so CI slices can run on sub-second worlds.
struct WorldSpec {
  std::string preset = "tiny";  // tiny | gowalla | brightkite
  std::string label;            // derived from preset+overrides when empty
  std::size_t users = 0;        // 0 = preset default
  std::size_t pois = 0;         // 0 = preset default
  int weeks = 0;                // 0 = preset default
  std::uint64_t seed_offset = 0;
  double cyber_fraction = -1.0;  // cyber edges / all edges; -1 = preset
};

enum class DefenseMechanism { kNone, kHiding, kBlurIn, kBlurCross,
                              kFriendGuard };

/// One point on the defense axis. `rate` is the perturbation budget
/// (hidden/blurred fraction; FriendGuard's budget). The blur mechanisms
/// build the DEFENDER's own quadtree at `grid_sigma` — deliberately
/// independent of the attacker's division sigma.
struct DefenseSpec {
  DefenseMechanism mechanism = DefenseMechanism::kNone;
  std::string label;
  double rate = 0.0;
  std::size_t grid_sigma = 120;
};

/// Attack-execution variant: the thread count (0 = inherit the runner's
/// ambient thread setting).
struct AttackSpec {
  std::string label;
  std::size_t threads = 0;
};

/// Model hyper-parameter overrides, keyed by core::config_fields() name. A
/// name that is absent keeps the world preset's value.
struct ModelSpec {
  std::string label;
  std::map<std::string, double> overrides;
};

/// Temporal dynamics: fraction of friendships whose shared evidence is
/// active in only half the observation window (forming / dissolving ties).
struct DynamicsSpec {
  std::string label;
  double drift = 0.0;
};

/// Per-metric tolerance bands used by scenario_diff: |base - current| above
/// the band fails the diff. Defaults absorb seed-free nondeterminism
/// sources (toolchain FP differences) while catching real quality drift.
struct ToleranceBands {
  double f1 = 0.08;
  double precision = 0.10;
  double recall = 0.10;
  double auc = 0.08;
  double precision_at_k = 0.12;
};

struct ScenarioConfig {
  std::string name = "scenario";
  std::uint64_t seed = 7;
  std::vector<WorldSpec> worlds;
  std::vector<DefenseSpec> defenses;
  std::vector<AttackSpec> attacks;
  std::vector<ModelSpec> models;
  std::vector<DynamicsSpec> dynamics;
  ToleranceBands tolerance;
};

/// One cell of the expanded grid: a full coordinate plus its derived id.
struct ScenarioCell {
  std::size_t index = 0;
  WorldSpec world;
  DefenseSpec defense;
  AttackSpec attack;
  ModelSpec model;
  DynamicsSpec dynamics;
  std::string id;  // "world / defense / attack / model / dynamics" labels
};

/// The schema tag + version every scenario config carries.
inline constexpr const char* kConfigSchema = "fs-scenario-config";
inline constexpr int kConfigSchemaVersion = 2;

/// Parses and validates a scenario config document. Unknown keys,
/// type mismatches, out-of-range values, wrong schema tags and empty axes
/// all throw fs::ParseError naming the offending key and context.
ScenarioConfig parse_scenario_config(const obs::json::Value& doc);

/// Convenience: parse from raw JSON text.
ScenarioConfig parse_scenario_config_text(const std::string& text);

/// Serializes the config in normalized form (every key explicit, labels
/// resolved). parse(to_json(c)) round-trips to an identical config.
obs::json::Value scenario_config_to_json(const ScenarioConfig& config);

/// Expands the axis cross-product in the fixed order (world-major,
/// dynamics innermost). size() == product of the axis cardinalities.
std::vector<ScenarioCell> expand_grid(const ScenarioConfig& config);

/// Derived axis labels (returned verbatim when explicitly set).
std::string world_label(const WorldSpec& spec);
std::string defense_label(const DefenseSpec& spec);
std::string attack_label(const AttackSpec& spec);
std::string model_label(const ModelSpec& spec);
std::string dynamics_label(const DynamicsSpec& spec);

/// FNV digest of the normalized config dump: two configs fingerprint
/// equal iff they expand to the same grid with the same tolerances.
std::string config_fingerprint(const ScenarioConfig& config);

/// FNV digest of one cell's coordinate (config seed + all five specs) —
/// stable across runs, thread counts, and host machines.
std::string cell_fingerprint(const ScenarioConfig& config,
                             const ScenarioCell& cell);

/// Enum -> string helper shared by parser, labels, and the artifact.
std::string mechanism_name(DefenseMechanism mechanism);

}  // namespace fs::scenario
