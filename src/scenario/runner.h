// Scenario grid execution: resolves each cell's coordinate into a concrete
// (world, dataset, seeker config) through the existing pipeline facade and
// runs the full attack, reusing worlds and perturbed datasets across cells.
//
// The resolution helpers are public on purpose: the differential tests and
// the countermeasure benches rebuild a cell's exact dataset and seeker
// config outside the runner to pin that a grid cell is bit-identical to a
// direct attack invocation (and to grade baseline attacks on the very same
// perturbed data).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "eval/harness.h"
#include "scenario/config.h"

namespace fs::scenario {

/// Test-set quality of one cell. `k` is the positive count of the test
/// split (precision@k at the label base rate — the attacker's "top
/// suspects" list sized to the true friend count).
struct CellQuality {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double auc = 0.0;
  double precision_at_k = 0.0;
  std::size_t k = 0;
};

struct CellResult {
  ScenarioCell cell;
  std::string fingerprint;  // cell_fingerprint(config, cell)
  CellQuality quality;
  std::string result_digest;
  std::string final_graph_digest;
  double wall_ms = 0.0;
  std::size_t peak_memory_bytes = 0;
  std::size_t universe_pairs = 0;
  std::size_t scored_pairs = 0;
  std::size_t pruned_pairs = 0;
};

struct MatrixResult {
  ScenarioConfig config;
  std::string config_fp;
  std::string toolchain;
  std::size_t threads = 0;  // ambient thread count the run started from
  double total_wall_ms = 0.0;
  std::vector<CellResult> cells;
};

// ---- Cell resolution (public for differential tests and benches) ----

/// World generator config for a cell: preset scaled by the spec's
/// overrides, seeded by preset seed + config seed + spec seed_offset.
data::SyntheticWorldConfig resolve_world(const WorldSpec& spec,
                                         std::uint64_t config_seed);

/// Seeker config for a cell: the world preset's seeker with the model
/// axis's overrides set through core::config_fields() and seed += config
/// seed.
core::FriendSeekerConfig resolve_seeker(const WorldSpec& world,
                                        const ModelSpec& model,
                                        std::uint64_t config_seed);

/// Deterministic RNG seed for a (world, defense) dataset perturbation —
/// shared across the attack/model/dynamics axes so a perturbed dataset is
/// built once and reused, and reproducible outside the runner.
std::uint64_t defense_seed(std::uint64_t config_seed,
                           const std::string& world_label,
                           const std::string& defense_label);

/// Same derivation for the dynamics axis.
std::uint64_t dynamics_seed(std::uint64_t config_seed,
                            const std::string& world_label,
                            const std::string& dynamics_label);

/// Applies one defense spec to a dataset (identity for kNone / rate 0).
/// Blur and FriendGuard build the defender's quadtree at spec.grid_sigma.
data::Dataset apply_defense(const data::Dataset& ds, const DefenseSpec& spec,
                            std::uint64_t seed);

/// Applies temporal drift (identity for drift 0).
data::Dataset apply_dynamics(const data::Dataset& ds,
                             const DynamicsSpec& spec, std::uint64_t seed);

/// The split seed every cell of a config shares (the pair split is part of
/// the protocol, not the grid).
std::uint64_t split_seed(std::uint64_t config_seed);

// ---- Execution ----

struct RunOptions {
  /// Ambient thread count for cells whose attack spec says 0 (inherit);
  /// 0 = keep the process's current par::threads().
  std::size_t threads = 0;
  /// Progress callback after each cell (may be empty).
  std::function<void(const CellResult&)> on_cell;
};

/// Executes the full grid. Worlds are generated once per world label and
/// perturbed datasets once per (world, dynamics, defense) coordinate.
/// Restores the ambient thread count on return.
MatrixResult run_scenario(const ScenarioConfig& config,
                          const RunOptions& options = {});

/// Quality block from a finished attack run (exposed for the differential
/// tests, which grade direct invocations with the same arithmetic).
CellQuality compute_quality(const std::vector<int>& test_labels,
                            const std::vector<int>& predictions,
                            const std::vector<double>& scores);

}  // namespace fs::scenario
