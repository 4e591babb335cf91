// The end-to-end FriendSeeker attack (Fig 2): phase 1 builds the initial
// social graph from presence-proximity features; phase 2 iteratively refines
// it with social-proximity features until fewer than 1 % of edges change.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "block/candidate_gen.h"
#include "block/feature_cache.h"
#include "core/presence.h"
#include "core/social.h"
#include "data/dataset.h"
#include "geo/quadtree.h"
#include "graph/graph.h"
#include "ml/logistic.h"
#include "ml/svm.h"
#include "util/error.h"
#include "util/runtime.h"

namespace fs::util {
class ArgParser;
}  // namespace fs::util

namespace fs::core {

struct FriendSeekerConfig {
  // ---- Spatial-temporal division ----
  std::size_t sigma = 200;   // max POIs per quadtree grid
  double tau_days = 7.0;     // time-slot length
  bool uniform_grid = false; // ablation: uniform grid instead of quadtree
  std::size_t uniform_rows = 4;
  std::size_t uniform_cols = 4;

  // ---- Phase 1 ----
  PresenceModelConfig presence;

  // ---- Phase 2 ----
  int k = 3;  // k-hop reachable subgraph depth
  /// The paper uses an RBF-SVM as C' but stresses the approach is
  /// classifier-agnostic; kLogistic swaps in logistic regression (see the
  /// ablation bench).
  enum class Phase2Classifier { kSvm, kLogistic };
  Phase2Classifier phase2_classifier = Phase2Classifier::kSvm;
  ml::SvmConfig svm;
  ml::LogisticConfig logistic;
  /// SVM training rows are subsampled to this cap (kernel memory/time).
  std::size_t max_svm_train_rows = 1500;
  int max_iterations = 6;  // 0: stop after phase 1
  /// The paper stops below 1 %; the SVM is retrained every iteration here,
  /// which keeps a small churn floor (a few percent of borderline pairs
  /// flip each round), so the scaled default is 4.5 %.
  double convergence_threshold = 0.055;
  /// Flip hysteresis: an existing edge is removed (or a missing edge
  /// added) only when the SVM decision clears the tuned cut by this many
  /// standard deviations of the decision distribution. Damps borderline
  /// pairs oscillating between iterations; 0 disables.
  double flip_margin = 0.3;

  // ---- Candidate blocking ----
  /// Spatial-temporal blocking over the candidate universe, always on:
  /// pairs that never co-occur (shared grid cell within slot_tolerance
  /// slots) and sit outside hop_expansion strong-co-occurrence hops are
  /// never scored, and are predicted non-friend with score 0.0. Train
  /// pairs are always scored (the attacker owns their labels).
  block::BlockingConfig blocking;

  // ---- Ablations ----
  bool use_social_feature = true;  // false: heuristic structural features

  // ---- Fault tolerance ----
  /// When non-empty, the working state is checkpointed into this directory
  /// after every phase-2 iteration (file: checkpoint.fsck).
  std::string checkpoint_dir;
  /// Resume from the last valid checkpoint in checkpoint_dir. A corrupt or
  /// mismatched checkpoint is reported into the result's diagnostics and
  /// the run restarts cleanly from phase 1.
  bool resume = false;

  // ---- Execution governance ----
  /// Optional runtime governance (deadline, cancellation token, memory
  /// budget). Threaded through every heavy loop: the JOC build, autoencoder
  /// epochs, SMO passes, and the phase-2 refinement loop. Null = unlimited.
  runtime::ExecutionContext* context = nullptr;
  /// Wall-clock budget in seconds for the phase-2 refinement loop, applied
  /// as PhaseScope tightening on the context deadline (0 = none). Expiry
  /// truncates the loop at an iteration boundary and records the loss in
  /// the result's DegradationReport instead of failing the run.
  double phase2_budget_sec = 0.0;

  std::uint64_t seed = 99;
};

/// One settable hyper-parameter of FriendSeekerConfig. The `attack` flags
/// (name with '_' -> '-'), the scenario model axis (name as key) and
/// FriendSeeker's range check all read config_fields(), so a new
/// hyper-parameter is one row. Values travel as doubles.
struct ConfigField {
  enum class Type { kInt, kReal };

  const char* name;
  Type type;
  double lo, hi;  // closed range
  const char* doc;
  double (*get)(const FriendSeekerConfig&);
  void (*put)(FriendSeekerConfig&, double);  // takes a checked value

  std::string flag() const;
  /// Throws std::invalid_argument naming the field unless `value` is in
  /// [lo, hi] (never NaN or infinite) and, unless kReal, integral.
  void check(double value) const;
  /// Reads what `format` writes; throws like check.
  double parse(const std::string& text) const;
  /// Text that parses back to exactly `value`.
  std::string format(double value) const;
  void set(FriendSeekerConfig& config, double value) const;  // check + put
};

const std::vector<ConfigField>& config_fields();
/// Throws std::invalid_argument for a name no row has.
const ConfigField& config_field(const std::string& name);
/// Every row's check on `config`.
void validate_config(const FriendSeekerConfig& config);
/// One option per row, showing `defaults`' values as the defaults.
void add_config_flags(util::ArgParser& args,
                      const FriendSeekerConfig& defaults);
/// Sets every row whose flag was given (checked); the rest keep their
/// values.
void apply_config_flags(const util::ArgParser& args,
                        FriendSeekerConfig& config);

/// Per-iteration trace for Fig 10 and convergence analysis. Iteration 0 is
/// the phase-1 (presence-only) graph.
struct IterationRecord {
  int iteration = 0;
  double edge_change_ratio = 0.0;  // vs the previous iteration's graph
  std::size_t graph_edges = 0;
  std::vector<int> test_predictions;
};

struct FriendSeekerResult {
  std::vector<int> test_predictions;     // aligned with test_pairs
  std::vector<double> test_scores;       // decision scores (phase 2) or
                                         // KNN probabilities (phase 1 only)
  std::vector<IterationRecord> iterations;
  graph::Graph final_graph;
  int iterations_run = 0;
  bool converged = false;
  /// True when phase 2 diverged (NaN/Inf training or scores) before
  /// completing a single iteration and the result is the phase-1 graph.
  bool fell_back_to_phase1 = false;
  /// Last completed iteration restored from a checkpoint (0 = fresh run).
  int resumed_from_iteration = 0;
  /// Everything the run degraded on: quarantined records, divergence
  /// retries, rejected checkpoints, fallbacks.
  util::Diagnostics diagnostics;
  /// Phases truncated by governance (deadline, memory budget, cancellation,
  /// iteration cap); empty on an ungoverned or fully completed run.
  runtime::DegradationReport degradation;
  /// Peak of the context's charged-memory estimate during this run, in
  /// bytes (0 when no context was supplied).
  std::size_t peak_memory_estimate = 0;
  /// Universe/scored/pruned tier counts for this run.
  block::BlockingStats blocking;
  /// Always empty: the engine keeps each JOC and presence row once, in its
  /// scored-row matrices, and has no feature cache. Read only by the
  /// benchmark's layer drive (`benchmark/src/attack.cpp`), which reports
  /// its hit rate and bytes; delete it together with `drive_layers`.
  block::FeatureCache::Stats cache;
};

/// One trained attack instance. `run` trains on the labeled pairs and
/// returns predictions for the unlabeled test pairs; the working social
/// graph spans all candidate pairs (train + test), mirroring an attacker
/// who predicts over the whole target population.
class FriendSeeker {
 public:
  explicit FriendSeeker(const FriendSeekerConfig& config);

  FriendSeekerResult run(const data::Dataset& dataset,
                         const std::vector<data::UserPair>& train_pairs,
                         const std::vector<int>& train_labels,
                         const std::vector<data::UserPair>& test_pairs);

  const FriendSeekerConfig& config() const { return config_; }

 private:
  FriendSeekerConfig config_;
};

}  // namespace fs::core
