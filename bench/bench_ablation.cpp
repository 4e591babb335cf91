// Ablation bench: isolates the design choices DESIGN.md calls out.
//
//   1. supervised vs plain autoencoder (alpha = 0)
//   2. k-hop reachable subgraph vs heuristic structural features
//   3. k sweep (2, 3, 4) — the paper claims k = 3 optimal
//   4. iteration on/off — phase 1 only vs full pipeline
//   5. quadtree vs uniform-grid spatial division
#include "bench_common.h"
#include "eval/presets.h"

int main() {
  using namespace fs;
  bench::banner("bench_ablation", "design-choice ablations (DESIGN.md)");

  util::Table table(
      {"dataset", "variant", "F1", "precision", "recall", "seconds"});

  for (const char* name : {"gowalla", "brightkite"}) {
    const eval::BenchPreset preset = eval::bench_preset(name);
    const eval::Experiment experiment = eval::make_experiment(preset.world);

    struct Variant {
      std::string label;
      core::FriendSeekerConfig config;
    };
    std::vector<Variant> variants;
    const core::FriendSeekerConfig& defaults = preset.seeker;

    variants.push_back({"full (default, k=3)", defaults});

    core::FriendSeekerConfig v = defaults;
    v.presence.alpha = 0.0;
    variants.push_back({"plain autoencoder (alpha=0)", v});

    v = defaults;
    v.use_social_feature = false;
    variants.push_back({"heuristic social features", v});

    v = defaults;
    v.k = 2;
    variants.push_back({"k=2", v});
    v = defaults;
    v.k = 4;
    variants.push_back({"k=4", v});

    v = defaults;
    v.max_iterations = 0;
    variants.push_back({"phase 1 only (no iteration)", v});

    v = defaults;
    v.phase2_classifier =
        core::FriendSeekerConfig::Phase2Classifier::kLogistic;
    variants.push_back({"logistic C' (classifier independence)", v});

    v = defaults;
    v.uniform_grid = true;
    v.uniform_rows = 3;
    v.uniform_cols = 3;
    variants.push_back({"uniform 3x3 grid", v});

    for (const Variant& variant : variants) {
      eval::FriendSeekerAttack attack(variant.config);
      obs::Span timer("bench.ablation.point");
      const ml::Prf prf = eval::run_attack(attack, experiment);
      table.new_row()
          .add(experiment.name)
          .add(variant.label)
          .add(prf.f1, 4)
          .add(prf.precision, 4)
          .add(prf.recall, 4)
          .add(timer.seconds(), 1);
    }
  }

  bench::finish(table, "ablation", "design-choice ablations");
  std::printf(
      "expect: the full configuration at or near the top; phase-1-only and "
      "alpha=0 clearly behind\n");
  return 0;
}
