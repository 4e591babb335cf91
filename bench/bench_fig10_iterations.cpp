// Fig 10: attack performance as a function of the number of refinement
// iterations.
//
// Paper: iteration always improves F1/recall/precision; the termination
// criterion (< 1 % edges changed) is met after 4 (Gowalla) / 5 (Brightkite)
// iterations. Shape to hold: monotone-ish F1 growth that saturates within
// ~5 iterations, with most of the gain in the first one or two.
#include "bench_common.h"

int main() {
  using namespace fs;
  bench::banner("bench_fig10_iterations",
                "Fig 10 — F1/recall/precision vs iteration count");

  util::Table table({"dataset", "iteration", "F1", "precision", "recall",
                     "graph edges", "edge change"});

  for (const auto& base : bench::paper_worlds()) {
    const eval::Experiment experiment = eval::make_experiment(base);
    core::FriendSeekerConfig cfg = eval::default_seeker_config();
    cfg.max_iterations = 6;
    cfg.convergence_threshold = 0.0;  // run all iterations for the curve
    eval::FriendSeekerAttack attack(cfg);
    eval::run_attack(attack, experiment);
    for (const auto& record : attack.last_result().iterations) {
      const ml::Prf prf =
          ml::prf(experiment.split.test_labels, record.test_predictions);
      table.new_row()
          .add(experiment.name)
          .add(record.iteration)
          .add(prf.f1, 4)
          .add(prf.precision, 4)
          .add(prf.recall, 4)
          .add(record.graph_edges)
          .add(record.edge_change_ratio, 4);
    }
  }

  bench::finish(table, "fig10_iterations", "Fig 10 — iteration curve");
  std::printf(
      "expect: F1 rises from iteration 0 (phase 1) and saturates within ~5 "
      "iterations; edge-change ratio shrinks monotonically\n");
  return 0;
}
