// Fig 11: FriendSeeker against the four baseline attacks on both datasets.
//
// Paper: FriendSeeker wins everywhere; the best baseline (user-graph
// embedding) trails by ~5 % on Brightkite and ~10 % on Gowalla; the
// knowledge-based attacks (co-location, distance) trail far behind the
// learning-based ones. Shape to hold: the same ranking.
#include "bench_common.h"

int main() {
  using namespace fs;
  bench::banner("bench_fig11_baselines",
                "Fig 11 — FriendSeeker vs the four baselines");

  util::Table table(
      {"dataset", "attack", "F1", "precision", "recall", "seconds"});

  for (const auto& base : bench::paper_worlds()) {
    const eval::Experiment experiment = eval::make_experiment(base);

    auto record = [&](baselines::FriendshipAttack& attack) {
      obs::Span timer("bench.fig11_baselines.point");
      const ml::Prf prf = eval::run_attack(attack, experiment);
      table.new_row()
          .add(experiment.name)
          .add(attack.name())
          .add(prf.f1, 4)
          .add(prf.precision, 4)
          .add(prf.recall, 4)
          .add(timer.seconds(), 1);
      return prf.f1;
    };

    eval::FriendSeekerAttack seeker(eval::default_seeker_config());
    const double ours = record(seeker);
    double best_baseline = 0.0;
    for (const auto& baseline : eval::make_baselines())
      best_baseline = std::max(best_baseline, record(*baseline));

    std::printf("%s: FriendSeeker %.4f vs best baseline %.4f (%+.1f%%)\n",
                experiment.name.c_str(), ours, best_baseline,
                best_baseline > 0 ? (ours / best_baseline - 1.0) * 100.0
                                  : 100.0);
  }

  bench::finish(table, "fig11_baselines", "Fig 11 — attack comparison");
  std::printf(
      "expect: friendseeker first; learning-based baselines above "
      "knowledge-based ones\n");
  return 0;
}
