// Shared support for the experiment benches (one binary per paper
// table/figure). Each bench prints the reproduced artifact as an aligned
// table and writes the same rows to bench_out/<name>.csv.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "eval/harness.h"
#include "obs/trace.h"
#include "scenario/config.h"
#include "scenario/runner.h"
#include "util/table.h"

namespace fs::bench {

/// Where benches drop their CSVs (relative to the working directory).
inline std::string out_path(const std::string& name) {
  return "bench_out/" + name + ".csv";
}

/// The two full-scale synthetic worlds (matching the paper's two datasets).
inline std::vector<data::SyntheticWorldConfig> paper_worlds() {
  return {data::gowalla_like(), data::brightkite_like()};
}

/// Banner printed at the top of every bench.
inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

/// Standard footer: write the CSV and tell the user where it went.
inline void finish(const util::Table& table, const std::string& name,
                   const std::string& title) {
  table.print(title);
  table.write_csv(out_path(name));
  std::printf("csv: %s\n", out_path(name).c_str());
}

/// The scenario-runner coordinate shared by the countermeasure benches
/// (Figs 14-16): both paper worlds x one mechanism swept 10-50 %.
inline scenario::ScenarioConfig obfuscation_scenario(
    const std::string& bench_name, scenario::DefenseMechanism mechanism) {
  scenario::ScenarioConfig config;
  config.name = bench_name;
  for (const char* preset : {"gowalla", "brightkite"}) {
    scenario::WorldSpec world;
    world.preset = preset;
    config.worlds.push_back(world);
  }
  for (double ratio : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    scenario::DefenseSpec defense;
    defense.mechanism = mechanism;
    defense.rate = ratio;
    config.defenses.push_back(defense);
  }
  config.attacks.push_back(scenario::AttackSpec{});
  config.models.push_back(scenario::ModelSpec{});
  config.dynamics.push_back(scenario::DynamicsSpec{});
  return config;
}

/// Shared driver for the three countermeasure benches (Figs 14-16), built
/// on the scenario runner: one declarative grid produces every FriendSeeker
/// row (with cross-cell world reuse), and the baselines are
/// graded on the IDENTICAL perturbed datasets, rebuilt through the runner's
/// public resolution helpers (same defense seed, same pair split).
inline void run_obfuscation_bench(const std::string& bench_name,
                                  const std::string& title,
                                  scenario::DefenseMechanism mechanism) {
  util::Table table(
      {"dataset", "ratio %", "attack", "F1", "precision", "recall"});

  const scenario::ScenarioConfig config =
      obfuscation_scenario(bench_name, mechanism);
  const scenario::MatrixResult matrix = scenario::run_scenario(config);

  std::size_t cell_index = 0;
  for (const scenario::WorldSpec& world : config.worlds) {
    const std::string world_key = scenario::world_label(world);
    const eval::Experiment clean = eval::make_experiment(
        scenario::resolve_world(world, config.seed), {}, 0.7,
        scenario::split_seed(config.seed));
    for (const scenario::DefenseSpec& defense : config.defenses) {
      const scenario::CellResult& cell = matrix.cells.at(cell_index++);
      table.new_row()
          .add(world_key)
          .add(defense.rate * 100, 0)
          .add("friendseeker")
          .add(cell.quality.f1, 4)
          .add(cell.quality.precision, 4)
          .add(cell.quality.recall, 4);

      eval::Experiment perturbed;
      perturbed.dataset = scenario::apply_defense(
          clean.dataset, defense,
          scenario::defense_seed(config.seed, world_key,
                                 scenario::defense_label(defense)));
      perturbed.split = clean.split;
      perturbed.name = clean.name;
      for (const auto& baseline : eval::make_baselines()) {
        const ml::Prf prf = eval::run_attack(*baseline, perturbed);
        table.new_row()
            .add(world_key)
            .add(defense.rate * 100, 0)
            .add(baseline->name())
            .add(prf.f1, 4)
            .add(prf.precision, 4)
            .add(prf.recall, 4);
      }
    }
  }

  finish(table, bench_name, title);
  std::printf(
      "expect: all attacks degrade with ratio; knowledge-based attacks "
      "collapse while friendseeker degrades most gracefully and leads at "
      "every ratio\n");
}


}  // namespace fs::bench
