// scenario_runner: executes a declarative scenario config (the attack x
// defense x world matrix) and emits / validates / diffs the JSON artifact.
//
//   scenario_runner --config cfg.json --out matrix.json [--threads N]
//   scenario_runner --config cfg.json --print-grid
//   scenario_runner --validate matrix.json
//   scenario_runner --diff base.json current.json [--tolerance-scale S]
//                   [--lenient-digests]
//
// Exit codes: 0 ok, 1 failure (out-of-band drift, invalid artifact),
// 2 usage error.

#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "par/pool.h"
#include "scenario/artifact.h"
#include "scenario/config.h"
#include "scenario/runner.h"
#include "util/args.h"
#include "util/error.h"

namespace {

namespace json = fs::obs::json;

fs::scenario::ScenarioConfig load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw fs::IoError("scenario config: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return fs::scenario::parse_scenario_config_text(text.str());
}

int run_validate(const std::string& path) {
  fs::scenario::load_matrix_file(path);
  std::printf("valid: %s\n", path.c_str());
  return 0;
}

int run_diff(const std::string& base_path, const std::string& current_path,
             double tolerance_scale, bool lenient_digests) {
  fs::scenario::DiffOptions options;
  options.tolerance_scale = tolerance_scale;
  options.lenient_digests = lenient_digests;
  const fs::scenario::DiffReport report = fs::scenario::diff_matrices(
      fs::scenario::load_matrix_file(base_path),
      fs::scenario::load_matrix_file(current_path), options);
  for (const std::string& note : report.notes)
    std::printf("note: %s\n", note.c_str());
  for (const std::string& failure : report.failures)
    std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
  std::printf("scenario_diff: %zu failure(s), %zu note(s)\n",
              report.failures.size(), report.notes.size());
  return report.ok() ? 0 : 1;
}

int run_matrix(const fs::util::ArgParser& args) {
  const fs::scenario::ScenarioConfig config = load_config(args.get("config"));
  const auto grid = fs::scenario::expand_grid(config);

  if (args.get_flag("print-grid")) {
    std::printf("scenario '%s': %zu cells (fingerprint %s)\n",
                config.name.c_str(), grid.size(),
                fs::scenario::config_fingerprint(config).c_str());
    for (const fs::scenario::ScenarioCell& cell : grid)
      std::printf("  [%3zu] %s\n", cell.index, cell.id.c_str());
    return 0;
  }

  const std::string out = args.get("out");
  if (out.empty()) {
    std::fprintf(stderr, "--out is required (or use --print-grid)\n");
    return 2;
  }

  fs::scenario::RunOptions options;
  options.threads = static_cast<std::size_t>(args.get_int_in(
      "threads", 0, static_cast<long long>(fs::par::kMaxThreads)));
  options.on_cell = [&](const fs::scenario::CellResult& cell) {
    std::printf(
        "[%3zu/%3zu] %s  f1=%.4f auc=%.4f p@k=%.4f  wall=%.0fms  graph=%s\n",
        cell.cell.index + 1, grid.size(), cell.cell.id.c_str(),
        cell.quality.f1, cell.quality.auc, cell.quality.precision_at_k,
        cell.wall_ms, cell.final_graph_digest.c_str());
    std::fflush(stdout);
  };

  std::printf("scenario '%s': running %zu cells...\n", config.name.c_str(),
              grid.size());
  const fs::scenario::MatrixResult matrix =
      fs::scenario::run_scenario(config, options);
  fs::scenario::write_matrix(out, matrix);
  std::printf("matrix: %s (%zu cells, %.0f ms total, toolchain '%s')\n",
              out.c_str(), matrix.cells.size(), matrix.total_wall_ms,
              matrix.toolchain.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::util::ArgParser args;
  args.add_option("config", "", "scenario config JSON to run");
  args.add_option("out", "", "matrix artifact output path");
  args.add_option("threads", "0", "thread count (0 = auto)");
  args.add_option("validate", "", "validate an existing matrix artifact");
  args.add_option("tolerance-scale", "1.0",
                  "multiplier on the base artifact's tolerance bands");
  args.add_flag("print-grid", "list the expanded cells and exit");
  args.add_flag("lenient-digests",
                "same-toolchain digest mismatches become notes");
  args.add_flag("diff",
                "compare two artifacts: --diff BASE CURRENT (positional)");
  args.add_flag("help", "print usage");

  try {
    args.parse(argc, argv);
    if (args.get_flag("help")) {
      std::printf("scenario_runner — attack x defense x world matrix\n%s",
                  args.help().c_str());
      return 0;
    }
    if (args.get_flag("diff")) {
      if (args.positional().size() != 2) {
        std::fprintf(stderr, "--diff needs BASE and CURRENT paths\n");
        return 2;
      }
      return run_diff(args.positional()[0], args.positional()[1],
                      args.get_double("tolerance-scale"),
                      args.get_flag("lenient-digests"));
    }
    if (!args.get("validate").empty()) return run_validate(args.get("validate"));
    if (args.get("config").empty()) {
      std::fprintf(stderr,
                   "one of --config, --validate, or --diff is required\n%s",
                   args.help().c_str());
      return 2;
    }
    return run_matrix(args);
  } catch (const fs::ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
