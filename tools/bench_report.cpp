// bench_report — collates the CSVs produced by the bench suite under
// bench_out/ into a single Markdown report (REPORT.md) with one section per
// reproduced table/figure, plus a machine-readable JSON twin.
//
//   ./build/tools/bench_report [--dir bench_out] [--out REPORT.md]
//                              [--json-out REPORT.json]
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/args.h"
#include "util/strings.h"

namespace {

/// Minimal CSV reader (handles the quoting Table::to_csv produces).
std::vector<std::vector<std::string>> read_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::string cell;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char ch = line[i];
      if (quoted) {
        if (ch == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            cell += '"';
            ++i;
          } else {
            quoted = false;
          }
        } else {
          cell += ch;
        }
      } else if (ch == '"') {
        quoted = true;
      } else if (ch == ',') {
        cells.push_back(std::move(cell));
        cell.clear();
      } else {
        cell += ch;
      }
    }
    cells.push_back(std::move(cell));
    rows.push_back(std::move(cells));
  }
  return rows;
}

std::string markdown_table(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return "(empty)\n";
  std::ostringstream oss;
  auto emit = [&](const std::vector<std::string>& cells) {
    oss << '|';
    for (const std::string& cell : cells) oss << ' ' << cell << " |";
    oss << '\n';
  };
  emit(rows[0]);
  oss << '|';
  for (std::size_t c = 0; c < rows[0].size(); ++c) oss << "---|";
  oss << '\n';
  for (std::size_t r = 1; r < rows.size(); ++r) emit(rows[r]);
  return oss.str();
}

/// Human titles for known artifacts; unknown files fall back to the stem.
const std::map<std::string, std::string>& titles() {
  static const std::map<std::string, std::string> kTitles = {
      {"table1_stats", "Table I — dataset statistics"},
      {"table2_proportions", "Table II — co-presence proportions"},
      {"fig1_cdfs", "Fig 1 — CDFs of common POIs / common friends"},
      {"fig5_khop_cdfs", "Fig 5 — k-length path census"},
      {"fig10_iterations", "Fig 10 — refinement iteration curve"},
      {"fig12_colocations", "Fig 12 — F1 by common-location count"},
      {"fig13_checkins", "Fig 13 — F1 by pair check-in volume"},
      {"ablation", "Design-choice ablations"},
      {"defense", "Extension — FriendGuard defense"},
  };
  return kTitles;
}

/// One section as JSON: {"stem", "title", "columns", "rows"}; numeric cells
/// are emitted as numbers so downstream tooling can plot without re-parsing.
fs::obs::json::Value section_json(
    const std::string& stem, const std::string& title,
    const std::vector<std::vector<std::string>>& rows) {
  namespace json = fs::obs::json;
  json::Object section;
  section["stem"] = stem;
  section["title"] = title;
  json::Array columns;
  if (!rows.empty())
    for (const std::string& cell : rows[0]) columns.emplace_back(cell);
  section["columns"] = std::move(columns);
  json::Array body;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    json::Array row;
    for (const std::string& cell : rows[r]) {
      bool numeric = false;
      double v = 0.0;
      try {
        std::size_t pos = 0;
        v = std::stod(cell, &pos);
        numeric = pos == cell.size() && !cell.empty();
      } catch (const std::exception&) {
      }
      if (numeric)
        row.emplace_back(v);
      else
        row.emplace_back(cell);
    }
    body.emplace_back(std::move(row));
  }
  section["rows"] = std::move(body);
  return json::Value(std::move(section));
}

}  // namespace

int main(int argc, char** argv) {
  fs::util::ArgParser args;
  args.add_option("dir", "bench_out", "directory holding the bench CSVs");
  args.add_option("out", "REPORT.md", "output Markdown file");
  args.add_option("json-out", "",
                  "also write the report as JSON (\"\" = <out stem>.json)");
  try {
    args.parse(argc, argv);
    const std::filesystem::path dir(args.get("dir"));
    if (!std::filesystem::is_directory(dir))
      throw std::runtime_error(dir.string() +
                               " not found — run the benches first");

    // Deterministic order: known artifacts first (in paper order), then
    // any extras alphabetically.
    std::vector<std::string> stems;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      if (entry.path().extension() == ".csv")
        stems.push_back(entry.path().stem().string());
    std::vector<std::string> ordered;
    const char* paper_order[] = {
        "table1_stats",     "table2_proportions", "fig1_cdfs",
        "fig5_khop_cdfs",   "fig10_iterations",   "fig12_colocations",
        "fig13_checkins",   "ablation",           "defense"};
    for (const char* stem : paper_order)
      if (std::find(stems.begin(), stems.end(), stem) != stems.end())
        ordered.push_back(stem);
    std::sort(stems.begin(), stems.end());
    for (const std::string& stem : stems)
      if (std::find(ordered.begin(), ordered.end(), stem) == ordered.end())
        ordered.push_back(stem);

    std::ofstream out(args.get("out"));
    if (!out) throw std::runtime_error("cannot write " + args.get("out"));
    out << "# FriendSeeker reproduction report\n\n"
        << "Generated from `" << dir.string()
        << "/` by `bench_report`. One section per reproduced paper "
           "artifact; see EXPERIMENTS.md for the paper-vs-measured "
           "discussion.\n";
    namespace json = fs::obs::json;
    json::Array sections;
    for (const std::string& stem : ordered) {
      const auto it = titles().find(stem);
      const std::string title = it != titles().end() ? it->second : stem;
      const auto rows = read_csv((dir / (stem + ".csv")).string());
      out << "\n## " << title << "\n\n";
      out << markdown_table(rows);
      sections.push_back(section_json(stem, title, rows));
    }

    std::string json_path = args.get("json-out");
    if (json_path.empty()) {
      const std::filesystem::path md(args.get("out"));
      json_path = (md.parent_path() / md.stem()).string() + ".json";
    }
    json::Object report;
    report["report"] = "friendseeker-bench";
    report["source_dir"] = dir.string();
    report["sections"] = std::move(sections);
    json::write_file(json_path, json::Value(std::move(report)), 2);
    std::cout << "wrote " << args.get("out") << " and " << json_path << " ("
              << ordered.size() << " sections)\n";
  } catch (const std::exception& e) {
    std::cerr << "bench_report: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
