#include "scenario/artifact.h"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "util/error.h"

namespace fs::scenario {

namespace json = obs::json;

namespace {

[[noreturn]] void invalid(const std::string& message) {
  throw ParseError("scenario matrix: " + message);
}

const json::Value& require(const json::Value& node, const std::string& key,
                           const std::string& context) {
  if (!node.is_object() || !node.contains(key))
    invalid(context + ": missing '" + key + "'");
  return node.at(key);
}

double require_number(const json::Value& node, const std::string& key,
                      const std::string& context) {
  const json::Value& v = require(node, key, context);
  if (!v.is_number()) invalid(context + ": '" + key + "' must be a number");
  return v.as_number();
}

std::string require_string(const json::Value& node, const std::string& key,
                           const std::string& context) {
  const json::Value& v = require(node, key, context);
  if (!v.is_string()) invalid(context + ": '" + key + "' must be a string");
  return v.as_string();
}

double require_metric(const json::Value& node, const std::string& key,
                      const std::string& context) {
  const double v = require_number(node, key, context);
  if (!(v >= 0.0 && v <= 1.0))
    invalid(context + ": '" + key + "' = " + std::to_string(v) +
            " outside [0, 1]");
  return v;
}

json::Value quality_to_json(const CellQuality& quality) {
  json::Object o;
  o["precision"] = quality.precision;
  o["recall"] = quality.recall;
  o["f1"] = quality.f1;
  o["auc"] = quality.auc;
  o["precision_at_k"] = quality.precision_at_k;
  o["k"] = quality.k;
  return json::Value(std::move(o));
}

json::Value tolerance_to_json(const ToleranceBands& bands) {
  json::Object o;
  o["f1"] = bands.f1;
  o["precision"] = bands.precision;
  o["recall"] = bands.recall;
  o["auc"] = bands.auc;
  o["precision_at_k"] = bands.precision_at_k;
  return json::Value(std::move(o));
}

/// The five banded metrics, paired with their tolerance keys.
const std::vector<std::string>& banded_metrics() {
  static const std::vector<std::string> kMetrics = {
      "precision", "recall", "f1", "auc", "precision_at_k"};
  return kMetrics;
}

}  // namespace

json::Value matrix_to_json(const MatrixResult& matrix) {
  json::Object doc;
  doc["schema"] = kMatrixSchema;
  doc["schema_version"] = kMatrixSchemaVersion;
  doc["name"] = matrix.config.name;
  doc["seed"] = matrix.config.seed;
  doc["config_fingerprint"] = matrix.config_fp;
  doc["toolchain"] = matrix.toolchain;
  doc["threads"] = matrix.threads;
  doc["cell_count"] = matrix.cells.size();
  doc["total_wall_ms"] = matrix.total_wall_ms;
  doc["tolerance"] = tolerance_to_json(matrix.config.tolerance);

  json::Array cells;
  for (const CellResult& result : matrix.cells) {
    json::Object cell;
    cell["id"] = result.cell.id;
    cell["index"] = result.cell.index;
    cell["config_fingerprint"] = result.fingerprint;
    cell["world"] = world_label(result.cell.world);
    cell["defense"] = defense_label(result.cell.defense);
    cell["attack"] = attack_label(result.cell.attack);
    cell["model"] = model_label(result.cell.model);
    cell["dynamics"] = dynamics_label(result.cell.dynamics);
    cell["quality"] = quality_to_json(result.quality);
    cell["result_digest"] = result.result_digest;
    cell["final_graph_digest"] = result.final_graph_digest;
    cell["wall_ms"] = result.wall_ms;
    cell["peak_memory_bytes"] = result.peak_memory_bytes;
    cell["universe_pairs"] = result.universe_pairs;
    cell["scored_pairs"] = result.scored_pairs;
    cell["pruned_pairs"] = result.pruned_pairs;
    cell["blocking_active"] = result.blocking_active;
    cells.emplace_back(std::move(cell));
  }
  doc["cells"] = std::move(cells);
  return json::Value(std::move(doc));
}

void validate_matrix(const json::Value& doc) {
  if (!doc.is_object()) invalid("document must be an object");
  const std::string schema = require_string(doc, "schema", "top level");
  if (schema != kMatrixSchema)
    invalid("'schema' must be '" + std::string(kMatrixSchema) + "', got '" +
            schema + "'");
  const double version =
      require_number(doc, "schema_version", "top level");
  if (version != kMatrixSchemaVersion)
    invalid("'schema_version' must be " +
            std::to_string(kMatrixSchemaVersion));
  require_string(doc, "name", "top level");
  require_number(doc, "seed", "top level");
  require_string(doc, "config_fingerprint", "top level");
  require_string(doc, "toolchain", "top level");
  require_number(doc, "threads", "top level");
  require_number(doc, "total_wall_ms", "top level");

  const json::Value& tolerance = require(doc, "tolerance", "top level");
  for (const std::string& metric : banded_metrics())
    require_metric(tolerance, metric, "tolerance");

  const json::Value& cells_node = require(doc, "cells", "top level");
  if (!cells_node.is_array()) invalid("'cells' must be an array");
  const json::Array& cells = cells_node.as_array();
  const double cell_count = require_number(doc, "cell_count", "top level");
  if (cell_count != static_cast<double>(cells.size()))
    invalid("cell_count " + std::to_string(cell_count) + " != cells size " +
            std::to_string(cells.size()));

  std::map<std::string, std::size_t> seen;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::ostringstream ctx_stream;
    ctx_stream << "cell " << i;
    const std::string context = ctx_stream.str();
    const json::Value& cell = cells[i];
    const std::string id = require_string(cell, "id", context);
    if (!seen.emplace(id, i).second)
      invalid(context + ": duplicate cell id '" + id + "'");
    require_number(cell, "index", context);
    require_string(cell, "config_fingerprint", context);
    for (const char* axis :
         {"world", "defense", "attack", "model", "dynamics"})
      require_string(cell, axis, context);
    const json::Value& quality = require(cell, "quality", context);
    for (const std::string& metric : banded_metrics())
      require_metric(quality, metric, context + " quality");
    require_number(quality, "k", context + " quality");
    require_string(cell, "result_digest", context);
    require_string(cell, "final_graph_digest", context);
    require_number(cell, "wall_ms", context);
    require_number(cell, "peak_memory_bytes", context);
    const double universe = require_number(cell, "universe_pairs", context);
    const double scored = require_number(cell, "scored_pairs", context);
    const double pruned = require_number(cell, "pruned_pairs", context);
    if (scored + pruned != universe)
      invalid(context + ": scored + pruned != universe_pairs");
    if (!require(cell, "blocking_active", context).is_bool())
      invalid(context + ": 'blocking_active' must be a boolean");
  }
}

void write_matrix(const std::string& path, const MatrixResult& matrix) {
  const json::Value doc = matrix_to_json(matrix);
  validate_matrix(doc);  // a malformed artifact is an emitter bug
  json::write_file(path, doc);
}

json::Value load_matrix_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("scenario matrix: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  json::Value doc = json::parse(text.str());
  validate_matrix(doc);
  return doc;
}

DiffReport diff_matrices(const json::Value& base, const json::Value& current,
                         const DiffOptions& options) {
  DiffReport report;
  validate_matrix(base);
  validate_matrix(current);

  const std::string base_fp = base.at("config_fingerprint").as_string();
  const std::string current_fp =
      current.at("config_fingerprint").as_string();
  if (base_fp != current_fp)
    report.failures.push_back("config fingerprint mismatch: base " +
                              base_fp + " vs current " + current_fp);

  const bool same_toolchain = base.at("toolchain").as_string() ==
                              current.at("toolchain").as_string();
  if (!same_toolchain)
    report.notes.push_back(
        "toolchains differ; digest comparisons downgraded to notes (base '" +
        base.at("toolchain").as_string() + "', current '" +
        current.at("toolchain").as_string() + "')");

  std::map<std::string, double> bands;
  const json::Value& tolerance = base.at("tolerance");
  for (const std::string& metric : banded_metrics())
    bands[metric] =
        tolerance.at(metric).as_number() * options.tolerance_scale;

  std::map<std::string, const json::Value*> current_cells;
  for (const json::Value& cell : current.at("cells").as_array())
    current_cells[cell.at("id").as_string()] = &cell;

  for (const json::Value& base_cell : base.at("cells").as_array()) {
    const std::string id = base_cell.at("id").as_string();
    auto it = current_cells.find(id);
    if (it == current_cells.end()) {
      report.failures.push_back("cell missing from current: '" + id + "'");
      continue;
    }
    const json::Value& current_cell = *it->second;
    current_cells.erase(it);

    if (base_cell.at("config_fingerprint").as_string() !=
        current_cell.at("config_fingerprint").as_string()) {
      report.failures.push_back("cell '" + id +
                                "': config fingerprint mismatch");
      continue;
    }

    for (const std::string& metric : banded_metrics()) {
      const double was = base_cell.at("quality").at(metric).as_number();
      const double now = current_cell.at("quality").at(metric).as_number();
      const double delta = std::abs(now - was);
      if (delta > bands[metric]) {
        std::ostringstream oss;
        oss << "cell '" << id << "': " << metric << " moved " << was
            << " -> " << now << " (|delta| " << delta << " > band "
            << bands[metric] << ")";
        report.failures.push_back(oss.str());
      }
    }

    const std::string base_digest =
        base_cell.at("final_graph_digest").as_string();
    const std::string current_digest =
        current_cell.at("final_graph_digest").as_string();
    if (base_digest != current_digest) {
      const std::string message = "cell '" + id +
                                  "': final graph digest " + base_digest +
                                  " -> " + current_digest;
      if (same_toolchain && !options.lenient_digests)
        report.failures.push_back(message);
      else
        report.notes.push_back(message);
    }
  }

  for (const auto& [id, cell] : current_cells) {
    (void)cell;
    report.failures.push_back("cell not in base: '" + id + "'");
  }
  return report;
}

}  // namespace fs::scenario
