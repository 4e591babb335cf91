// attack_sampled / attack_full: the batch attacker's workloads.
//
// Inputs: the gowalla bench preset's world (tiny with --quick) written as
// SNAP text; the program loads it back like any real trace. attack_sampled
// keeps the balanced 70/30 sampled universe (blocking stays off);
// attack_full extends the test list to every user pair, graded on the
// labeled subset, and checkpoints every phase-2 iteration.
//
// End-to-end (--trace 0): untraced eval::FriendSeekerAttack::infer repeats,
// each in a child process of its own (attack_repeat). Per-layer (--trace 1):
// each such repeat is followed by drive_layers() — the pipeline's stages
// called module by module in the order core::FriendSeeker::run calls them,
// each wrapped in a benchmark-owned obs::Span.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>

#include "bench.h"
#include "block/candidate_gen.h"
#include "block/cell_index.h"
#include "block/feature_cache.h"
#include "core/checkpoint.h"
#include "core/joc.h"
#include "data/loader.h"
#include "eval/digest.h"
#include "eval/harness.h"
#include "eval/presets.h"
#include "geo/spatial_division.h"
#include "graph/metrics.h"
#include "ml/metrics.h"
#include "ml/scaler.h"
#include "obs/trace.h"
#include "par/par.h"
#include "par/pool.h"

namespace fsb {
namespace {

using namespace fs;
namespace json = obs::json;

constexpr double kMiB = 1024.0 * 1024.0;

double ms_since(Clock::time_point start) { return seconds_since(start) * 1e3; }

struct Inputs {
  eval::BenchPreset preset;
  std::string checkins;
  std::string edges;
  eval::PairSamplingConfig sampling;
  std::uint64_t split_seed = 7;
};

/// The world is the preset's own: its seed is not varied, because world
/// geometry (quadtree cells, hence JOC width) and convergence speed swing
/// the attack's cost by 2x between worlds. --seed draws the labeled pairs,
/// the train/test split and the model's random streams instead, and the
/// refinement loop runs a fixed number of iterations, so every seed asks
/// for the same amount of work. Everything here follows from the options,
/// so a repeat's child process rebuilds it; write_world() makes the files.
Inputs inputs_for(const Options& options, bool full) {
  Inputs in;
  in.preset = eval::bench_preset(options.quick ? "tiny" : "gowalla");
  in.preset.seeker.seed += options.seed;
  in.preset.seeker.max_iterations = 3;
  in.preset.seeker.convergence_threshold = 0.0;
  if (full) in.preset.seeker.checkpoint_dir = options.work_dir + "/ckpt";
  in.sampling.seed += options.seed;
  in.split_seed += options.seed;
  in.checkins = options.work_dir + "/checkins.txt";
  in.edges = options.work_dir + "/edges.txt";
  return in;
}

void write_world(const Inputs& in) {
  const data::SyntheticWorld world = data::generate_world(in.preset.world);
  data::save_checkins_snap(world.dataset, in.checkins, in.edges);
}

/// Appends every user pair absent from the sampled split to the test list:
/// the whole population an unconstrained attacker scores.
void extend_to_full_universe(eval::Experiment& experiment) {
  std::vector<data::UserPair> known;
  for (const auto& p : experiment.split.train_pairs)
    known.push_back(data::make_pair_ordered(p.first, p.second));
  for (const auto& p : experiment.split.test_pairs)
    known.push_back(data::make_pair_ordered(p.first, p.second));
  std::sort(known.begin(), known.end());
  const auto n = static_cast<data::UserId>(experiment.dataset.user_count());
  for (data::UserId a = 0; a < n; ++a)
    for (data::UserId b = a + 1; b < n; ++b)
      if (!std::binary_search(known.begin(), known.end(),
                              data::UserPair{a, b}))
        experiment.split.test_pairs.push_back({a, b});
}

struct Setup {
  eval::Experiment experiment;
  double load_ms = 0.0;
  double split_ms = 0.0;
};

/// What a user pays before the attack: load the SNAP files, sample and split
/// the labeled pairs (and, for attack_full, list every other pair).
Setup set_up(const Inputs& in, bool full) {
  Setup s;
  auto start = Clock::now();
  data::Dataset dataset = data::load_checkins_snap(in.checkins, in.edges);
  s.load_ms = ms_since(start);
  start = Clock::now();
  s.experiment = eval::make_experiment(std::move(dataset), "bench",
                                       in.sampling, 0.7, in.split_seed);
  if (full) extend_to_full_universe(s.experiment);
  s.split_ms = ms_since(start);
  return s;
}

struct InferRun {
  double seconds = 0.0;
  std::string failure;  // empty = the run counts as a success
  std::string result_digest;
  std::string graph_digest;
  double f1 = 0.0;
  double phase1_edges = 0.0;
  double test_pairs = 0.0;
  double cache_hit_rate = 0.0;
  double cache_mb = 0.0;
  double charged_peak_mb = 0.0;
  double peak_rss_mb = 0.0;  // VmHWM of the repeat's process
};

json::Object to_json(const InferRun& r) {
  json::Object o;
  o["seconds"] = r.seconds;
  o["failure"] = r.failure;
  o["result_digest"] = r.result_digest;
  o["graph_digest"] = r.graph_digest;
  o["f1"] = r.f1;
  o["phase1_edges"] = r.phase1_edges;
  o["test_pairs"] = r.test_pairs;
  o["cache_hit_rate"] = r.cache_hit_rate;
  o["cache_mb"] = r.cache_mb;
  o["charged_peak_mb"] = r.charged_peak_mb;
  o["peak_rss_mb"] = r.peak_rss_mb;
  return o;
}

InferRun infer_run_from_json(const json::Value& v) {
  InferRun r;
  r.seconds = v.at("seconds").as_number();
  r.failure = v.at("failure").as_string();
  r.result_digest = v.at("result_digest").as_string();
  r.graph_digest = v.at("graph_digest").as_string();
  r.f1 = v.at("f1").as_number();
  r.phase1_edges = v.at("phase1_edges").as_number();
  r.test_pairs = v.at("test_pairs").as_number();
  r.cache_hit_rate = v.at("cache_hit_rate").as_number();
  r.cache_mb = v.at("cache_mb").as_number();
  r.charged_peak_mb = v.at("charged_peak_mb").as_number();
  r.peak_rss_mb = v.at("peak_rss_mb").as_number();
  return r;
}

/// One untraced end-to-end attack on a fresh attack object.
InferRun infer_once(const core::FriendSeekerConfig& seeker,
                    const eval::Experiment& experiment) {
  InferRun run;
  runtime::ExecutionContext context;
  core::FriendSeekerConfig config = seeker;
  config.context = &context;
  eval::FriendSeekerAttack attack(config);
  const auto start = Clock::now();
  std::vector<int> predictions;
  try {
    predictions = attack.infer(experiment.dataset,
                               experiment.split.train_pairs,
                               experiment.split.train_labels,
                               experiment.split.test_pairs);
  } catch (const std::exception& e) {
    run.seconds = seconds_since(start);
    run.failure = std::string("threw: ") + e.what();
    return run;
  }
  run.seconds = seconds_since(start);

  const core::FriendSeekerResult& result = attack.last_result();
  const std::vector<int> graded(
      predictions.begin(),
      predictions.begin() + static_cast<std::ptrdiff_t>(
                                experiment.split.test_labels.size()));
  run.f1 = ml::prf(experiment.split.test_labels, graded).f1;
  run.result_digest = eval::result_digest(result);
  run.graph_digest = eval::graph_digest(result.final_graph);
  run.phase1_edges = static_cast<double>(
      result.iterations.empty() ? 0 : result.iterations.front().graph_edges);
  run.test_pairs = static_cast<double>(predictions.size());
  run.cache_hit_rate = result.cache.hit_rate();
  run.cache_mb = static_cast<double>(result.cache.bytes) / kMiB;
  run.charged_peak_mb = static_cast<double>(context.peak_charged()) / kMiB;
  if (result.fell_back_to_phase1) run.failure = "fell back to phase 1";
  for (const runtime::PhaseDegradation& d : result.degradation.phases)
    if (d.reason != "iterations")
      run.failure = "degraded: " + d.phase + " " + d.reason;
  return run;
}

/// Per-layer totals of one drive pass. `ms` sums each stage's spans under
/// its metric name; every stage of the pass is in exactly one entry.
struct DrivePass {
  std::map<std::string, double> ms;
  std::size_t grids = 0;
  std::size_t slots = 0;
  std::size_t joc_dim = 0;
  std::size_t universe = 0;
  std::size_t scored = 0;
  std::size_t joc_rows_built = 0;
  std::size_t phase1_edges = 0;
  int iterations = 0;
  std::size_t svm_train_rows = 0;
  int checkpoint_saves = 0;

  double total_ms() const {
    double total = 0.0;
    for (const auto& [name, value] : ms) total += value;
    return total;
  }
};

/// The attack pipeline, stage by stage through each module's public API,
/// mirroring core::FriendSeeker::run (monolithic path, SVM phase 2). Every
/// stage runs inside a benchmark span; the pipeline's own bookkeeping
/// (universe indexing, thresholds, graph rebuilds) is spanned as
/// pipeline.bookkeeping so the pass accounts for its whole wall time.
DrivePass drive_layers(const core::FriendSeekerConfig& config,
                      const eval::Experiment& experiment) {
  const data::Dataset& dataset = experiment.dataset;
  const std::vector<data::UserPair>& train_pairs = experiment.split.train_pairs;
  const std::vector<int>& train_labels = experiment.split.train_labels;
  const std::vector<data::UserPair>& test_pairs = experiment.split.test_pairs;
  runtime::ExecutionContext context;
  runtime::ExecutionContext* const ctx = &context;
  DrivePass out;
  const auto close = [&out](obs::Span& span, const char* metric) {
    span.end();
    out.ms[metric] += span.milliseconds();
  };

  // ---- geo: spatial-temporal division + occupancy index. ----
  obs::Span geo_span("drive.geo.division");
  const std::vector<geo::LatLng> poi_coords = dataset.poi_coordinates();
  const geo::QuadtreeDivision quadtree(poi_coords, config.sigma);
  const geo::QuadtreeDivisionView division(quadtree);
  const geo::TimeSlotting slots(
      dataset.window_begin(), dataset.window_end(),
      static_cast<geo::Timestamp>(config.tau_days * geo::kSecondsPerDay));
  const core::OccupancyIndex occupancy(dataset, division, slots);
  close(geo_span, "geo.division_ms");
  out.grids = division.cell_count();
  out.slots = slots.slot_count();
  out.joc_dim = occupancy.joc_dim();

  // ---- pipeline: candidate-pair universe. ----
  obs::Span universe_span("drive.pipeline.universe");
  std::vector<data::UserPair> pairs;
  std::map<data::UserPair, std::size_t> row_of;
  const auto add = [&](const std::vector<data::UserPair>& more) {
    for (const data::UserPair& p : more) {
      const data::UserPair key = data::make_pair_ordered(p.first, p.second);
      if (row_of.emplace(key, pairs.size()).second) pairs.push_back(key);
    }
  };
  add(train_pairs);
  add(test_pairs);
  std::vector<std::size_t> train_rows;
  for (const data::UserPair& p : train_pairs)
    train_rows.push_back(row_of.at(data::make_pair_ordered(p.first, p.second)));
  close(universe_span, "pipeline.bookkeeping_ms");
  out.universe = pairs.size();

  // ---- block: co-occurrence index, strong graph, universe filter. ----
  obs::Span index_span("drive.block.index");
  const block::CellIndex cell_index(dataset, division, slots, ctx);
  const graph::Graph strong = block::strong_cooccurrence_graph(cell_index);
  close(index_span, "block.index_ms");

  obs::Span filter_span("drive.block.filter");
  const bool blocking_on =
      block::blocking_enabled(config.blocking, pairs.size());
  const std::vector<char> candidate =
      block::filter_universe(cell_index, strong, pairs, config.blocking);
  constexpr std::size_t kInactive = static_cast<std::size_t>(-1);
  std::vector<std::size_t> active_of_row(pairs.size(), kInactive);
  std::vector<std::size_t> active_rows;
  std::vector<char> keep(pairs.size(), 1);
  if (blocking_on) {
    keep = candidate;
    for (std::size_t row : train_rows) keep[row] = 1;
  }
  for (std::size_t row = 0; row < keep.size(); ++row)
    if (keep[row]) {
      active_of_row[row] = active_rows.size();
      active_rows.push_back(row);
    }
  std::vector<std::size_t> train_active;
  for (std::size_t row : train_rows) train_active.push_back(active_of_row[row]);
  close(filter_span, "block.filter_ms");
  const std::size_t active_count = active_rows.size();
  out.scored = active_count;

  // ---- block: feature cache (run-local, as in a default attack). ----
  obs::Span prepare_span("drive.pipeline.cache_prepare");
  block::FeatureCache cache;
  cache.prepare(cell_index.signature(), occupancy.joc_dim(),
                config.presence.feature_dim, ctx);
  close(prepare_span, "pipeline.bookkeeping_ms");

  // ---- core.joc: JOC rows of the scored universe. ----
  obs::Span joc_span("drive.core.joc.fill");
  const runtime::MemoryCharge joc_charge(
      ctx, active_count * occupancy.joc_dim() * sizeof(double),
      "core.joc.matrix");
  nn::Matrix all_jocs(active_count, occupancy.joc_dim());
  {
    std::vector<const double*> rows(active_count);
    std::vector<double*> fill;
    std::vector<std::size_t> fill_ai;
    for (std::size_t ai = 0; ai < active_count; ++ai) {
      const data::UserPair& pair = pairs[active_rows[ai]];
      if (const double* hit = cache.find_joc(pair)) {
        rows[ai] = hit;
      } else {
        double* slot = cache.insert_joc(pair);
        rows[ai] = slot;
        fill.push_back(slot);
        fill_ai.push_back(ai);
      }
    }
    core::JocOptions joc_options;
    joc_options.context = ctx;
    par::ParallelOptions jopts;
    jopts.context = ctx;
    jopts.what = "core.joc.fill";
    jopts.grain = par::grain_for(occupancy.joc_dim() * 4);
    par::parallel_for(fill.size(), jopts, [&](std::size_t i) {
      const data::UserPair& pair = pairs[active_rows[fill_ai[i]]];
      core::build_joc(occupancy, pair.first, pair.second, fill[i],
                      joc_options);
    });
    par::parallel_for(active_count, jopts, [&](std::size_t ai) {
      std::copy(rows[ai], rows[ai] + occupancy.joc_dim(), all_jocs.row(ai));
    });
    out.joc_rows_built = fill.size();
  }
  close(joc_span, "joc.fill_ms");

  // ---- core.presence / nn / kern: autoencoder + KNN fit. ----
  core::PresenceModelConfig presence_cfg = config.presence;
  presence_cfg.seed ^= config.seed;
  util::Diagnostics diagnostics;
  presence_cfg.diagnostics = &diagnostics;
  presence_cfg.context = ctx;
  core::PresenceModel presence(presence_cfg);
  obs::Span train_span("drive.core.presence.train");
  presence.train(all_jocs.gather_rows(train_active), train_labels);
  close(train_span, "presence.train_ms");
  const std::size_t d = presence.feature_dim();

  obs::Span encode_span("drive.core.presence.encode");
  const runtime::MemoryCharge embedding_charge(
      ctx, active_count * d * sizeof(double), "core.embeddings");
  nn::Matrix embeddings(active_count, d);
  {
    std::vector<std::size_t> encode_ai;
    for (std::size_t ai = 0; ai < active_count; ++ai) {
      if (const double* hit = cache.find_presence(pairs[active_rows[ai]]))
        std::copy(hit, hit + d, embeddings.row(ai));
      else
        encode_ai.push_back(ai);
    }
    if (!encode_ai.empty()) {
      const nn::Matrix fresh = presence.encode(all_jocs.gather_rows(encode_ai));
      for (std::size_t i = 0; i < encode_ai.size(); ++i) {
        const std::size_t ai = encode_ai[i];
        double* slot = cache.insert_presence(pairs[active_rows[ai]]);
        std::copy(fresh.row(i), fresh.row(i) + d, slot);
        std::copy(fresh.row(i), fresh.row(i) + d, embeddings.row(ai));
      }
    }
  }
  close(encode_span, "presence.encode_ms");

  // ---- ml.knn: phase-1 probabilities over the scored rows. ----
  obs::Span knn_span("drive.ml.knn.predict");
  const std::vector<double> phase1_proba =
      presence.predict_proba_encoded(embeddings);
  close(knn_span, "knn.predict_ms");

  // ---- pipeline: phase-1 graph G(0). ----
  obs::Span seed_span("drive.pipeline.phase1_graph");
  const auto tune_on_train = [&](const std::vector<double>& active_scores) {
    std::vector<double> train_scores;
    for (std::size_t ai : train_active) train_scores.push_back(active_scores[ai]);
    return ml::tune_f1_threshold(train_scores, train_labels).threshold;
  };
  const auto graph_of = [&](const std::vector<int>& predictions) {
    graph::Graph g(dataset.user_count());
    for (std::size_t i = 0; i < pairs.size(); ++i)
      if (predictions[i]) g.add_edge(pairs[i].first, pairs[i].second);
    return g;
  };
  const double phase1_cut = std::max(tune_on_train(phase1_proba), 0.5);
  std::vector<int> predictions(pairs.size(), 0);
  std::vector<double> scores(pairs.size(), 0.0);
  for (std::size_t ai = 0; ai < active_count; ++ai) {
    const std::size_t row = active_rows[ai];
    predictions[row] = candidate[row] && phase1_proba[ai] >= phase1_cut;
    scores[row] = phase1_proba[ai];
  }
  graph::Graph current = graph_of(predictions);
  out.phase1_edges = current.edge_count();

  // ---- Phase 2 state, hoisted out of the loop like the pipeline's. ----
  core::SocialFeatureConfig social_cfg;
  social_cfg.k = config.k;
  social_cfg.feature_dim = d;
  const std::size_t social_width = static_cast<std::size_t>(config.k - 1) * d;
  const core::EdgeFeatureFn edge_feature =
      [&](data::UserId a, data::UserId b, std::vector<double>& feature) {
        const auto it = row_of.find(data::make_pair_ordered(a, b));
        if (it == row_of.end() || active_of_row[it->second] == kInactive)
          return false;
        const double* h = cache.find_presence(it->first);
        if (h == nullptr) return false;
        feature.assign(h, h + d);
        return true;
      };
  const runtime::MemoryCharge composite_charge(
      ctx, active_count * (d + social_width) * sizeof(double),
      "core.phase2.composite");
  nn::Matrix composite(active_count, d + social_width);
  std::vector<std::size_t> svm_rows;
  std::vector<int> svm_labels;
  std::vector<std::size_t> order;
  std::vector<double> decision;
  const std::string checkpoint_path =
      config.checkpoint_dir.empty()
          ? std::string()
          : config.checkpoint_dir + "/drive_checkpoint.fsck";
  if (!checkpoint_path.empty())
    std::filesystem::create_directories(config.checkpoint_dir);
  close(seed_span, "pipeline.bookkeeping_ms");

  for (int iteration = 1; iteration <= config.max_iterations; ++iteration) {
    // ---- core.social / graph: composite features v = h ⊕ s. ----
    obs::Span social_span("drive.core.social.feature");
    par::ParallelOptions copts;
    copts.context = ctx;
    copts.what = "core.phase2.composite";
    copts.grain = 8;
    copts.scratch_bytes_per_worker = (social_width + d) * sizeof(double);
    par::parallel_for_chunks(active_count, copts,
                             [&](const par::ChunkRange& chunk) {
      std::vector<double> social, edge_scratch;
      for (std::size_t ai = chunk.begin; ai < chunk.end; ++ai) {
        const auto [a, b] = pairs[active_rows[ai]];
        double* row = composite.row(ai);
        const double* h = cache.find_presence(pairs[active_rows[ai]]);
        std::copy(h, h + d, row);
        core::social_proximity_feature(current, a, b, social_cfg,
                                       edge_feature, social, edge_scratch);
        std::copy(social.begin(), social.end(), row + d);
      }
    });
    close(social_span, "social.feature_ms");

    // ---- ml: scaler + SVM fit on the (subsampled) training rows. ----
    obs::Span fit_span("drive.ml.svm.fit");
    util::Rng svm_rng(config.seed ^ 0x5117ULL ^
                      (static_cast<std::uint64_t>(iteration) *
                       0x9e3779b97f4a7c15ULL));
    svm_rows.assign(train_active.begin(), train_active.end());
    svm_labels.assign(train_labels.begin(), train_labels.end());
    if (svm_rows.size() > config.max_svm_train_rows) {
      order.resize(svm_rows.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      svm_rng.shuffle(order);
      order.resize(config.max_svm_train_rows);
      for (std::size_t j = 0; j < order.size(); ++j) {
        svm_rows[j] = train_active[order[j]];
        svm_labels[j] = train_labels[order[j]];
      }
      svm_rows.resize(order.size());
      svm_labels.resize(order.size());
    }
    ml::StandardScaler scaler;
    const nn::Matrix svm_train =
        scaler.fit_transform(composite.gather_rows(svm_rows));
    ml::SvmConfig svm_cfg = config.svm;
    svm_cfg.seed ^= static_cast<std::uint64_t>(iteration);
    svm_cfg.context = ctx;
    ml::SvmClassifier svm(svm_cfg);
    svm.fit(svm_train, svm_labels);
    close(fit_span, "svm.fit_ms");
    out.svm_train_rows = svm_rows.size();

    // ---- ml: decision over every scored row. ----
    obs::Span decision_span("drive.ml.svm.decision");
    decision = svm.decision(scaler.transform(composite));
    close(decision_span, "svm.decision_ms");

    // ---- pipeline: cut, hysteresis, next graph. ----
    obs::Span refine_span("drive.pipeline.refine");
    for (double v : decision)
      if (!std::isfinite(v))
        throw std::runtime_error("drive: non-finite SVM decision");
    const double cut = tune_on_train(decision);
    double margin = 0.0;
    if (config.flip_margin > 0.0) {
      std::vector<double> spread_rows;
      for (std::size_t ai = 0; ai < active_count; ++ai)
        if (candidate[active_rows[ai]]) spread_rows.push_back(decision[ai]);
      for (std::size_t ai : train_active)
        if (!candidate[active_rows[ai]]) spread_rows.push_back(decision[ai]);
      double mean = 0.0, sq = 0.0;
      for (double v : spread_rows) mean += v;
      mean /= static_cast<double>(spread_rows.size());
      for (double v : spread_rows) sq += (v - mean) * (v - mean);
      margin = config.flip_margin *
               std::sqrt(sq / static_cast<double>(spread_rows.size()));
    }
    for (std::size_t ai = 0; ai < active_count; ++ai) {
      const std::size_t row = active_rows[ai];
      if (!candidate[row])
        predictions[row] = 0;
      else if (decision[ai] >= cut + margin)
        predictions[row] = 1;
      else if (decision[ai] < cut - margin)
        predictions[row] = 0;
      scores[row] = decision[ai];
    }
    graph::Graph next = graph_of(predictions);
    const double change = graph::edge_change_ratio(current, next);
    current = std::move(next);
    out.iterations = iteration;
    close(refine_span, "pipeline.bookkeeping_ms");

    // ---- core.checkpoint: per-iteration save (when configured). ----
    if (!checkpoint_path.empty()) {
      obs::Span save_span("drive.core.checkpoint.save");
      core::PipelineCheckpoint cp;
      cp.iteration = iteration;
      cp.predictions = predictions;
      cp.scores = scores;
      cp.presence = presence;
      core::save_pipeline_checkpoint(checkpoint_path, cp);
      close(save_span, "pipeline.ckpt_save_ms");
      ++out.checkpoint_saves;
    }
    if (change < config.convergence_threshold) break;
  }
  return out;
}

/// GEMM FLOPs of autoencoder training (computed, not counted): per row and
/// epoch a forward pass through encoder, decoder and classifier head, the
/// decoder and head backward with input gradients, and two encoder backward
/// passes (L_auto, then alpha * L_cla) that skip the bottom input gradient.
/// A multiply-add is 2 FLOPs; bias and optimizer updates are left out.
double autoencoder_gflop(std::size_t joc_dim,
                         const core::PresenceModelConfig& presence,
                         const std::vector<int>& train_labels) {
  const std::vector<std::size_t> enc =
      core::make_encoder_dims(joc_dim, presence);
  double sum_enc = 0.0;
  for (std::size_t i = 0; i + 1 < enc.size(); ++i)
    sum_enc += static_cast<double>(enc[i] * enc[i + 1]);
  const double bottom = static_cast<double>(enc[0] * enc[1]);
  std::vector<std::size_t> head = {presence.feature_dim};
  for (std::size_t h : nn::AutoencoderConfig{}.classifier_hidden)
    head.push_back(h);
  head.push_back(1);
  double sum_head = 0.0;
  for (std::size_t i = 0; i + 1 < head.size(); ++i)
    sum_head += static_cast<double>(head[i] * head[i + 1]);

  const auto positives = static_cast<std::size_t>(
      std::count(train_labels.begin(), train_labels.end(), 1));
  const std::size_t negatives = train_labels.size() - positives;
  std::size_t rows = train_labels.size();
  if (rows > presence.max_autoencoder_rows) {
    const std::size_t half = presence.max_autoencoder_rows / 2;
    rows = std::min(half, positives) + std::min(half, negatives);
  }
  const double per_row = 16.0 * sum_enc + 6.0 * sum_head - 4.0 * bottom;
  return per_row * static_cast<double>(rows) *
         static_cast<double>(presence.epochs) / 1e9;
}

}  // namespace

void attack_repeat(const Options& options, bool full_universe,
                   const std::string& result_path) {
  const Inputs in = inputs_for(options, full_universe);
  const Setup setup = set_up(in, full_universe);
  InferRun run = infer_once(in.preset.seeker, setup.experiment);
  run.peak_rss_mb = peak_rss_mb();
  json::write_file(result_path, json::Value(to_json(run)));
}

Outcome run_attack(const Options& options, bool full_universe) {
  Outcome out;
  const Inputs in = inputs_for(options, full_universe);
  write_world(in);
  // Three repeats fit the window on a quiet host; two is the floor, so a
  // host running at half speed (seen for minutes at a time) does not stretch
  // an attack_full run to 50 s.
  const std::size_t min_repeats = options.quick ? 1 : 2;

  // Set-up as a user pays it, in this process, which runs no attack itself.
  // Host speed drifts over seconds, so the samples come in groups spread
  // over the window, one group before each of the first repeats.
  std::vector<double> setup_s, load_ms, split_ms;
  Setup setup;
  const auto sample_setup = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto start = Clock::now();
      Setup sample = set_up(in, full_universe);
      setup_s.push_back(seconds_since(start));
      load_ms.push_back(sample.load_ms);
      split_ms.push_back(sample.split_ms);
      setup = std::move(sample);
    }
  };

  // Untraced end-to-end repeats, each a process of its own: one cold
  // attack, as one `friendseeker attack` call pays it. In one process, peak
  // RSS after several attacks depended on how threads had interleaved
  // their allocations (±10 % between identical runs).
  const std::string result_path = options.work_dir + "/repeat.json";
  std::vector<std::string> child = {
      self_exe(),   "--workload",      options.workload,
      "--seed",     std::to_string(options.seed),
      "--work-dir", options.work_dir,  "--attack-repeat",
      result_path};
  if (options.quick) child.push_back("--quick");
  std::vector<InferRun> runs;
  const auto attack_once = [&] {
    sample_setup(std::min(kSetupGroup, kSetupRepeats - setup_s.size()));
    std::filesystem::remove(result_path);
    const int code = run_child(child);
    ++out.attempted;
    InferRun run;
    if (code != 0 || !std::filesystem::exists(result_path)) {
      run.failure = "repeat process exited " + std::to_string(code);
    } else {
      std::ifstream file(result_path);
      const std::string text((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());
      run = infer_run_from_json(json::parse(text));
    }
    if (!run.failure.empty()) {
      ++out.failed;
      out.gate_failures.push_back("infer " + run.failure);
    }
    runs.push_back(std::move(run));
  };

  // A per-layer run brackets each traced drive pass (in this process)
  // between two repeats and compares the pass with their mean: the host's
  // speed drifts by 20 % within half a minute, and the bracket cancels a
  // steady drift.
  std::vector<DrivePass> drives;
  std::vector<double> unattributed;
  const auto window_start = Clock::now();
  if (options.trace) attack_once();
  RepeatBudget budget(options.seconds - seconds_since(window_start),
                      options.trace ? 1 : min_repeats);
  while (budget.another()) {
    const auto start = Clock::now();
    if (options.trace) {
      obs::tracer().clear();  // the file keeps the last pass's trace
      obs::tracer().enable();
      ++out.attempted;
      bool drove = false;
      try {
        drives.push_back(drive_layers(in.preset.seeker, setup.experiment));
        drove = true;
      } catch (const std::exception& e) {
        ++out.failed;
        out.gate_failures.push_back(std::string("drive threw: ") + e.what());
      }
      obs::tracer().disable();
      attack_once();
      const InferRun& a = runs[runs.size() - 2];
      const InferRun& b = runs.back();
      if (drove && a.failure.empty() && b.failure.empty()) {
        const double bracket_ms = (a.seconds + b.seconds) / 2 * 1e3;
        unattributed.push_back(1.0 - drives.back().total_ms() / bracket_ms);
        const auto e2e_edges = static_cast<std::size_t>(a.phase1_edges);
        if (drives.back().phase1_edges != e2e_edges)
          out.gate_failures.push_back(
              "drive phase-1 edges " +
              std::to_string(drives.back().phase1_edges) + " != end-to-end " +
              std::to_string(e2e_edges));
      }
    } else {
      attack_once();
    }
    budget.record(seconds_since(start));
  }
  sample_setup(kSetupRepeats - setup_s.size());
  const eval::Experiment& experiment = setup.experiment;
  const core::FriendSeekerConfig& seeker = in.preset.seeker;

  std::vector<double> walls, f1s, rss;
  for (const InferRun& r : runs) {
    walls.push_back(r.seconds);
    f1s.push_back(r.f1);
    rss.push_back(r.peak_rss_mb);
  }
  const InferRun& first = runs.front();
  for (const InferRun& r : runs)
    if (r.result_digest != first.result_digest ||
        r.graph_digest != first.graph_digest) {
      out.gate_failures.push_back("digests differ across repeats");
      break;
    }
  const double attack_s = median(walls);

  out.details["result_digest"] = first.result_digest;
  out.details["final_graph_digest"] = first.graph_digest;
  out.details["phase1_edges"] = first.phase1_edges;
  out.details["repeats"] = runs.size();
  out.details["universe_test_pairs"] = first.test_pairs;
  out.details["attack_s"] = attack_s;
  out.details["repeat_s"] = json_array(walls);
  out.details["repeat_peak_rss_mb"] = json_array(rss);
  out.details["setup_samples_s"] = json_array(setup_s);

  // The last repeat's checkpoint must hold the final iteration over the
  // whole universe: what a resumed attack would start from.
  if (!seeker.checkpoint_dir.empty()) {
    const core::PipelineCheckpoint cp = core::load_pipeline_checkpoint(
        seeker.checkpoint_dir + "/checkpoint.fsck");
    if (cp.iteration != seeker.max_iterations ||
        cp.predictions.size() != experiment.split.train_pairs.size() +
                                     experiment.split.test_pairs.size())
      out.gate_failures.push_back("checkpoint does not hold the final state");
  }

  if (!options.trace) {
    out.metrics["setup_s"] = median(setup_s);
    out.metrics["throughput_per_s"] = first.test_pairs / attack_s;
    // Every test pair is due when infer starts and answered when it returns,
    // so a pair's latency is its repeat's wall time.
    out.metrics["p50_ms"] = attack_s * 1e3;
    out.metrics["peak_rss_mb"] = median(rss);
    out.metrics["f1"] = median(f1s);
    return out;
  }
  if (drives.empty()) return out;
  std::vector<double> drive_s;
  for (const DrivePass& r : drives) drive_s.push_back(r.total_ms() / 1e3);
  out.details["drive_s"] = json_array(drive_s);

  const auto med = [&](const char* metric) {
    std::vector<double> v;
    for (const DrivePass& r : drives) {
      const auto it = r.ms.find(metric);
      v.push_back(it == r.ms.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  const DrivePass& shape = drives.front();
  const double iterations = static_cast<double>(shape.iterations);
  const auto per_second = [](double items, double ms) {
    return ms > 0.0 ? items / (ms / 1e3) : 0.0;
  };
  const auto lines = static_cast<double>(experiment.dataset.checkin_count());

  std::map<std::string, double>& m = out.metrics;
  m["data.load_ms"] = median(load_ms);
  m["data.rows_per_s"] = per_second(lines, m["data.load_ms"]);
  m["eval.split_ms"] = median(split_ms);
  m["geo.division_ms"] = med("geo.division_ms");
  m["geo.grids"] = static_cast<double>(shape.grids);
  m["geo.slots"] = static_cast<double>(shape.slots);
  m["joc.dim"] = static_cast<double>(shape.joc_dim);
  m["block.index_ms"] = med("block.index_ms");
  m["block.filter_ms"] = med("block.filter_ms");
  m["block.scored_pairs"] = static_cast<double>(shape.scored);
  m["block.prune_ratio"] =
      static_cast<double>(shape.universe) / static_cast<double>(shape.scored);
  m["block.cache_hit_rate"] = first.cache_hit_rate;
  m["block.cache_mb"] = first.cache_mb;
  m["joc.fill_ms"] = med("joc.fill_ms");
  m["joc.rows_per_s"] =
      per_second(static_cast<double>(shape.joc_rows_built), m["joc.fill_ms"]);
  m["joc.matrix_mb"] = static_cast<double>(shape.scored * shape.joc_dim *
                                           sizeof(double)) / kMiB;
  m["presence.train_ms"] = med("presence.train_ms");
  m["nn.ae_gflop"] = autoencoder_gflop(shape.joc_dim, seeker.presence,
                                       experiment.split.train_labels);
  m["nn.ae_gflops"] = per_second(m["nn.ae_gflop"], m["presence.train_ms"]);
  m["presence.encode_ms"] = med("presence.encode_ms");
  m["knn.predict_ms"] = med("knn.predict_ms");
  m["knn.queries_per_s"] =
      per_second(static_cast<double>(shape.scored), m["knn.predict_ms"]);
  m["social.feature_ms"] = med("social.feature_ms") / iterations;
  m["social.pairs_per_s"] = per_second(static_cast<double>(shape.scored),
                                       m["social.feature_ms"]);
  m["svm.fit_ms"] = med("svm.fit_ms") / iterations;
  m["svm.decision_ms"] = med("svm.decision_ms") / iterations;
  m["svm.train_rows"] = static_cast<double>(shape.svm_train_rows);
  m["svm.decision_rows_per_s"] =
      per_second(static_cast<double>(shape.scored), m["svm.decision_ms"]);
  m["pipeline.iterations"] = iterations;
  m["pipeline.ckpt_save_ms"] =
      shape.checkpoint_saves > 0
          ? med("pipeline.ckpt_save_ms") / shape.checkpoint_saves
          : 0.0;
  m["pipeline.bookkeeping_ms"] = med("pipeline.bookkeeping_ms");
  m["pipeline.unattributed_frac"] = median(unattributed);
  m["runtime.charged_peak_mb"] = first.charged_peak_mb;
  m["par.threads"] = static_cast<double>(par::threads());
  return out;
}

}  // namespace fsb
