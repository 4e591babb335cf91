#include "core/pipeline.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "block/cell_index.h"
#include "core/checkpoint.h"
#include "core/joc.h"
#include "geo/spatial_division.h"
#include "geo/time_slots.h"
#include "graph/metrics.h"
#include "ml/metrics.h"
#include "ml/scaler.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "par/par.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace fs::core {

FriendSeeker::FriendSeeker(const FriendSeekerConfig& config)
    : config_(config) {
  validate_config(config);
}

namespace {

/// All candidate pairs (train + test) with a dense row index; the social
/// graph only ever contains candidate edges, so each edge has a feature row.
struct PairUniverse {
  std::vector<data::UserPair> pairs;
  std::map<data::UserPair, std::size_t> row_of;

  void add(const std::vector<data::UserPair>& more) {
    for (const data::UserPair& p : more) {
      const data::UserPair key = data::make_pair_ordered(p.first, p.second);
      if (row_of.emplace(key, pairs.size()).second) pairs.push_back(key);
    }
  }
};

graph::Graph graph_from_predictions(std::size_t user_count,
                                    const PairUniverse& universe,
                                    const std::vector<int>& predictions) {
  graph::Graph g(user_count);
  for (std::size_t i = 0; i < universe.pairs.size(); ++i)
    if (predictions[i])
      g.add_edge(universe.pairs[i].first, universe.pairs[i].second);
  return g;
}

/// FNV-1a over the run parameters a checkpoint must agree on; a resume
/// against a different dataset/config is rejected instead of mixed in.
/// Every config_fields() row counts except max_iterations, which a resume
/// may raise. Blocking rows count because they change which rows are ever
/// scored.
std::uint64_t run_fingerprint(const FriendSeekerConfig& config,
                              const data::Dataset& dataset,
                              std::size_t universe_size,
                              std::size_t train_size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(dataset.user_count());
  mix(dataset.checkin_count());
  mix(universe_size);
  mix(train_size);
  mix(config.seed);
  mix(static_cast<std::uint64_t>(config.phase2_classifier));
  for (const ConfigField& field : config_fields())
    if (std::string_view(field.name) != "max_iterations")
      mix(std::bit_cast<std::uint64_t>(field.get(config)));
  return h;
}

}  // namespace

FriendSeekerResult FriendSeeker::run(
    const data::Dataset& dataset,
    const std::vector<data::UserPair>& train_pairs,
    const std::vector<int>& train_labels,
    const std::vector<data::UserPair>& test_pairs) {
  if (train_pairs.size() != train_labels.size())
    throw std::invalid_argument("FriendSeeker::run: train size mismatch");
  if (train_pairs.empty() || test_pairs.empty())
    throw std::invalid_argument("FriendSeeker::run: empty pair lists");

  runtime::ExecutionContext* const ctx = config_.context;
  obs::Span run_span("core.pipeline.run");

  // ---- Spatial-temporal division. ----
  obs::Span std_span("core.pipeline.std_division");
  const std::vector<geo::LatLng> poi_coords = dataset.poi_coordinates();
  std::unique_ptr<geo::QuadtreeDivision> quadtree;
  std::unique_ptr<geo::UniformGridDivision> uniform;
  std::unique_ptr<geo::SpatialDivision> division;
  if (config_.uniform_grid) {
    uniform = std::make_unique<geo::UniformGridDivision>(
        poi_coords, config_.uniform_rows, config_.uniform_cols);
    division = std::make_unique<geo::UniformGridDivisionView>(*uniform);
  } else {
    quadtree =
        std::make_unique<geo::QuadtreeDivision>(poi_coords, config_.sigma);
    division = std::make_unique<geo::QuadtreeDivisionView>(*quadtree);
  }
  const geo::TimeSlotting slots(
      dataset.window_begin(), dataset.window_end(),
      static_cast<geo::Timestamp>(config_.tau_days * geo::kSecondsPerDay));
  // The one occupancy index: the JOCs and blocking both read it.
  const block::CellIndex occupancy(dataset, *division, slots, ctx);
  std_span.end();
  util::log_debug("FriendSeeker: STD I=", division->cell_count(),
                  " J=", slots.slot_count(), " joc_dim=", occupancy.joc_dim());

  // ---- Candidate-pair universe. ----
  PairUniverse universe;
  universe.add(train_pairs);
  universe.add(test_pairs);

  auto rows_of = [&](const std::vector<data::UserPair>& pairs) {
    std::vector<std::size_t> rows;
    rows.reserve(pairs.size());
    for (const data::UserPair& p : pairs)
      rows.push_back(
          universe.row_of.at(data::make_pair_ordered(p.first, p.second)));
    return rows;
  };
  const std::vector<std::size_t> train_rows = rows_of(train_pairs);
  const std::vector<std::size_t> test_rows = rows_of(test_pairs);

  // ---- Candidate predicate and blocking. ----
  // The candidate predicate — cell co-occurrence within slot_tolerance, or
  // at most hop_expansion hops in the strong-co-occurrence graph — is part
  // of the MODEL, not just an optimization: a non-candidate pair has no
  // mobility evidence (its n_ab channel is identically zero and it is
  // outside phase 2's reachable closure), so it is never labeled a friend.
  // Such pairs are therefore never scored either: they keep prediction 0
  // and score 0.0 and cost no feature rows.
  //
  // The documented recall-loss contract lives in the predicate itself: a
  // genuinely hidden friend pair that never co-occurs and sits outside the
  // hop radius is predicted non-friend and counted in
  // block.candidates_pruned.
  block::BlockingStats blocking_stats;
  std::vector<char> candidate;
  {
    const graph::Graph strong = block::strong_cooccurrence_graph(occupancy);
    candidate = block::filter_universe(occupancy, strong, universe.pairs,
                                       config_.blocking, &blocking_stats);
  }
  // Scored rows: candidates plus every train row. Train pairs are always
  // scored — their labels are the attacker's own ground truth and both
  // phases train on their feature rows — though a non-candidate train pair
  // is still gated to non-friend like any other.
  std::vector<char> keep = candidate;
  for (std::size_t row : train_rows) {
    if (!keep[row]) {
      keep[row] = 1;
      ++blocking_stats.forced_pairs;
      ++blocking_stats.scored_pairs;
      --blocking_stats.pruned_pairs;
    }
  }
  constexpr std::size_t kInactive = static_cast<std::size_t>(-1);
  std::vector<std::size_t> active_of_row(universe.pairs.size(), kInactive);
  std::vector<std::size_t> active_rows;
  active_rows.reserve(blocking_stats.scored_pairs);
  for (std::size_t row = 0; row < keep.size(); ++row) {
    if (keep[row]) {
      active_of_row[row] = active_rows.size();
      active_rows.push_back(row);
    }
  }
  const std::size_t active_count = active_rows.size();
  auto active_indices_of = [&](const std::vector<std::size_t>& rows) {
    std::vector<std::size_t> out;
    out.reserve(rows.size());
    for (std::size_t row : rows) out.push_back(active_of_row[row]);
    return out;
  };
  const std::vector<std::size_t> train_active = active_indices_of(train_rows);
  util::log_debug("FriendSeeker: universe=", universe.pairs.size(),
                  " scored=", active_count);

  // ---- JOC rows for the scored universe. ----
  // The JOC store is the only store of JOC rows. Its exact bytes are
  // charged against the memory budget once the rows are counted and
  // before they are allocated; each row is built straight into its own
  // slot, so the store is byte-identical at any thread count.
  runtime::MemoryCharge joc_charge;
  nn::SparseRows jocs;
  {
    std::vector<data::UserPair> active_pairs;
    active_pairs.reserve(active_count);
    for (std::size_t row : active_rows)
      active_pairs.push_back(universe.pairs[row]);
    JocOptions joc_options;
    joc_options.context = ctx;
    jocs = build_joc_matrix(occupancy, active_pairs, joc_options, &joc_charge);
  }

  FriendSeekerResult result;
  util::Diagnostics& diagnostics = result.diagnostics;

  // ---- Checkpoint/resume bookkeeping. ----
  const std::string checkpoint_path =
      config_.checkpoint_dir.empty()
          ? std::string()
          : config_.checkpoint_dir + "/checkpoint.fsck";
  const std::uint64_t fingerprint = run_fingerprint(
      config_, dataset, universe.pairs.size(), train_pairs.size());
  if (!config_.checkpoint_dir.empty())
    std::filesystem::create_directories(config_.checkpoint_dir);

  std::optional<PipelineCheckpoint> resumed;
  if (config_.resume && !checkpoint_path.empty() &&
      !std::filesystem::exists(checkpoint_path)) {
    diagnostics.report(util::Severity::kInfo, ErrorCode::kIo, "pipeline",
                       "no checkpoint at " + checkpoint_path +
                           "; starting fresh");
  }
  if (config_.resume && !checkpoint_path.empty() &&
      std::filesystem::exists(checkpoint_path)) {
    try {
      PipelineCheckpoint cp = load_pipeline_checkpoint(checkpoint_path);
      if (cp.fingerprint != fingerprint) {
        diagnostics.report(util::Severity::kWarning,
                           ErrorCode::kCorruptCheckpoint, "pipeline",
                           "checkpoint fingerprint mismatch (different "
                           "dataset or config); restarting from phase 1");
      } else if (cp.predictions.size() != universe.pairs.size() ||
                 cp.scores.size() != universe.pairs.size() ||
                 !cp.presence.has_value() || !cp.presence->trained()) {
        diagnostics.report(util::Severity::kWarning,
                           ErrorCode::kCorruptCheckpoint, "pipeline",
                           "checkpoint shape mismatch; restarting from "
                           "phase 1");
      } else {
        resumed = std::move(cp);
      }
    } catch (const Error& e) {
      diagnostics.report(util::Severity::kWarning,
                         ErrorCode::kCorruptCheckpoint, "pipeline",
                         std::string("cannot resume, restarting cleanly: ") +
                             e.what());
    }
  }

  // ---- Phase 1: presence model (trained, or restored from checkpoint). --
  PresenceModelConfig presence_cfg = config_.presence;
  presence_cfg.seed ^= config_.seed;
  presence_cfg.diagnostics = &diagnostics;
  std::optional<PresenceModel> presence_storage;
  if (resumed.has_value()) {
    presence_storage = std::move(*resumed->presence);
    result.resumed_from_iteration = resumed->iteration;
    diagnostics.report(util::Severity::kInfo, ErrorCode::kIo, "pipeline",
                       "resumed from checkpoint at iteration " +
                           std::to_string(resumed->iteration));
  } else {
    presence_cfg.context = ctx;
    presence_storage.emplace(presence_cfg);
    obs::Span phase1_timer("core.pipeline.phase1");
    // An expired deadline truncates autoencoder training at the next epoch
    // boundary (a partially trained model is still usable), recorded below.
    presence_storage->train(jocs, train_active, train_labels);
    if (ctx != nullptr && ctx->deadline_expired())
      result.degradation.add("phase1.autoencoder", "deadline",
                             "training truncated by wall-clock budget");
    phase1_timer.end();
    util::log_debug("FriendSeeker: phase-1 training ",
                    phase1_timer.seconds(), "s");
  }
  PresenceModel& presence = *presence_storage;
  const std::size_t d = presence.feature_dim();

  // ---- Presence features for the scored universe. ----
  // `embeddings` is the only store of presence rows: phase 2 reads each
  // scored pair's row from it by active index.
  const runtime::MemoryCharge embedding_charge(
      ctx, active_count * d * sizeof(double), "core.embeddings");
  obs::Span encode_span("core.pipeline.phase1.encode");
  const nn::Matrix embeddings = presence.encode(jocs);
  encode_span.arg("rows", static_cast<double>(active_count));
  const std::vector<double> phase1_proba =
      presence.predict_proba_encoded(embeddings);
  encode_span.end();
  for (double p : phase1_proba)
    if (!std::isfinite(p))
      throw NumericError(
          "FriendSeeker: phase-1 probabilities contain non-finite values");

  // The operating point is picked on the training split (every attack in
  // the evaluation does the same — the attacker maximizes train F1).
  // `active_scores` is indexed by active (scored) row, not universe row.
  auto tune_on_train = [&](const std::vector<double>& active_scores) {
    std::vector<double> train_scores;
    train_scores.reserve(train_active.size());
    for (std::size_t ai : train_active)
      train_scores.push_back(active_scores[ai]);
    return ml::tune_f1_threshold(train_scores, train_labels).threshold;
  };

  std::vector<int> predictions;
  std::vector<double> scores;
  int start_iteration = 1;
  if (resumed.has_value()) {
    predictions = std::move(resumed->predictions);
    scores = std::move(resumed->scores);
    start_iteration = resumed->iteration + 1;
  } else {
    // Phase 1 seeds the graph; a too-permissive cut floods G(0) with
    // false edges that phase 2 then has to prune back (overshoot). The seed
    // cut is therefore never below the KNN's natural majority threshold.
    const double phase1_cut = std::max(tune_on_train(phase1_proba), 0.5);
    predictions.assign(universe.pairs.size(), 0);
    scores.assign(universe.pairs.size(), 0.0);
    for (std::size_t ai = 0; ai < active_count; ++ai) {
      const std::size_t row = active_rows[ai];
      predictions[row] = candidate[row] && phase1_proba[ai] >= phase1_cut;
      scores[row] = phase1_proba[ai];
    }
  }

  auto record_iteration = [&](int iteration, double change,
                              const graph::Graph& g) {
    IterationRecord rec;
    rec.iteration = iteration;
    rec.edge_change_ratio = change;
    rec.graph_edges = g.edge_count();
    rec.test_predictions.reserve(test_rows.size());
    for (std::size_t row : test_rows)
      rec.test_predictions.push_back(predictions[row]);
    result.iterations.push_back(std::move(rec));
  };

  graph::Graph current = graph_from_predictions(dataset.user_count(),
                                                universe, predictions);
  // Iteration 0 is the phase-1 graph; a resumed run's baseline is the
  // checkpointed iteration instead (change 0: nothing moved since the save).
  record_iteration(start_iteration - 1, resumed.has_value() ? 0.0 : 1.0,
                   current);
  util::log_debug("FriendSeeker: baseline graph edges=",
                  current.edge_count());

  auto save_checkpoint_if_configured = [&](int iteration) {
    if (checkpoint_path.empty()) return;
    // The live model and vectors are serialized by reference.
    const CheckpointView cp{fingerprint, iteration, predictions, scores,
                            presence};
    try {
      save_pipeline_checkpoint(checkpoint_path, cp);
    } catch (const Error& e) {
      // A failed save never kills the run; it only costs resumability.
      diagnostics.report(util::Severity::kWarning, ErrorCode::kIo,
                         "pipeline",
                         std::string("checkpoint save failed: ") + e.what());
    }
  };

  if (config_.max_iterations > 0) {
    // ---- Phase 2: iterative hidden-friends inference. ----
    SocialFeatureConfig social_cfg;
    social_cfg.k = config_.k;
    social_cfg.feature_dim = d;

    const std::size_t social_width =
        static_cast<std::size_t>(config_.k - 1) * d;
    const std::size_t composite_width = d + social_width;

    // Phase 2 reads an edge's presence row through a table rebuilt once per
    // graph: one pointer per adjacency slot, resolved universe row ->
    // scored row -> `embeddings` row. An edge outside the universe or
    // pruned by blocking resolves to null and contributes nothing.
    const EdgeFeatureTable::RowFn edge_row = [&](data::UserId a,
                                                 data::UserId b) {
      const auto it = universe.row_of.find(data::make_pair_ordered(a, b));
      if (it == universe.row_of.end() || active_of_row[it->second] == kInactive)
        return static_cast<const double*>(nullptr);
      return embeddings.row(active_of_row[it->second]);
    };

    // The edge table and its budget charge are hoisted out of the
    // refinement loop and reused every iteration. The table is sized for
    // the largest graph phase 2 can build — every edge is a candidate
    // scored row — so no rebuild outgrows its charge. A failed charge
    // degrades exactly like an in-iteration budget failure: keep the
    // phase-1 graph.
    std::optional<runtime::MemoryCharge> edge_table_charge;
    EdgeFeatureTable edge_table;
    bool phase2_ready = true;
    try {
      const std::size_t max_edges = static_cast<std::size_t>(
          std::count_if(active_rows.begin(), active_rows.end(),
                        [&](std::size_t row) { return candidate[row]; }));
      edge_table_charge.emplace(
          ctx, EdgeFeatureTable::bytes_for(current.node_count(), max_edges),
          "core.phase2.edge_table");
      edge_table.reserve(current.node_count(), max_edges);
      edge_table.rebuild(current, d, edge_row);
    } catch (const Error& e) {
      if (e.code() != ErrorCode::kBudget) throw;
      phase2_ready = false;
      diagnostics.report(util::Severity::kError, e.code(), "pipeline",
                         std::string("phase 2 abandoned, keeping phase-1 "
                                     "graph: ") +
                             e.what());
      result.degradation.add("phase2.refine", "memory", e.what(),
                             start_iteration - 1, config_.max_iterations);
    }

    // Per pool participant (ChunkRange::worker indexes it), reused across
    // pairs, chunks and iterations: the k-hop scratch (its markers are
    // epoch-stamped, so reuse is free), the composite row a pair is built,
    // scaled and decided in, and the SVM's dot-product scratch. Their
    // bytes are charged per worker by each region below. The path tallies
    // are summed after each region, so their total does not depend on
    // scheduling.
    struct alignas(64) Phase2Worker {
      graph::KHopScratch khop;
      graph::KHopStats stats;
      std::vector<double> row;     // one pair's composite v = h ⊕ s
      std::vector<double> dots;    // SVM decision scratch
      std::vector<double> social;  // heuristic ablation only
    };
    std::vector<Phase2Worker> workers(par::threads());
    for (Phase2Worker& worker : workers) {
      worker.row.resize(composite_width);
      // A fit keeps at most its training rows as support vectors.
      worker.dots.reserve(
          std::min(train_active.size(), config_.max_svm_train_rows));
    }

    // Writes the composite v = h ⊕ s of scored row `ai` on the current
    // graph into `row`: the presence half h is the pair's own `embeddings`
    // row, s its social feature.
    const auto build_composite = [&](std::size_t ai, double* row,
                                     Phase2Worker& worker) {
      const auto [a, b] = universe.pairs[active_rows[ai]];
      const double* h = embeddings.row(ai);
      std::copy(h, h + d, row);
      if (config_.use_social_feature)
        return social_proximity_feature(
            current, a, b, social_cfg, edge_table, worker.khop,
            std::span<double>(row + d, social_width));
      const graph::KHopStats stats =
          heuristic_social_feature(current, a, b, social_cfg, worker.social);
      std::copy(worker.social.begin(), worker.social.end(), row + d);
      return stats;
    };
    const auto region = [&](const char* what, std::size_t row_scratch) {
      par::ParallelOptions options;
      options.context = ctx;
      options.what = what;
      options.grain = 8;
      options.scratch_bytes_per_worker =
          row_scratch * sizeof(double) +
          graph::KHopScratch::bytes_for(current.node_count());
      return options;
    };

    // Hoisted per-iteration temporaries: capacity survives across
    // iterations instead of being reallocated each refinement pass, so
    // phase 2 runs in a working set allocated by its first iteration. No
    // composite matrix exists: only the training rows' composites are
    // held, in `svm_train`; every scored pair's row lives in its worker's
    // scratch just long enough to be scaled and decided. The SVM's kernel
    // matrix and packed training rows live in `svm_workspace` (the kernel
    // charged while it is held), and each refit of `svm` reuses its
    // support-vector storage.
    std::vector<std::size_t> svm_rows;
    std::vector<int> svm_labels;
    std::vector<std::size_t> order;
    std::vector<double> decision;
    nn::Matrix svm_train;
    ml::SvmConfig svm_cfg = config_.svm;
    svm_cfg.context = ctx;
    ml::SvmClassifier svm(svm_cfg);
    ml::SvmWorkspace svm_workspace;
    const bool logistic = config_.phase2_classifier ==
                          FriendSeekerConfig::Phase2Classifier::kLogistic;

    // Per-phase budget for the whole refinement loop; the loop-top probes
    // below truncate at iteration boundaries, where the last-good graph
    // and checkpoint are both current.
    runtime::PhaseScope phase2_scope(ctx, config_.phase2_budget_sec);
    for (int iteration = start_iteration;
         phase2_ready && iteration <= config_.max_iterations; ++iteration) {
      if (ctx != nullptr && ctx->cancelled()) {
        result.degradation.add("phase2.refine", "cancelled",
                               "stopped at iteration boundary; the last "
                               "checkpoint is current",
                               iteration - 1, config_.max_iterations);
        break;
      }
      if (ctx != nullptr && ctx->deadline_expired()) {
        result.degradation.add("phase2.refine", "deadline",
                               "wall-clock budget exhausted; keeping the "
                               "last-good graph",
                               iteration - 1, config_.max_iterations);
        break;
      }
      obs::Span iter_span("core.pipeline.phase2.iteration");
      iter_span.arg("iteration", static_cast<double>(iteration));
      try {
      // Train C' on the labeled pairs (subsampled under the kernel cap).
      // The RNG is derived from (seed, iteration) alone — never from how
      // many iterations this process has executed — so a run resumed from
      // a checkpoint subsamples identically to an uninterrupted one
      // (resume-equivalence).
      util::Rng svm_rng(config_.seed ^ 0x5117ULL ^
                        (static_cast<std::uint64_t>(iteration) *
                         0x9e3779b97f4a7c15ULL));
      svm_rows.assign(train_active.begin(), train_active.end());
      svm_labels.assign(train_labels.begin(), train_labels.end());
      if (svm_rows.size() > config_.max_svm_train_rows) {
        order.resize(svm_rows.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        svm_rng.shuffle(order);
        order.resize(config_.max_svm_train_rows);
        for (std::size_t j = 0; j < order.size(); ++j) {
          svm_rows[j] = train_active[order[j]];
          svm_labels[j] = train_labels[order[j]];
        }
        svm_rows.resize(order.size());
        svm_labels.resize(order.size());
      }

      // The training rows' composites on the current graph, built straight
      // into `svm_train`. Their path tallies are not counted: the decide
      // pass below builds every scored row, these included.
      obs::Span train_span("core.phase2.train_rows");
      train_span.arg("rows", static_cast<double>(svm_rows.size()));
      svm_train.resize(svm_rows.size(), composite_width);
      par::parallel_for_chunks(
          svm_rows.size(), region("core.phase2.train_rows", 0),
          [&](const par::ChunkRange& chunk) {
            Phase2Worker& worker = workers[chunk.worker];
            for (std::size_t j = chunk.begin; j < chunk.end; ++j)
              build_composite(svm_rows[j], svm_train.row(j), worker);
          });
      train_span.end();

      obs::Span scale_span("core.phase2.scale");
      ml::StandardScaler scaler;
      scaler.fit(svm_train);
      scaler.transform_in_place(svm_train);
      scale_span.end();
      std::optional<ml::LogisticClassifier> logistic_clf;
      if (logistic) {
        logistic_clf.emplace(config_.logistic);
        logistic_clf->fit(svm_train, svm_labels);
      } else {
        svm.fit(svm_train, svm_labels, svm_workspace);
      }

      // One pass decides every scored pair on the current graph: each
      // pair's composite is built into its worker's row, scaled and
      // decided right away. Pairs fan out over the pool in fixed chunks,
      // and each writes only its own decision slot.
      obs::Span decide_span("core.phase2.decide");
      decide_span.arg("rows", static_cast<double>(active_count));
      const std::size_t dots_width =
          logistic ? 0 : svm.support_vector_count();
      for (Phase2Worker& worker : workers) {
        worker.stats = {};
        worker.dots.resize(dots_width);
      }
      decision.resize(active_count);
      par::parallel_for_chunks(
          active_count,
          region("core.phase2.decide", composite_width + dots_width),
          [&](const par::ChunkRange& chunk) {
            Phase2Worker& worker = workers[chunk.worker];
            for (std::size_t ai = chunk.begin; ai < chunk.end; ++ai) {
              const graph::KHopStats pair_stats =
                  build_composite(ai, worker.row.data(), worker);
              worker.stats.paths += pair_stats.paths;
              worker.stats.capped += pair_stats.capped;
              scaler.transform_row(worker.row);
              decision[ai] = logistic
                                 ? logistic_clf->decision(worker.row.data())
                                 : svm.decision(worker.row, worker.dots);
            }
          });
      graph::KHopStats khop_total;
      for (const Phase2Worker& worker : workers) {
        khop_total.paths += worker.stats.paths;
        khop_total.capped += worker.stats.capped;
      }
      decide_span.arg("paths", static_cast<double>(khop_total.paths));
      decide_span.arg("capped", static_cast<double>(khop_total.capped));
      decide_span.end();
      obs::metrics()
          .counter("core.social.paths_total", {},
                   "k-hop paths retained by phase-2 social features")
          .add(static_cast<double>(khop_total.paths));
      obs::metrics()
          .counter("core.social.capped_total", {},
                   "pair path lengths truncated by max_paths_per_length")
          .add(static_cast<double>(khop_total.capped));
      if (!logistic) ml::SvmClassifier::record_decisions(active_count);
      // All mutation of the working state (predictions/scores/graph)
      // happens after this check, so a diverged classifier leaves the
      // last-good iteration intact for the fallback below.
      for (double v : decision)
        if (!std::isfinite(v))
          throw NumericError("FriendSeeker: non-finite decision scores at "
                             "iteration " +
                             std::to_string(iteration));

      obs::Span update_span("core.phase2.update");
      const double cut = tune_on_train(decision);
      // Hysteresis: borderline pairs keep their previous state, so the
      // graph settles instead of oscillating around the cut. The decision
      // spread is estimated on every scored row: the candidate rows first,
      // then the forced (non-candidate) train rows. The two passes fix the
      // summation order the pinned digests were recorded with.
      double margin = 0.0;
      if (config_.flip_margin > 0.0) {
        double mean = 0.0, sq = 0.0;
        std::size_t margin_rows = 0;
        for (std::size_t ai = 0; ai < active_count; ++ai) {
          if (!candidate[active_rows[ai]]) continue;
          mean += decision[ai];
          ++margin_rows;
        }
        for (std::size_t ai : train_active) {
          if (candidate[active_rows[ai]]) continue;
          mean += decision[ai];
          ++margin_rows;
        }
        mean /= static_cast<double>(margin_rows);
        for (std::size_t ai = 0; ai < active_count; ++ai) {
          if (!candidate[active_rows[ai]]) continue;
          const double delta = decision[ai] - mean;
          sq += delta * delta;
        }
        for (std::size_t ai : train_active) {
          if (candidate[active_rows[ai]]) continue;
          const double delta = decision[ai] - mean;
          sq += delta * delta;
        }
        margin = config_.flip_margin *
                 std::sqrt(sq / static_cast<double>(margin_rows));
      }
      for (std::size_t ai = 0; ai < active_count; ++ai) {
        const std::size_t row = active_rows[ai];
        if (!candidate[row]) {
          // A forced train row is scored but never labeled friend — the
          // candidate gate is part of the model.
          predictions[row] = 0;
        } else if (decision[ai] >= cut + margin) {
          predictions[row] = 1;
        } else if (decision[ai] < cut - margin) {
          predictions[row] = 0;
        }
        // else: inside the hysteresis band — keep the previous state.
        scores[row] = decision[ai];
      }

      graph::Graph next = graph_from_predictions(dataset.user_count(),
                                                 universe, predictions);
      const double change = graph::edge_change_ratio(current, next);
      current = std::move(next);
      edge_table.rebuild(current, d, edge_row);
      update_span.end();
      record_iteration(iteration, change, current);
      result.iterations_run = iteration;
      const double edges = static_cast<double>(current.edge_count());
      iter_span.arg("edges", edges);
      iter_span.arg("change", change);
      obs::tracer().counter("core.pipeline.edge_churn", change);
      obs::tracer().counter("core.pipeline.graph_edges", edges);
      obs::metrics()
          .gauge("core.pipeline.edge_churn", {},
                 "edge-change ratio of the latest phase-2 iteration")
          .set(change);
      obs::metrics()
          .gauge("core.pipeline.graph_edges", {},
                 "edge count of the current inferred graph")
          .set(edges);
      obs::metrics()
          .counter("core.pipeline.iterations_total", {},
                   "phase-2 refinement iterations executed")
          .add(1);
      util::log_debug("FriendSeeker: iter=", iteration,
                      " edges=", current.edge_count(), " change=", change,
                      " (", iter_span.seconds(), "s)");
      save_checkpoint_if_configured(iteration);
      // Simulated process kill at the iteration boundary, after the
      // checkpoint save. InjectedKill is not an fs::Error, so the
      // degradation catch below cannot swallow it — it unwinds to the top
      // like a real crash and the chaos harness resumes from disk.
      if (util::failpoint::fail("pipeline.iteration.abort"))
        throw util::failpoint::InjectedKill(
            "pipeline.iteration.abort: injected kill after iteration " +
            std::to_string(iteration));
      if (change < config_.convergence_threshold) {
        result.converged = true;
        break;
      }
      } catch (const Error& e) {
        const ErrorCode code = e.code();
        if (code != ErrorCode::kNumeric &&
            code != ErrorCode::kConvergence &&
            code != ErrorCode::kBudget && code != ErrorCode::kCancelled)
          throw;
        // Recoverable failures in phase 2 degrade gracefully: keep the
        // last-good graph (possibly the phase-1 seed) instead of failing
        // the whole attack. Numeric divergence keeps its diagnostics-only
        // reporting; budget/cancellation additionally land in the
        // structured DegradationReport.
        diagnostics.report(util::Severity::kError, code, "pipeline",
                           "phase-2 iteration " + std::to_string(iteration) +
                               " abandoned, keeping last-good graph: " +
                               e.what());
        if (code == ErrorCode::kBudget || code == ErrorCode::kCancelled)
          result.degradation.add(
              "phase2.refine",
              code == ErrorCode::kCancelled ? "cancelled" : "memory",
              e.what(), iteration - 1, config_.max_iterations);
        break;
      }
    }
    if (ctx != nullptr && !result.converged && !result.degradation.degraded() &&
        result.iterations_run == config_.max_iterations)
      result.degradation.add("phase2.refine", "iterations",
                             "iteration cap reached before convergence",
                             result.iterations_run, config_.max_iterations);
    result.fell_back_to_phase1 =
        result.iterations.size() == 1 &&
        result.iterations.front().iteration == 0;
  }

  result.test_predictions.reserve(test_rows.size());
  result.test_scores.reserve(test_rows.size());
  for (std::size_t row : test_rows) {
    result.test_predictions.push_back(predictions[row]);
    result.test_scores.push_back(scores[row]);
  }
  result.final_graph = std::move(current);
  if (ctx != nullptr) result.peak_memory_estimate = ctx->peak_charged();

  // ---- Blocking accounting. ----
  result.blocking = blocking_stats;
  obs::metrics()
      .counter("block.candidates_pruned", {},
               "candidate pairs pruned from the scored universe by blocking")
      .add(static_cast<double>(blocking_stats.pruned_pairs));
  obs::metrics()
      .gauge("block.universe_pairs", {},
             "candidate pairs supplied to the latest run")
      .set(static_cast<double>(blocking_stats.universe_pairs));
  obs::metrics()
      .gauge("block.scored_pairs", {},
             "pairs actually scored after blocking in the latest run")
      .set(static_cast<double>(blocking_stats.scored_pairs));
  // Mirror the run's sinks into gauges so --metrics-out captures them even
  // when the caller never inspects the result object.
  obs::bridge_diagnostics(diagnostics);
  obs::bridge_degradation(result.degradation);
  if (ctx != nullptr) obs::bridge_execution(*ctx);
  return result;
}

}  // namespace fs::core
