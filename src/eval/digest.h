// FNV-1a result fingerprints shared by perf_bench, the golden regression
// test, and the blocking inertness tests.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "graph/graph.h"

namespace fs::eval {

/// FNV-1a over everything an attack run computes: per-pair predictions,
/// score bit patterns, and the final graph's adjacency. Two runs are
/// byte-identical iff their digests match.
std::string result_digest(const core::FriendSeekerResult& result);

/// The same digest over any attack's parts: its test predictions and
/// scores and the graph it predicts.
std::string result_digest(const std::vector<int>& test_predictions,
                          const std::vector<double>& test_scores,
                          const graph::Graph& predicted);

/// FNV-1a over the final graph's adjacency alone: comparable between runs
/// whose test lists differ, such as a run and the same run with extra
/// pruned pairs, which the inertness tests pin.
std::string graph_digest(const graph::Graph& g);

/// Compiler + C library + fs::kern ISA-path fingerprint. Result digests are
/// only bit-comparable between builds that agree on it (FP contraction,
/// libm, and per-ISA accumulation order legitimately change low-order
/// bits), so golden/diff comparisons gate their exact-digest checks on it
/// and fall back to tolerance-banded quality across fingerprints.
std::string toolchain_fingerprint();

/// FNV-1a over a string (canonical-JSON config fingerprints and cache keys
/// share one hash so fingerprints are comparable across tools).
std::string text_digest(const std::string& text);

}  // namespace fs::eval
