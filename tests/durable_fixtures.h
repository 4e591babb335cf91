// Fixed inputs for the durable-file tests: one checkpoint, snapshot and
// journal, each built without training or random draws so their bytes are
// a pure function of this file. durable_test pins their digests;
// mutation_test corrupts them.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "stream/journal.h"
#include "util/binary_io.h"

namespace fs::durable_fixtures {

/// A presence model written field by field: no training, so its bytes do
/// not depend on the floating-point kernels of the build.
inline core::PresenceModel fixed_presence_model() {
  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  util::BinaryWriter w(bytes);
  w.tag("PRES");
  w.u64(4);  // feature_dim
  w.i64(1);
  w.u64(320);
  w.f64(0.005);
  w.f64(1.0);
  w.i64(18);
  w.u64(16);
  w.u64(3);  // knn_k
  w.u64(800);
  w.u64(2500);
  w.u64(13);
  w.tag("SAE1");
  for (const std::uint64_t v : {2, 4, 2}) w.u64(v);  // encoder dims {4, 2}
  for (const std::uint64_t v : {1, 2}) w.u64(v);     // classifier hidden {2}
  w.f64(0.005);
  w.f64(1.0);
  w.i64(18);
  w.u64(16);
  w.u64(13);
  w.u64(1);
  w.f64(5.0);
  w.i64(2);
  w.f64(0.5);
  double next = 0.25;
  const auto mlp = [&](const std::vector<std::size_t>& dims) {
    w.tag("MLP0");
    w.u64(dims.size() - 1);
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
      w.tag("DNSE");
      w.u64(dims[l + 1]);
      w.u64(dims[l]);
      w.u64(l + 2 < dims.size() ? 1 : 0);  // relu inside, identity last
      std::vector<double> weights(dims[l + 1] * dims[l]);
      for (double& x : weights) x = (next += 0.125);
      w.f64_vector(weights);
      w.f64_vector(std::vector<double>(dims[l + 1], -next));
    }
  };
  mlp({4, 2});
  mlp({2, 4});
  mlp({2, 2, 1});
  w.tag("SCLR");
  w.f64_vector({0.5, -1.5});
  w.f64_vector({2.0, 0.25});
  w.tag("KNN0");
  w.u64(3);
  w.u64(4);
  w.u64(2);
  w.f64_vector({0.0, 1.0, 1.0, 0.0, -1.0, 2.5, 3.0, -0.5});
  w.i32_vector({1, 0, 1, 0});
  util::BinaryReader r(bytes);
  return core::PresenceModel::load(r);
}

inline core::PipelineCheckpoint fixed_checkpoint() {
  core::PipelineCheckpoint checkpoint;
  checkpoint.fingerprint = 0x0123456789abcdefULL;
  checkpoint.iteration = 2;
  checkpoint.predictions = {1, 0, 1, 1, 0};
  checkpoint.scores = {0.5, -1.25, 2.0, 0.75, -0.5};
  checkpoint.presence.emplace(fixed_presence_model());
  return checkpoint;
}

inline stream::RawEvent fixed_event(std::uint64_t seq) {
  stream::RawEvent e;
  e.seq = seq;
  e.event_id = 100 + seq;
  e.has_explicit_id = seq % 2 == 1;
  e.user = 7 + static_cast<long long>(seq);
  e.time = 1287532800 + 3600 * static_cast<long long>(seq);
  e.location = {30.25 + 0.5 * seq, -97.75 - 0.25 * seq};
  e.poi = 40 + static_cast<long long>(seq);
  e.line = "line-" + std::to_string(seq);
  return e;
}

inline stream::Snapshot fixed_snapshot() {
  stream::Snapshot snapshot;
  snapshot.config_fingerprint = 0xfeedULL;
  snapshot.consumed_lines = 17;
  snapshot.shed_total = 2;
  for (std::size_t i = 0; i < snapshot.quarantine_counts.size(); ++i)
    snapshot.quarantine_counts[i] = 3 * i + 1;
  for (std::uint64_t seq = 0; seq < 3; ++seq)
    snapshot.events.push_back(fixed_event(seq));
  return snapshot;
}

inline void write_fixed_journal(const std::string& path) {
  stream::JournalWriter writer(path);
  writer.append_accepted(0, fixed_event(0));
  writer.append_quarantined(1, stream::RejectReason::kBadTimestamp, "1\tbad");
  writer.append_shed(2, "shed-line");
  writer.append_accepted(3, fixed_event(1));
}

}  // namespace fs::durable_fixtures
