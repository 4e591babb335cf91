// Named bench/test presets: world + seeker scaling shared by perf_bench,
// the golden regression test, and the blocking inertness tests — one
// definition so a preset drift cannot silently fork the bench from the
// tests that pin it.
#pragma once

#include <string>

#include "core/pipeline.h"
#include "data/synthetic.h"

namespace fs::eval {

/// World + seeker scaling per preset. "tiny" is sized for CI smoke runs
/// (seconds); the named presets match the bench suite's sweep scale.
struct BenchPreset {
  data::SyntheticWorldConfig world;
  core::FriendSeekerConfig seeker;
};

/// Returns the preset by name: "tiny", "gowalla", or "brightkite".
/// Throws std::invalid_argument for anything else.
BenchPreset bench_preset(const std::string& name);

}  // namespace fs::eval
