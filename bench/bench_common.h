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

}  // namespace fs::bench
