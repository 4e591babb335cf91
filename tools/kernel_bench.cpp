// kernel_bench — fs::kern micro-benchmark. Sweeps the GEMM macro-kernel
// and the quantized-KNN lower-bound kernel over every ISA path this host
// supports (pinned per measurement with kern::force_path) and writes a
// machine-readable JSON report: GFLOP/s per (path, variant, shape) and
// lower-bound throughput per path, so kernel regressions show up as a
// number diff instead of a pipeline-level slowdown with no attribution.
//
//   kernel_bench [--out kernel_bench.json] [--threads N] [--min-ms 80]
//                [--quick]
//
// Shapes mirror the pipeline's real products: the gowalla autoencoder's
// mini-batch training GEMMs (m = batch 16, JOC width 1380, hidden 320) in
// the nn/nt/tn variant each one actually runs, batch encoding (m = corpus
// rows), and the KNN reference scan. Every GEMM is timed at --threads.
// --quick shrinks reps and the shape list for CI smoke.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "kern/kern.h"
#include "nn/matrix.h"
#include "obs/json.h"
#include "par/pool.h"
#include "util/aligned.h"
#include "util/args.h"
#include "util/rng.h"

namespace {

using namespace fs;
namespace json = obs::json;

struct Shape {
  /// "nn": C = A B; "nt": C = A B^T (Dense::forward); "tn": C = A^T B
  /// (Dense weight gradients).
  const char* variant;
  std::size_t m, n, k;
  const char* what;  // which pipeline product this stands in for
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `body` with rep-doubling until the measured wall clears `min_ms`
/// (one warm-up call first), returning {wall_ms, reps}.
template <typename Body>
std::pair<double, std::size_t> measure(double min_ms, const Body& body) {
  body();  // warm-up: touch pages, resolve dispatch, fill pack scratch
  std::size_t reps = 1;
  for (;;) {
    const double start = now_ms();
    for (std::size_t r = 0; r < reps; ++r) body();
    const double wall = now_ms() - start;
    if (wall >= min_ms || reps >= (1u << 20)) return {wall, reps};
    reps *= 2;
  }
}

json::Object bench_gemm(const Shape& shape, double min_ms, util::Rng& rng) {
  // Operands in their stored layout: A is k x m for tn, B is n x k for nt.
  kern::GemmCall call;
  call.m = shape.m;
  call.n = shape.n;
  call.k = shape.k;
  call.a_trans = shape.variant[0] == 't';
  call.b_trans = shape.variant[1] == 't';
  nn::Matrix a(call.a_trans ? shape.k : shape.m,
               call.a_trans ? shape.m : shape.k);
  nn::Matrix b(call.b_trans ? shape.n : shape.k,
               call.b_trans ? shape.k : shape.n);
  nn::Matrix c(shape.m, shape.n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();
  call.a = a.data();
  call.lda = a.cols();
  call.b = b.data();
  call.ldb = b.cols();
  call.c = c.data();
  call.ldc = shape.n;

  const auto [wall_ms, reps] = measure(min_ms, [&] { kern::gemm(call); });
  const double flops = 2.0 * static_cast<double>(shape.m) *
                       static_cast<double>(shape.n) *
                       static_cast<double>(shape.k) *
                       static_cast<double>(reps);
  json::Object entry;
  entry["what"] = std::string(shape.what);
  entry["variant"] = std::string(shape.variant);
  entry["m"] = shape.m;
  entry["n"] = shape.n;
  entry["k"] = shape.k;
  entry["reps"] = reps;
  entry["wall_ms"] = wall_ms;
  entry["gflops"] = wall_ms > 0.0 ? flops / (wall_ms * 1e6) : 0.0;
  return entry;
}

json::Object bench_knn_lb(std::size_t rows, std::size_t dim, double min_ms,
                          util::Rng& rng) {
  std::vector<std::uint8_t, util::AlignedAllocator<std::uint8_t>> codes(
      rows * dim);
  std::vector<float> query(dim), scale(dim), offset(dim), half(dim),
      lb(rows);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.range(0, 255));
  for (std::size_t c = 0; c < dim; ++c) {
    query[c] = static_cast<float>(rng.normal());
    scale[c] = 0.01f;
    offset[c] = -1.0f;
    half[c] = 0.005f;
  }
  const auto [wall_ms, reps] = measure(min_ms, [&] {
    kern::knn_lower_bounds(codes.data(), rows, dim, query.data(),
                           scale.data(), offset.data(), half.data(),
                           lb.data());
  });
  const double total_rows =
      static_cast<double>(rows) * static_cast<double>(reps);
  json::Object entry;
  entry["rows"] = rows;
  entry["dim"] = dim;
  entry["reps"] = reps;
  entry["wall_ms"] = wall_ms;
  entry["mrows_per_s"] =
      wall_ms > 0.0 ? total_rows / (wall_ms * 1e3) : 0.0;
  entry["gbytes_per_s"] =
      wall_ms > 0.0
          ? total_rows * static_cast<double>(dim) / (wall_ms * 1e6)
          : 0.0;
  return entry;
}

int run(const util::ArgParser& args) {
  par::set_threads(static_cast<std::size_t>(args.get_int("threads")));
  const bool quick = args.get_flag("quick");
  const double min_ms = quick ? 5.0 : args.get_double("min-ms");

  // Stand-ins for the pipeline's actual hot products: the gowalla
  // autoencoder's mini-batch training GEMMs (encoder 1380 -> 320 -> 48),
  // corpus-wide encodes, plus square stress shapes.
  std::vector<Shape> shapes = {
      {"nt", 16, 320, 1380, "encoder.l1.forward (mini-batch)"},
      {"nt", 16, 1380, 320, "decoder.l2.forward (mini-batch)"},
      {"tn", 320, 1380, 16, "encoder.l1.grad_weights"},
      {"nn", 16, 320, 1380, "decoder.l2.grad_input"},
      {"nt", 800, 48, 320, "encode (corpus rows)"},
      {"nn", 256, 256, 256, "square"},
  };
  if (!quick) shapes.push_back({"nn", 512, 512, 512, "square-large"});

  json::Array paths;
  for (const kern::IsaPath path : kern::supported_paths()) {
    kern::force_path(path);
    util::Rng rng(20260809);  // same operands for every path
    json::Object section;
    section["path"] = std::string(kern::path_name(path));
    json::Array gemm;
    for (const Shape& shape : shapes)
      gemm.emplace_back(bench_gemm(shape, min_ms, rng));
    section["gemm"] = std::move(gemm);
    section["knn_lb"] =
        bench_knn_lb(quick ? 1024 : 4096, 64, min_ms, rng);
    paths.emplace_back(std::move(section));
  }

  json::Object root;
  root["schema_version"] = 2;
  root["threads"] = par::threads();
  root["paths"] = std::move(paths);

  const json::Value report(std::move(root));
  json::write_file(args.get("out"), report, 2);

  // Human-readable recap: GFLOP/s per (path, variant, shape).
  std::printf("threads %zu\n", par::threads());
  for (const json::Value& section : report.at("paths").as_array()) {
    const char* path = section.at("path").as_string().c_str();
    for (const json::Value& entry : section.at("gemm").as_array())
      std::printf("%-7s %s(%4.0f,%4.0f,%4.0f) %7.2f GFLOP/s  %s\n", path,
                  entry.at("variant").as_string().c_str(),
                  entry.at("m").as_number(), entry.at("n").as_number(),
                  entry.at("k").as_number(), entry.at("gflops").as_number(),
                  entry.at("what").as_string().c_str());
    std::printf("%-7s knn_lb %.1f Mrows/s\n", path,
                section.at("knn_lb").at("mrows_per_s").as_number());
  }
  std::printf("wrote %s\n", args.get("out").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args;
  args.add_option("out", "kernel_bench.json", "JSON report output file");
  args.add_option("threads", "1",
                  "worker threads for the GEMM parallel region (1 gives "
                  "clean per-ISA numbers; results are identical regardless)");
  args.add_option("min-ms", "80",
                  "minimum measured wall per (path, shape); reps double "
                  "until it is reached");
  args.add_flag("quick", "CI smoke: small shapes, short measurements");
  args.add_flag("help", "show options");
  try {
    args.parse(argc, argv);
    if (args.get_flag("help")) {
      std::fputs(args.help().c_str(), stderr);
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kernel_bench: %s\n", e.what());
    return 1;
  }
}
