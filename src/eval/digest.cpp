#include "eval/digest.h"

#include <sstream>

#include "kern/kern.h"
#include "util/fnv.h"

namespace fs::eval {

namespace {

void mix_graph(util::Fnv1a& fnv, const graph::Graph& g) {
  fnv.u64(g.node_count());
  for (graph::NodeId v = 0; v < g.node_count(); ++v)
    for (graph::NodeId w : g.neighbors(v))
      if (v < w) {
        fnv.u64(v);
        fnv.u64(w);
      }
}

}  // namespace

std::string result_digest(const core::FriendSeekerResult& result) {
  return result_digest(result.test_predictions, result.test_scores,
                       result.final_graph);
}

std::string result_digest(const std::vector<int>& test_predictions,
                          const std::vector<double>& test_scores,
                          const graph::Graph& predicted) {
  util::Fnv1a fnv;
  for (int p : test_predictions) fnv.u64(static_cast<std::uint32_t>(p));
  for (double s : test_scores) fnv.f64(s);
  mix_graph(fnv, predicted);
  return fnv.hex();
}

std::string graph_digest(const graph::Graph& g) {
  util::Fnv1a fnv;
  mix_graph(fnv, g);
  return fnv.hex();
}

std::string toolchain_fingerprint() {
  std::ostringstream oss;
  oss << __VERSION__;
#ifdef __GLIBC__
  oss << " glibc-" << __GLIBC__ << "." << __GLIBC_MINOR__;
#endif
  oss << " kern-" << kern::path_name(kern::active_path());
  return oss.str();
}

std::string text_digest(const std::string& text) {
  util::Fnv1a fnv;
  fnv.text(text);
  return fnv.hex();
}

}  // namespace fs::eval
