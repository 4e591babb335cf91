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
  util::Fnv1a fnv;
  for (int p : result.test_predictions)
    fnv.u64(static_cast<std::uint32_t>(p));
  for (double s : result.test_scores) fnv.f64(s);
  mix_graph(fnv, result.final_graph);
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
