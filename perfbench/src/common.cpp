/// \file common.cpp
/// Timing helpers, the result record, and the seeded inputs.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "perfbench.hpp"

namespace perfbench {

using namespace pil;

double mono_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void Result::fail_check(const std::string& what) {
  correct = false;
  failures.push_back(what);
  std::cerr << "perfbench: check failed: " << what << "\n";
}

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second.first)
                         ? metrics[i].second.first
                         : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
        << buf << ", \"unit\": \"" << metrics[i].second.second << "\"}";
  }
  out << "}}";
  return out.str();
}

pf::FlowConfig flow_config(int threads) {
  pf::FlowConfig cfg;
  cfg.window_um = 32.0;
  cfg.r = 2;
  cfg.layer = 0;
  cfg.threads = threads;
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Stubs tapping random trunks of `l`. Each candidate is applied to a
/// scratch copy and kept only if the net's RC tree still builds (a stub
/// running along one of the net's own branches would not be a tree).
std::vector<StubEdit> make_stubs(const layout::Layout& l, std::uint64_t seed) {
  Rng rng(seed);
  layout::Layout scratch = l;
  std::vector<StubEdit> out;
  while (static_cast<int>(out.size()) <= kStubCycle) {
    const auto net = static_cast<layout::NetId>(
        rng.uniform_int(0, static_cast<int>(l.num_nets()) - 1));
    const layout::WireSegment* trunk = nullptr;
    for (const layout::SegmentId sid : l.net(net).segments) {
      const layout::WireSegment& s = l.segment(sid);
      if (s.layer == 0 &&
          s.orientation() == layout::Orientation::kHorizontal &&
          s.length() >= 4.0 && (!trunk || s.length() > trunk->length()))
        trunk = &s;
    }
    const double frac = rng.uniform_real(0.1, 0.9);
    if (!trunk) continue;
    StubEdit e;
    e.net = net;
    const double x = trunk->a.x + frac * (trunk->b.x - trunk->a.x);
    const double y = trunk->a.y;
    e.a = {x, y};
    e.b = {x, l.die().yhi - y > 4.0 ? y + 2.5 : y - 2.5};
    const layout::SegmentId sid =
        scratch.add_segment(e.net, 0, e.a, e.b, e.width_um);
    bool ok = true;
    try {
      (void)rctree::RcTree::build(scratch, e.net);
    } catch (const Error&) {
      ok = false;
    }
    scratch.remove_segment(sid);
    if (ok) out.push_back(e);
  }
  return out;
}

}  // namespace

std::string layout_path(const std::string& dir, int k) {
  return dir + "/layout" + std::to_string(k) + ".pld";
}

std::string edits_path(const std::string& dir, int k) {
  return dir + "/edits" + std::to_string(k) + ".txt";
}

void generate_inputs(std::uint64_t seed, const std::string& dir) {
  layout::write_pld_file(layout::make_testcase_t1(), dir + "/probe.pld");
  for (int k = 0; k < kLayouts; ++k) {
    layout::SyntheticLayoutConfig cfg = layout::testcase_t1_config();
    cfg.seed = splitmix64(seed * kLayouts + static_cast<std::uint64_t>(k));
    const layout::Layout l = layout::generate_synthetic_layout(cfg);
    layout::write_pld_file(l, layout_path(dir, k));
    if (k >= kEcoLayouts) continue;
    std::ofstream out(edits_path(dir, k));
    char line[256];
    for (const StubEdit& e : make_stubs(l, splitmix64(cfg.seed ^ 0x5eed))) {
      std::snprintf(line, sizeof line, "add %d %.17g %.17g %.17g %.17g %.17g\n",
                    e.net, e.a.x, e.a.y, e.b.x, e.b.y, e.width_um);
      out << line;
    }
    if (!out) throw Error("cannot write edit stream in " + dir);
  }
}

std::vector<StubEdit> read_edits(const std::string& path) {
  std::istringstream in(read_file(path));
  std::vector<StubEdit> out;
  std::string op;
  StubEdit e;
  while (in >> op >> e.net >> e.a.x >> e.a.y >> e.b.x >> e.b.y >> e.width_um)
    out.push_back(e);
  PIL_REQUIRE(!out.empty(), "empty edit stream " + path);
  return out;
}

layout::Layout filled_layout(const layout::Layout& l,
                             const std::vector<geom::Rect>& fills) {
  layout::Layout filled = l;
  int count = 0;
  for (const geom::Rect& f : fills) {
    layout::Net net;
    net.name = "FILL" + std::to_string(count++);
    net.source = f.center();
    const layout::NetId nid = filled.add_net(net);
    filled.add_segment(nid, 0, {f.xlo, f.center().y}, {f.xhi, f.center().y},
                       f.height());
  }
  return filled;
}

}  // namespace perfbench
