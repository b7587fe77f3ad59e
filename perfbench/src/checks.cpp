/// \file checks.cpp
/// Output checks that do not rely on the program's own checker: the
/// benchmark parses the written .pld / GDSII itself and recomputes the
/// design rules and window densities from the raw rectangles.

#include <algorithm>
#include <array>
#include <iterator>
#include <charconv>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "perfbench.hpp"

namespace perfbench {

using namespace pil;

namespace {

/// Drawn rect of a centerline segment (horizontal when y's agree).
geom::Rect seg_rect(double x0, double y0, double x1, double y1, double w) {
  const double h = w / 2;
  if (y0 == y1)
    return {std::min(x0, x1), y0 - h, std::max(x0, x1), y0 + h};
  return {x0 - h, std::min(y0, y1), x0 + h, std::max(y0, y1)};
}

/// Max-norm gap between two rects (0 when they touch or overlap).
double rect_gap(const geom::Rect& a, const geom::Rect& b) {
  const double dx = std::max({a.xlo - b.xhi, b.xlo - a.xhi, 0.0});
  const double dy = std::max({a.ylo - b.yhi, b.ylo - a.yhi, 0.0});
  return std::max(dx, dy);
}

/// Uniform-grid bucket index over rects.
class Buckets {
 public:
  explicit Buckets(double cell) : cell_(cell) {}
  void insert(int id, const geom::Rect& r) {
    visit(r, [&](long long k) { cells_[k].push_back(id); });
  }
  template <typename F>
  void near(const geom::Rect& r, F&& f) const {
    visit(r, [&](long long k) {
      const auto it = cells_.find(k);
      if (it != cells_.end())
        for (const int id : it->second) f(id);
    });
  }

 private:
  template <typename F>
  void visit(const geom::Rect& r, F&& f) const {
    const long long x0 = static_cast<long long>(std::floor(r.xlo / cell_));
    const long long x1 = static_cast<long long>(std::floor(r.xhi / cell_));
    const long long y0 = static_cast<long long>(std::floor(r.ylo / cell_));
    const long long y1 = static_cast<long long>(std::floor(r.yhi / cell_));
    for (long long y = y0; y <= y1; ++y)
      for (long long x = x0; x <= x1; ++x) f(y * 1000003LL + x);
  }
  double cell_;
  std::unordered_map<long long, std::vector<int>> cells_;
};

/// Window densities of `rects` (plus `extra`) on the W/r tile grid.
std::vector<double> window_densities(const geom::Rect& die,
                                     const std::vector<geom::Rect>& rects,
                                     const std::vector<geom::Rect>* extra,
                                     double window_um, int r) {
  const double tile = window_um / r;
  const int tx = static_cast<int>(std::ceil(die.width() / tile - 1e-9));
  const int ty = static_cast<int>(std::ceil(die.height() / tile - 1e-9));
  std::vector<double> area(static_cast<std::size_t>(tx) * ty, 0.0);
  auto add = [&](const geom::Rect& q) {
    const int ix0 = std::max(0, static_cast<int>((q.xlo - die.xlo) / tile));
    const int ix1 = std::min(tx - 1, static_cast<int>((q.xhi - die.xlo) / tile));
    const int iy0 = std::max(0, static_cast<int>((q.ylo - die.ylo) / tile));
    const int iy1 = std::min(ty - 1, static_cast<int>((q.yhi - die.ylo) / tile));
    for (int iy = iy0; iy <= iy1; ++iy)
      for (int ix = ix0; ix <= ix1; ++ix) {
        const double x0 = die.xlo + ix * tile, y0 = die.ylo + iy * tile;
        const double w = std::min(q.xhi, std::min(x0 + tile, die.xhi)) -
                         std::max(q.xlo, x0);
        const double h = std::min(q.yhi, std::min(y0 + tile, die.yhi)) -
                         std::max(q.ylo, y0);
        if (w > 0 && h > 0) area[static_cast<std::size_t>(iy) * tx + ix] += w * h;
      }
  };
  for (const auto& q : rects) add(q);
  if (extra)
    for (const auto& q : *extra) add(q);
  std::vector<double> dens;
  for (int wy = 0; wy + r <= ty; ++wy)
    for (int wx = 0; wx + r <= tx; ++wx) {
      double sum = 0.0;
      for (int dy = 0; dy < r; ++dy)
        for (int dx = 0; dx < r; ++dx)
          sum += area[static_cast<std::size_t>(wy + dy) * tx + wx + dx];
      const double ww = std::min(die.xlo + (wx + r) * tile, die.xhi) -
                        (die.xlo + wx * tile);
      const double wh = std::min(die.ylo + (wy + r) * tile, die.yhi) -
                        (die.ylo + wy * tile);
      dens.push_back(sum / (ww * wh));
    }
  return dens;
}

double read_gds_real(const unsigned char* p) {
  const int sign = (p[0] & 0x80) ? -1 : 1;
  const int exp = (p[0] & 0x7f) - 64;
  double mant = 0.0;
  for (int i = 1; i < 8; ++i) mant = mant * 256.0 + p[i];
  return sign * mant / std::pow(2.0, 56) * std::pow(16.0, exp);
}

}  // namespace

Geometry parse_pld_geometry(const std::string& text) {
  Geometry g;
  std::vector<std::string_view> layers;
  bool in_fill = false;
  std::string_view tok[8];
  auto num = [&](std::string_view t) {
    double v = 0.0;
    const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    PIL_REQUIRE(ec == std::errc() && end == t.data() + t.size(),
                "malformed number in .pld: " + std::string(t));
    return v;
  };
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    // Split the line on blanks (a line has at most 8 fields we read).
    int n = 0;
    for (std::size_t i = pos; i < eol && n < 8;) {
      while (i < eol && (text[i] == ' ' || text[i] == '\t' || text[i] == '\r')) ++i;
      const std::size_t b = i;
      while (i < eol && text[i] != ' ' && text[i] != '\t' && text[i] != '\r') ++i;
      if (i > b) tok[n++] = std::string_view(text.data() + b, i - b);
    }
    pos = eol + 1;
    if (n == 0 || tok[0][0] == '#') continue;
    if (tok[0] == "DIE" && n >= 5) {
      g.die = {num(tok[1]), num(tok[2]), num(tok[3]), num(tok[4])};
    } else if (tok[0] == "LAYER" && n >= 2) {
      layers.push_back(tok[1]);
    } else if (tok[0] == "NET" && n >= 2) {
      in_fill = tok[1].substr(0, 4) == "FILL";
    } else if (tok[0] == "SEG") {
      PIL_REQUIRE(n == 7, "malformed SEG line");
      const auto it = std::find(layers.begin(), layers.end(), tok[1]);
      PIL_REQUIRE(it != layers.end(), "SEG on an undeclared layer");
      if (it != layers.begin()) continue;  // only the fill layer, layer 0
      (in_fill ? g.fills : g.wires)
          .push_back(seg_rect(num(tok[2]), num(tok[3]), num(tok[4]),
                              num(tok[5]), num(tok[6])));
    }
  }
  PIL_REQUIRE(!g.die.empty(), "no DIE record");
  return g;
}

Geometry parse_gds_geometry(const std::string& data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t pos = 0;
  double um_per_dbu = 0.0;
  int layer = -1, datatype = -1;
  bool in_boundary = false;
  Geometry g;
  geom::Rect pending;
  bool have_xy = false;
  while (pos + 4 <= data.size()) {
    const std::size_t len = (static_cast<std::size_t>(p[pos]) << 8) | p[pos + 1];
    const int rec = p[pos + 2];
    PIL_REQUIRE(len >= 4 && pos + len <= data.size(), "corrupt GDS record");
    const unsigned char* body = p + pos + 4;
    const std::size_t n = len - 4;
    switch (rec) {
      case 0x03:  // UNITS: user units per dbu, meters per dbu
        PIL_REQUIRE(n == 16, "bad UNITS record");
        um_per_dbu = read_gds_real(body + 8) * 1e6;
        break;
      case 0x08:  // BOUNDARY
        in_boundary = true;
        layer = datatype = -1;
        have_xy = false;
        break;
      case 0x0D: layer = (body[0] << 8) | body[1]; break;
      case 0x0E: datatype = (body[0] << 8) | body[1]; break;
      case 0x10: {  // XY
        double xlo = 1e300, ylo = 1e300, xhi = -1e300, yhi = -1e300;
        for (std::size_t i = 0; i + 8 <= n; i += 8) {
          std::int32_t x, y;
          const std::uint32_t ux = (std::uint32_t(body[i]) << 24) |
                                   (std::uint32_t(body[i + 1]) << 16) |
                                   (std::uint32_t(body[i + 2]) << 8) | body[i + 3];
          const std::uint32_t uy = (std::uint32_t(body[i + 4]) << 24) |
                                   (std::uint32_t(body[i + 5]) << 16) |
                                   (std::uint32_t(body[i + 6]) << 8) | body[i + 7];
          std::memcpy(&x, &ux, 4);
          std::memcpy(&y, &uy, 4);
          xlo = std::min(xlo, x * um_per_dbu);
          xhi = std::max(xhi, x * um_per_dbu);
          ylo = std::min(ylo, y * um_per_dbu);
          yhi = std::max(yhi, y * um_per_dbu);
        }
        pending = {xlo, ylo, xhi, yhi};
        have_xy = true;
        break;
      }
      case 0x11:  // ENDEL
        if (in_boundary && have_xy) {
          if (layer == 100 && datatype == 1) g.fills.push_back(pending);
          if (layer == 1 && datatype == 0) g.wires.push_back(pending);
        }
        in_boundary = false;
        break;
      default: break;
    }
    pos += len;
    if (rec == 0x04) break;  // ENDLIB
  }
  PIL_REQUIRE(um_per_dbu > 0, "GDS stream without UNITS");
  return g;
}

namespace {

/// Number of rects in `a` that have no counterpart in `b` (multiset
/// difference), comparing coordinates on the `dbu_per_um` grid, or
/// exactly when it is 0.
long long rects_missing(std::vector<geom::Rect> a, std::vector<geom::Rect> b,
                        double dbu_per_um) {
  using Key = std::array<double, 4>;
  auto keys = [&](const std::vector<geom::Rect>& v) {
    std::vector<Key> k;
    k.reserve(v.size());
    for (const geom::Rect& r : v) {
      Key q{r.xlo, r.ylo, r.xhi, r.yhi};
      if (dbu_per_um > 0)
        for (double& c : q) c = static_cast<double>(std::llround(c * dbu_per_um));
      k.push_back(q);
    }
    std::sort(k.begin(), k.end());
    return k;
  };
  const std::vector<Key> ka = keys(a), kb = keys(b);
  std::vector<Key> diff;
  std::set_difference(ka.begin(), ka.end(), kb.begin(), kb.end(),
                      std::back_inserter(diff));
  return static_cast<long long>(diff.size());
}

}  // namespace

void check_fill_output(const std::string& input_pld, const Geometry& input,
                       const Geometry& output, long long placed,
                       double delay_ps, double dbu_per_um, Result& res) {
  const pf::FlowConfig cfg = flow_config(1);
  const fill::FillRules& rules = cfg.rules;
  const geom::Rect& die = input.die;
  const std::vector<geom::Rect>& fills = output.fills;
  // Coordinates written on a grid are off by up to half a grid step.
  const double tol_um = dbu_per_um > 0 ? 1.5 / dbu_per_um : 1e-9;

  const long long lost = rects_missing(input.wires, output.wires, dbu_per_um);
  const long long extra = rects_missing(output.wires, input.wires, dbu_per_um);
  if (lost || extra)
    res.fail_check("output wires differ from the input's: " +
                   std::to_string(lost) + " missing, " + std::to_string(extra) +
                   " not in the input");

  if (static_cast<long long>(fills.size()) != placed)
    res.fail_check("output holds " + std::to_string(fills.size()) +
                   " features, the flow reported " + std::to_string(placed));

  long long bad_size = 0, outside = 0, bad_gap = 0, bad_buffer = 0;
  Buckets wires(4.0), feats(4.0);
  for (std::size_t i = 0; i < input.wires.size(); ++i)
    wires.insert(static_cast<int>(i), input.wires[i]);
  for (std::size_t i = 0; i < fills.size(); ++i)
    feats.insert(static_cast<int>(i), fills[i]);
  for (std::size_t i = 0; i < fills.size(); ++i) {
    const geom::Rect& f = fills[i];
    if (std::abs(f.width() - rules.feature_um) > tol_um ||
        std::abs(f.height() - rules.feature_um) > tol_um)
      ++bad_size;
    if (f.xlo < die.xlo - tol_um || f.ylo < die.ylo - tol_um ||
        f.xhi > die.xhi + tol_um || f.yhi > die.yhi + tol_um)
      ++outside;
    bool gap_hit = false, buf_hit = false;
    feats.near(f.inflated(rules.gap_um), [&](int j) {
      if (j != static_cast<int>(i) &&
          rect_gap(f, fills[j]) < rules.gap_um - tol_um)
        gap_hit = true;
    });
    wires.near(f.inflated(rules.buffer_um), [&](int w) {
      if (rect_gap(f, input.wires[w]) < rules.buffer_um - tol_um) buf_hit = true;
    });
    bad_gap += gap_hit;
    bad_buffer += buf_hit;
  }
  if (bad_size) res.fail_check(std::to_string(bad_size) + " features not feature_um square");
  if (outside) res.fail_check(std::to_string(outside) + " features outside the die");
  if (bad_gap) res.fail_check(std::to_string(bad_gap) + " features closer than gap_um to another");
  if (bad_buffer) res.fail_check(std::to_string(bad_buffer) + " features closer than buffer_um to a wire");

  const std::vector<double> before =
      window_densities(die, input.wires, nullptr, cfg.window_um, cfg.r);
  const std::vector<double> after =
      window_densities(die, output.wires, &fills, cfg.window_um, cfg.r);
  long long fell = 0;
  for (std::size_t w = 0; w < before.size(); ++w)
    if (after[w] < before[w] - 1e-12) ++fell;
  if (fell) res.fail_check(std::to_string(fell) + " windows lost density");

  // Delay re-evaluated on the read-back geometry with the public evaluator.
  std::istringstream in(input_pld);
  const layout::Layout l = layout::read_pld(in);
  const grid::Dissection dis(l.die(), cfg.window_um, cfg.r);
  const auto pieces = fill::flatten_pieces(rctree::build_all_trees(l));
  fill::GlobalSlackScan scan(l, dis, cfg.layer, rules);
  scan.build(pieces);
  const fill::SlackColumns global = scan.snapshot();
  const cap::CouplingModel model(l.layer(0).eps_r, l.layer(0).thickness_um);
  const pf::DelayImpactEvaluator eval(global, pieces, model, rules);
  const double re = eval.evaluate_rects(fills).delay_ps;
  if (!(std::abs(re - delay_ps) <= 1e-9 * std::max(1.0, std::abs(delay_ps))))
    res.fail_check("delay re-evaluated on the written geometry is " +
                   std::to_string(re) + " ps, the flow reported " +
                   std::to_string(delay_ps) + " ps");
}

int windows_over_upper(const Geometry& input,
                       const std::vector<geom::Rect>& fills) {
  const pf::FlowConfig cfg = flow_config(1);
  const std::vector<double> before =
      window_densities(input.die, input.wires, nullptr, cfg.window_um, cfg.r);
  const std::vector<double> after =
      window_densities(input.die, input.wires, &fills, cfg.window_um, cfg.r);
  const double lower = *std::max_element(before.begin(), before.end());
  const double upper = lower + 2.0 * cfg.rules.feature_area() /
                                   (cfg.window_um * cfg.window_um);
  int over = 0;
  for (const double d : after) over += d > upper + 1e-9;
  return over;
}

std::size_t stub_index(long long i, long long edits_applied) {
  if (i == edits_applied - 1) return kStubCycle;
  return static_cast<std::size_t>(i / 2 % kStubCycle);
}

double check_session(const std::string& layout_pld,
                     const std::vector<StubEdit>& stubs, long long edits_applied,
                     std::uint64_t reported_hash, long long reported_edit_seq,
                     Result& res) {
  if (reported_edit_seq != edits_applied)
    res.fail_check("session edit_seq " + std::to_string(reported_edit_seq) +
                   " after " + std::to_string(edits_applied) + " edits");
  if (edits_applied % 2 == 0)
    res.fail_check("session ended after " + std::to_string(edits_applied) +
                   " edits, not on an add");
  std::istringstream in(layout_pld);
  layout::Layout l = layout::read_pld(in);
  layout::SegmentId last = layout::kInvalidSegment;
  for (long long i = 0; i < edits_applied; ++i) {
    if (i % 2 == 0 || i == edits_applied - 1) {
      const StubEdit& e = stubs[stub_index(i, edits_applied)];
      last = l.add_segment(e.net, 0, e.a, e.b, e.width_um);
    } else {
      l.remove_segment(last);
    }
  }
  const pf::FlowResult fr =
      pf::run_pil_fill_flow(l, flow_config(2), {pf::Method::kIlp2});
  const std::uint64_t h =
      service::placement_fingerprint(fr.methods[0].placement.features);
  if (h != reported_hash)
    res.fail_check("session placement_hash differs from a from-scratch flow "
                   "on the edited layout");
  return fr.methods[0].impact.delay_ps;
}

}  // namespace perfbench
