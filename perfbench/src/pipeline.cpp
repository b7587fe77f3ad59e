/// \file pipeline.cpp
/// The fill flow composed from each module's public functions, with a span
/// around every call: this is how the traced run attributes a job's time
/// to layout, grid, rctree, fill, density, pilfill, lp and ilp without any
/// tracing inside the program.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

using namespace pil;

namespace {

/// Times one call into `spans` (when tracing) and returns its value.
template <typename F>
auto timed(Spans* spans, const char* name, F&& f) {
  const double t = mono_now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    if (spans) spans->time(name, mono_now() - t);
  } else {
    auto v = f();
    if (spans) spans->time(name, mono_now() - t);
    return v;
  }
}

pf::SolverContext context(const pf::FlowConfig& cfg,
                          const cap::CouplingModel& model,
                          cap::ColumnCapLut& lut) {
  pf::SolverContext ctx;
  ctx.model = &model;
  ctx.lut = &lut;
  ctx.rules = cfg.rules;
  ctx.objective = cfg.objective;
  ctx.ilp = cfg.ilp;
  return ctx;
}

double tile_cost(const pf::TileInstance& inst, const std::vector<int>& counts,
                 const pf::SolverContext& ctx) {
  double cost = 0.0;
  for (std::size_t k = 0; k < inst.cols.size(); ++k) {
    const pf::InstanceColumn& c = inst.cols[k];
    if (!c.two_sided || c.num_sites == 0 || counts[k] == 0) continue;
    cost += pf::column_cost_table(ctx, c.d, c.num_sites)[counts[k]] *
            c.res_nonweighted;
  }
  return cost;
}

}  // namespace

Composed run_composed(const std::string& input_path, pf::Method method,
                      int threads, Spans* spans, bool stop_after_prep) {
  const pf::FlowConfig cfg = flow_config(threads);
  Composed out;

  const layout::Layout l = timed(spans, "layout.read_pld",
                                 [&] { return layout::read_pld_file(input_path); });
  const grid::Dissection dis = timed(spans, "grid.dissection", [&] {
    return grid::Dissection(l.die(), cfg.window_um, cfg.r);
  });
  grid::DensityMap wires(dis);
  timed(spans, "grid.density_map", [&] {
    wires.add_layer_wires(l, cfg.layer);
    wires.add_layer_metal_blockages(l, cfg.layer);
  });
  const std::vector<rctree::WirePiece> pieces = timed(spans, "rctree.trees", [&] {
    return fill::flatten_pieces(rctree::build_all_trees(l));
  });
  const fill::SlackColumns slack = timed(spans, "fill.slack_scan", [&] {
    fill::GlobalSlackScan scan(l, dis, cfg.layer, cfg.rules);
    scan.build(pieces);
    return scan.snapshot();
  });
  const density::FillTargetResult target = timed(spans, "density.targeting", [&] {
    std::vector<int> capacity(dis.num_tiles());
    for (int t = 0; t < dis.num_tiles(); ++t) capacity[t] = slack.tile_capacity(t);
    return density::compute_fill_amounts_mc(wires, capacity, cfg.rules,
                                            cfg.target);
  });
  timed(spans, "pilfill.instances", [&] {
    pf::PrepColumns scratch;
    for (int t = 0; t < dis.num_tiles(); ++t)
      if (target.features_per_tile[t] > 0)
        out.instances.push_back(pf::build_tile_instance(
            t, target.features_per_tile[t], slack, pieces, {}, &scratch));
  });
  if (spans) {
    spans->count("rctree.pieces", static_cast<double>(pieces.size()));
    spans->count("fill.slack_columns", static_cast<double>(slack.columns().size()));
    spans->count("density.features_targeted", static_cast<double>(target.total_features));
    spans->count("pilfill.tiles_required", static_cast<double>(out.instances.size()));
  }
  if (stop_after_prep) return out;

  const cap::CouplingModel model(l.layer(cfg.layer).eps_r,
                                 l.layer(cfg.layer).thickness_um);
  std::vector<pf::TileSolveResult> solved(out.instances.size());
  timed(spans, "pilfill.solve", [&] {
    // Tiles are independent; each worker owns its LUT (the cache is not
    // thread-safe), as the flow's own worker pool does.
    std::atomic<std::size_t> next{0};
    auto work = [&] {
      cap::ColumnCapLut lut(model, cfg.rules.feature_um);
      const pf::SolverContext ctx = context(cfg, model, lut);
      Rng rng(cfg.seed);  // only Normal draws from it
      for (std::size_t i = next++; i < solved.size(); i = next++)
        solved[i] = pf::solve_tile(method, out.instances[i], ctx, rng);
    };
    std::vector<std::thread> pool;
    for (int w = 1; w < threads; ++w) pool.emplace_back(work);
    work();
    for (auto& th : pool) th.join();
  });
  out.features_per_tile.assign(dis.num_tiles(), 0);
  long long simplex = 0, dual = 0, warm = 0, nodes = 0, lps = 0;
  for (std::size_t i = 0; i < solved.size(); ++i) {
    const pf::TileInstance& inst = out.instances[i];
    const pf::TileSolveResult& r = solved[i];
    out.features_per_tile[inst.tile_flat] = r.placed;
    out.placed += r.placed;
    simplex += r.simplex_iterations;
    dual += r.dual_iterations;
    warm += r.warm_starts;
    nodes += r.bb_nodes;
    lps += r.lp_solves;
    for (std::size_t k = 0; k < inst.cols.size(); ++k) {
      const fill::SlackColumn& col = slack.columns()[inst.cols[k].column];
      for (int s = 0; s < r.counts[k]; ++s)
        out.features.push_back(
            slack.site_rect(col, inst.cols[k].first_site + s, cfg.rules));
    }
  }
  out.delay_ps = timed(spans, "pilfill.eval", [&] {
    const pf::DelayImpactEvaluator eval(slack, pieces, model, cfg.rules);
    return eval.evaluate_rects(out.features).delay_ps;
  });
  std::ostringstream text;
  if (method == pf::Method::kGreedy)
    timed(spans, "layout.write_pld", [&] {
      layout::write_pld(filled_layout(l, out.features), text);
    });
  else
    timed(spans, "layout.write_gds", [&] {
      layout::write_gds(l, out.features, text);
    });
  out.output = std::move(text).str();
  if (spans) {
    spans->count("layout.output_mb", static_cast<double>(out.output.size()) / 1e6);
    spans->count("pilfill.features_placed", static_cast<double>(out.placed));
    spans->count("lp.simplex_iterations", static_cast<double>(simplex));
    spans->count("lp.dual_iterations", static_cast<double>(dual));
    spans->count("lp.warm_starts", static_cast<double>(warm));
    spans->count("ilp.bb_nodes", static_cast<double>(nodes));
    spans->count("ilp.lp_solves", static_cast<double>(lps));
  }
  return out;
}

int check_solver_costs(const std::vector<pf::TileInstance>& instances,
                       const layout::Layout& layout, Result& res) {
  const pf::FlowConfig cfg = flow_config(1);
  const cap::CouplingModel model(layout.layer(0).eps_r,
                                 layout.layer(0).thickness_um);
  cap::ColumnCapLut lut(model, cfg.rules.feature_um);
  const pf::SolverContext ctx = context(cfg, model, lut);
  int bad_exact = 0, bad_greedy = 0;
  for (const pf::TileInstance& inst : instances) {
    const double ilp2 = tile_cost(inst, pf::solve_tile_ilp2(inst, ctx).counts, ctx);
    const double conv = tile_cost(inst, pf::solve_tile_convex(inst, ctx).counts, ctx);
    const double greedy = tile_cost(inst, pf::solve_tile_greedy(inst, ctx).counts, ctx);
    const double tol = 1e-9 * std::max({1e-30, std::abs(ilp2), std::abs(conv)});
    if (std::abs(ilp2 - conv) > tol) ++bad_exact;
    if (ilp2 > greedy + tol) ++bad_greedy;
  }
  if (bad_exact)
    res.fail_check(std::to_string(bad_exact) + " tiles where ILP-II and Convex costs differ");
  if (bad_greedy)
    res.fail_check(std::to_string(bad_greedy) + " tiles where ILP-II costs more than Greedy");
  return static_cast<int>(instances.size());
}

}  // namespace perfbench
