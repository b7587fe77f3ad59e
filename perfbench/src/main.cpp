/// \file main.cpp
/// perfbench_driver: the compiled half of the PIL-Fill benchmark (the
/// launcher is perfbench/run.py).
///
///   perfbench_driver gen --seed N --dir D
///   perfbench_driver oneshot --method greedy|ilp2 --threads N --dir D
///                    --seconds S --trace 0|1
///   perfbench_driver job --method greedy|ilp2 --threads N --input F --t0 T
///   perfbench_driver eco --socket P --dir D --seconds S --trace 0|1 --t0 T
///   perfbench_driver selftest --dir D
///
/// `--t0` is the launcher's time.monotonic() just before it spawned the
/// process under test; set-up time is measured from it.

#include <iostream>
#include <sstream>

#include "perfbench.hpp"

namespace perfbench {
using namespace pil;

namespace {

bool mentions(const Result& r, const std::string& what) {
  for (const std::string& f : r.failures)
    if (f.find(what) != std::string::npos) return true;
  return false;
}

}  // namespace

/// Shows that each output check catches a deliberately corrupted output:
/// the genuine output passes, and a feature moved onto a wire, a wire
/// dropped from the output, a window pushed over U, an altered session
/// hash and a session whose edits were ignored each fail their check.
int run_selftest(const std::map<std::string, std::string>& opts) {
  const std::string dir = opts.at("dir");
  const std::string input = layout_path(dir, 0);
  const std::string in_text = read_file(input);
  const Geometry g = parse_pld_geometry(in_text);
  const layout::Layout l = layout::read_pld_file(input);
  const pf::FlowResult fr = pf::run_pil_fill_flow(l, flow_config(2), {pf::Method::kGreedy});
  const pf::MethodResult& mr = fr.methods[0];
  std::ostringstream out;
  layout::write_pld(filled_layout(l, mr.placement.features), out);
  const Geometry written = parse_pld_geometry(out.str());
  int bad = 0;
  auto expect = [&](const char* name, const Result& r, const char* failure) {
    const bool ok = failure ? mentions(r, failure) : r.correct;
    std::cout << "selftest " << name << ": " << (ok ? "ok" : "NOT DETECTED") << "\n";
    bad += !ok;
  };

  Result genuine;
  check_fill_output(in_text, g, written, mr.placed, mr.impact.delay_ps, 0.0, genuine);
  expect("genuine output passes", genuine, nullptr);

  Result on_wire;
  Geometry moved = written;
  const geom::Point c = g.wires[0].center();
  moved.fills[0] = {c.x - 0.25, c.y - 0.25, c.x + 0.25, c.y + 0.25};
  check_fill_output(in_text, g, moved, mr.placed, mr.impact.delay_ps, 0.0, on_wire);
  expect("feature moved onto a wire", on_wire, "buffer_um to a wire");

  Result dropped;
  Geometry no_wire = written;
  no_wire.wires.erase(no_wire.wires.begin() + static_cast<long>(no_wire.wires.size() / 2));
  check_fill_output(in_text, g, no_wire, mr.placed, mr.impact.delay_ps, 0.0, dropped);
  expect("wire dropped from the output", dropped, "output wires differ");

  // The density-cap check is `windows_over_upper(...) > 0`, as the
  // one-shot workloads apply it. No fill passes it; one window packed
  // solid with features (the top-right one) fails it. The genuine
  // placement breaks it in many windows (see windows_over_upper).
  std::vector<geom::Rect> packed;
  for (int i = 0; i < 64 * 64; ++i) {
    const double x = g.die.xhi - 32.0 + (i % 64) * 0.5;
    const double y = g.die.yhi - 32.0 + (i / 64) * 0.5;
    packed.push_back({x, y, x + 0.5, y + 0.5});
  }
  const int over_none = windows_over_upper(g, {});
  const int over_packed = windows_over_upper(g, packed);
  std::cout << "selftest windows above U: no fill " << over_none << ", packed "
            << over_packed << ", genuine " << windows_over_upper(g, written.fills)
            << "\n";
  Result no_fill, over_u;
  if (over_none > 0) no_fill.fail_check("windows above U");
  if (over_packed > 0) over_u.fail_check("windows above U");
  expect("no fill keeps every window at or below U", no_fill, nullptr);
  expect("window pushed over U", over_u, "windows above U");

  // Session hash: the stream add, remove, last add replayed in-process
  // gives the true hash.
  const std::vector<StubEdit> stubs = read_edits(edits_path(dir, 0));
  pf::FillSession session(l, flow_config(2));
  const std::uint64_t unedited = service::placement_fingerprint(
      session.solve({pf::Method::kIlp2}).methods[0].placement.features);
  layout::SegmentId added = layout::kInvalidSegment;
  for (long long i = 0; i < 3; ++i) {
    const StubEdit& e = stubs[stub_index(i, 3)];
    if (i % 2 == 0)
      added = session.apply_edit(pf::WireEdit::add_segment(e.net, e.a, e.b, e.width_um)).segment;
    else
      (void)session.apply_edit(pf::WireEdit::remove_segment(added));
  }
  const std::uint64_t hash = service::placement_fingerprint(
      session.solve({pf::Method::kIlp2}).methods[0].placement.features);
  Result true_hash, altered_hash, ignored;
  check_session(in_text, stubs, 3, hash, 3, true_hash);
  expect("true session hash passes", true_hash, nullptr);
  check_session(in_text, stubs, 3, hash ^ 1, 3, altered_hash);
  expect("altered session hash", altered_hash, "placement_hash");
  check_session(in_text, stubs, 3, unedited, 3, ignored);
  expect("edits acknowledged but not applied", ignored, "placement_hash");
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver gen|oneshot|eco|selftest --opt value ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  std::map<std::string, std::string> opts;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "perfbench_driver: unexpected argument " << key << "\n";
      return 2;
    }
    opts[key.substr(2)] = argv[i + 1];
  }
  try {
    if (cmd == "gen") {
      perfbench::generate_inputs(std::stoull(opts.at("seed")), opts.at("dir"));
      return 0;
    }
    if (cmd == "oneshot") return perfbench::run_oneshot(opts);
    if (cmd == "job") return perfbench::run_one_job(opts);
    if (cmd == "eco") return perfbench::run_eco(opts);
    if (cmd == "selftest") return perfbench::run_selftest(opts);
    std::cerr << "perfbench_driver: unknown command " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
