/// \file eco.cpp
/// The ECO workload's client: two connections to one pilserve, each with
/// its own warm session, in a closed loop of (apply_edit, solve) rounds.
/// Edits alternate between adding a stub and removing the stub added
/// before; once the time is up each session gets one last add, so it ends
/// on an edited geometry that the checks rebuild. The service is then
/// checked on further layouts, one edit and one solve each.

#include <algorithm>
#include <barrier>
#include <iostream>
#include <sstream>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

using namespace pil;

namespace {

struct Round {
  int kind = 0;  ///< 2 * stub + (1 for a remove): rounds of one kind repeat
  double ms = 0.0;
  double end = 0.0;  ///< mono_now() when the solve response arrived
  service::StageBreakdown stages;  ///< summed over the round's two requests
};

struct Session {
  std::string layout_pld;
  std::vector<StubEdit> stubs;
  std::string id;
  long long edits = 0;
  std::uint64_t final_hash = 0;
  long long final_edit_seq = 0;
  double final_delay_ps = 0.0;
};

/// One connection of the timed loop and its session.
struct Connection {
  Session session;
  double opened_at = 0.0;
  std::vector<Round> rounds;
  long long failed = 0;
  std::string error;
};

service::Client connect(const std::string& socket, double timeout_s) {
  const double until = mono_now() + timeout_s;
  for (;;) {
    try {
      return service::Client::connect_unix(socket);
    } catch (const service::TransportError&) {
      if (mono_now() > until) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

bool response_failed(const service::Response& r) {
  if (!r.ok || r.shed || r.degraded) return true;
  for (const service::MethodSummary& m : r.methods)
    if (m.shortfall || m.tiles_degraded || m.tiles_failed || m.tiles_node_limit)
      return true;
  return false;
}

void add_stages(service::StageBreakdown& sum, const service::Response& r) {
  if (!r.stages) return;
  sum.queue_ms += r.stages->queue_ms;
  sum.admission_ms += r.stages->admission_ms;
  sum.session_ms += r.stages->session_ms;
  sum.solve_ms += r.stages->solve_ms;
  sum.write_ms += r.stages->write_ms;
}

std::string open_session(service::Client& client, const Session& ss) {
  service::Request open;
  open.op = service::Op::kOpenSession;
  open.layout_pld = ss.layout_pld;
  open.config = flow_config(1);
  const service::Response o = client.call(open);
  PIL_REQUIRE(o.ok, "open_session failed: " + o.error);
  return o.session;
}

/// One round on `ss`: apply edit `i` of its stream (the last one when
/// `last`), then an ILP-II solve. Returns the round; throws when a
/// response failed. `added` carries the stub to remove on odd edits.
Round edit_and_solve(service::Client& client, Session& ss, bool last,
                     layout::SegmentId& added) {
  const long long i = ss.edits;
  service::Request edit;
  edit.op = service::Op::kApplyEdit;
  edit.session = ss.id;
  if (i % 2 == 0 || last) {
    const StubEdit& e = ss.stubs[last ? kStubCycle : i / 2 % kStubCycle];
    edit.edit = pf::WireEdit::add_segment(e.net, e.a, e.b, e.width_um);
  } else {
    edit.edit = pf::WireEdit::remove_segment(added);
  }
  service::Request solve;
  solve.op = service::Op::kSolve;
  solve.session = ss.id;
  solve.methods = {pf::Method::kIlp2};
  Round round;
  round.kind = static_cast<int>(i / 2 % kStubCycle * 2 + i % 2);
  const double t = mono_now();
  const service::Response er = client.call(edit);
  const service::Response sr = client.call(solve);
  round.end = mono_now();
  round.ms = (round.end - t) * 1e3;
  add_stages(round.stages, er);
  add_stages(round.stages, sr);
  if (response_failed(er) || response_failed(sr) || !er.edit)
    throw Error("round failed: " + er.error + sr.error);
  ++ss.edits;
  if (i % 2 == 0) added = static_cast<layout::SegmentId>(er.edit->segment);
  ss.final_hash = sr.methods[0].placement_hash;
  ss.final_delay_ps = sr.methods[0].delay_ps;
  ss.final_edit_seq = sr.edit_seq;
  return round;
}

/// One connection's closed loop: open its session, wait for the other
/// connection, then edit + solve rounds until `seconds` have passed and
/// the last remove is done, then the session's last add.
void drive(const std::string& socket, Connection& c, double seconds,
           std::barrier<>& opened) {
  bool arrived = false;
  try {
    service::Client client = connect(socket, 60.0);
    c.session.id = open_session(client, c.session);
    c.opened_at = mono_now();
    opened.arrive_and_wait();
    arrived = true;
    const double started = mono_now();
    layout::SegmentId added = layout::kInvalidSegment;
    for (bool last = false; !last;) {
      last = c.session.edits % 2 == 0 && mono_now() - started >= seconds;
      try {
        c.rounds.push_back(edit_and_solve(client, c.session, last, added));
      } catch (const Error&) {
        ++c.failed;
        throw;
      }
    }
  } catch (const std::exception& e) {
    c.error = e.what();
    if (!arrived) opened.arrive_and_drop();
  }
}

/// In-process replay of one session's edit stream on two FillSessions:
/// one timed per call (spans), one timed per round only. Alternating them
/// round by round gives the tracing overhead on the same host state.
void replay(const Session& c, double seconds, Spans& spans,
            std::vector<double>& plain_ms, std::vector<double>& traced_ms) {
  std::istringstream in(c.layout_pld);
  const layout::Layout l = layout::read_pld(in);
  const pf::FlowConfig cfg = flow_config(1);
  pf::FillSession plain(l, cfg);
  (void)plain.solve({pf::Method::kIlp2});
  double t = mono_now();
  pf::FillSession traced(l, cfg);
  spans.time("session.open", mono_now() - t);
  (void)traced.solve({pf::Method::kIlp2});
  layout::SegmentId added_plain = layout::kInvalidSegment,
                    added_traced = layout::kInvalidSegment;
  const double start = mono_now();
  for (long long i = 0; mono_now() - start < seconds || i % 2 == 1; ++i) {
    const StubEdit& e = c.stubs[static_cast<std::size_t>(i / 2 % kStubCycle)];
    auto edit_for = [&](layout::SegmentId added) {
      return i % 2 == 0 ? pf::WireEdit::add_segment(e.net, e.a, e.b, e.width_um)
                        : pf::WireEdit::remove_segment(added);
    };
    t = mono_now();
    const pf::EditStats ps = plain.apply_edit(edit_for(added_plain));
    (void)plain.solve({pf::Method::kIlp2});
    plain_ms.push_back((mono_now() - t) * 1e3);
    if (i % 2 == 0) added_plain = ps.segment;

    const pf::SessionStats before = traced.stats();
    const double r0 = mono_now();
    const pf::EditStats es = traced.apply_edit(edit_for(added_traced));
    const double r1 = mono_now();
    const pf::FlowResult fr = traced.solve({pf::Method::kIlp2});
    const double r2 = mono_now();
    traced_ms.push_back((r2 - r0) * 1e3);
    if (i % 2 == 0) added_traced = es.segment;
    spans.time("session.edit", r1 - r0);
    spans.time("session.solve", r2 - r1);
    const pf::SessionStats& after = traced.stats();
    const pf::MethodResult& mr = fr.methods[0];
    spans.count("session.tiles_retargeted", es.tiles_retargeted);
    spans.count("session.tiles_dirty", es.tiles_dirty);
    spans.count("session.columns_rescanned", es.columns_rescanned);
    spans.count("session.tiles_resolved",
                static_cast<double>(after.tiles_resolved - before.tiles_resolved));
    spans.count("session.tiles_reused",
                static_cast<double>(after.tiles_reused - before.tiles_reused));
    spans.count("session.basis_hits",
                static_cast<double>(after.basis_hits - before.basis_hits));
    spans.count("lp.simplex_iterations", static_cast<double>(mr.simplex_iterations));
    spans.count("lp.dual_iterations", static_cast<double>(mr.dual_iterations));
    spans.count("lp.warm_starts", static_cast<double>(mr.warm_starts));
    spans.count("ilp.bb_nodes", static_cast<double>(mr.bb_nodes));
    spans.count("ilp.lp_solves", static_cast<double>(mr.lp_solves));
  }
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

int run_eco(const std::map<std::string, std::string>& opts) {
  const std::string socket = opts.at("socket");
  const std::string dir = opts.at("dir");
  const double seconds = std::stod(opts.at("seconds"));
  const bool trace = opts.at("trace") == "1";
  const double t0 = std::stod(opts.at("t0"));
  Result res;

  std::vector<Session> sessions(kEcoLayouts);
  for (int k = 0; k < kEcoLayouts; ++k) {
    sessions[k].layout_pld = read_file(layout_path(dir, k));
    sessions[k].stubs = read_edits(edits_path(dir, k));
  }
  std::vector<Connection> conns(2);
  for (int k = 0; k < 2; ++k) conns[k].session = sessions[k];
  // With tracing, the service loop gets half the run and the in-process
  // replay the other half.
  const double loop_seconds = trace ? seconds / 2 : seconds;
  std::barrier<> opened(2);
  std::vector<std::thread> threads;
  for (auto& c : conns)
    threads.emplace_back(drive, std::cref(socket), std::ref(c), loop_seconds,
                         std::ref(opened));
  for (auto& th : threads) th.join();

  std::vector<double> round_ms, ends;
  for (int k = 0; k < 2; ++k) {
    const Connection& c = conns[k];
    for (const Round& r : c.rounds) {
      round_ms.push_back(r.ms);
      ends.push_back(r.end);
    }
    res.attempted += static_cast<long long>(c.rounds.size());
    res.failed += c.failed;
    sessions[k] = c.session;
    if (!c.error.empty()) {
      std::cerr << "perfbench: connection: " << c.error << "\n";
      res.fail_check("session could not be verified: " + c.error);
    }
  }
  if (res.attempted == 0) res.attempted = 1, res.failed = 1;

  {
    service::Client client = connect(socket, 5.0);
    // Untimed: one edit (the stream's last add) and one solve on each
    // further layout, one session at a time, so the service's fill delay
    // and its edits are checked on kEcoLayouts layouts.
    for (int k = 2; k < kEcoLayouts; ++k) {
      Session& ss = sessions[k];
      ++res.attempted;
      try {
        ss.id = open_session(client, ss);
        layout::SegmentId added = layout::kInvalidSegment;
        (void)edit_and_solve(client, ss, true, added);
      } catch (const std::exception& e) {
        ++res.failed;
        res.fail_check("layout " + std::to_string(k) + ": " + e.what());
      }
    }
    // End the server; the launcher checks its exit status.
    service::Request down;
    down.op = service::Op::kShutdown;
    (void)client.call(down);
  }

  double delay = 0.0;
  for (const Session& ss : sessions) {
    if (ss.edits == 0) continue;  // already reported as failed
    (void)check_session(ss.layout_pld, ss.stubs, ss.edits, ss.final_hash,
                        ss.final_edit_seq, res);
    delay += ss.final_delay_ps;
  }

  if (!trace) {
    const double setup_done = std::max(conns[0].opened_at, conns[1].opened_at);
    // Throughput: the highest rate of round completions over any stretch
    // of at least kRateWindow seconds.
    constexpr double kRateWindow = 5.0;
    std::sort(ends.begin(), ends.end());
    double best_rate = 0.0;
    for (std::size_t i = 0, j = 0; i < ends.size(); ++i) {
      while (j < ends.size() && ends[j] - ends[i] < kRateWindow) ++j;
      if (j == ends.size()) break;
      best_rate = std::max(best_rate, static_cast<double>(j - i) / (ends[j] - ends[i]));
    }
    // Each round kind's fastest repetition (see fastest()), averaged over
    // the kinds of both sessions; the last add is a kind of its own, run
    // once, and left out.
    std::vector<double> kind_ms;
    for (const Connection& c : conns) {
      std::vector<std::vector<double>> per(2 * kStubCycle);
      for (std::size_t i = 0; i + 1 < c.rounds.size(); ++i)
        per[c.rounds[i].kind].push_back(c.rounds[i].ms);
      for (const auto& v : per)
        if (!v.empty()) kind_ms.push_back(fastest(v));
    }
    double fast = 0.0;
    for (const double ms : kind_ms) fast += ms / static_cast<double>(kind_ms.size());
    res.metric("job_s", fast / 1e3, "s");
    res.metric("round_ms", fast, "ms");
    res.metric("rounds_per_s", best_rate, "1/s");
    res.metric("fill_delay_ps", delay, "ps");
    res.metric("setup_s", setup_done - t0, "s");
  } else {
    std::vector<double> queue, admission, session, exec, write, transport;
    for (const Connection& c : conns)
      for (const Round& r : c.rounds) {
        queue.push_back(r.stages.queue_ms);
        admission.push_back(r.stages.admission_ms);
        session.push_back(r.stages.session_ms);
        exec.push_back(r.stages.solve_ms);
        write.push_back(r.stages.write_ms);
        transport.push_back(r.ms - r.stages.total_ms());
      }
    res.metric("service.queue_ms", median(queue), "ms");
    res.metric("service.admission_ms", median(admission), "ms");
    res.metric("service.session_ms", median(session), "ms");
    res.metric("service.exec_ms", median(exec), "ms");
    res.metric("service.write_ms", median(write), "ms");
    res.metric("service.transport_ms", median(transport), "ms");
    res.metric("service.round_p90_ms", percentile(round_ms, 0.9), "ms");
    res.metric("trace.round_ms", median(round_ms), "ms");

    Spans spans;
    std::istringstream in(sessions[0].layout_pld);
    const layout::Layout l = layout::read_pld(in);
    const std::string path = layout_path(dir, 0);
    for (int i = 0; i < 3; ++i) {
      (void)run_composed(path, pf::Method::kIlp2, 1, &spans, true);
      const double t = mono_now();
      (void)service::layout_fingerprint(l);
      spans.time("service.fingerprint", mono_now() - t);
    }
    std::vector<double> plain_ms, traced_ms;
    replay(sessions[0], seconds / 2, spans, plain_ms, traced_ms);
    for (const auto& [name, v] : spans.ms) res.metric(name + "_ms", median(v), "ms");
    for (const auto& [name, v] : spans.counts) res.metric(name, mean(v), "count");
    res.metric("trace.overhead_pct",
               100.0 * (median(traced_ms) / median(plain_ms) - 1.0), "%");
  }
  std::cout << res.json() << std::endl;
  return 0;
}

}  // namespace perfbench
