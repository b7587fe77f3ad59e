/// \file oneshot.cpp
/// The one-shot workloads: repeated fill jobs (read the layout, run the
/// flow, write the filled output) inside one long-lived process.

#include <sched.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string_view>

#include "perfbench.hpp"

namespace perfbench {

using namespace pil;

namespace {

/// An output stream into one buffer that keeps its capacity from job to
/// job, so the timing holds the writer's formatting work and not the page
/// faults of a freshly grown buffer (as a file write would not have them).
class MemorySink : public std::streambuf {
 public:
  /// Reserved up front (pages are touched only as written), so the buffer
  /// never reallocates and its resident size is the largest output's.
  MemorySink() { buf_.reserve(std::size_t{64} << 20); }
  void clear() { buf_.clear(); }
  std::string_view view() const { return {buf_.data(), buf_.size()}; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) buf_.push_back(static_cast<char>(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    buf_.insert(buf_.end(), s, s + n);
    return n;
  }

 private:
  std::vector<char> buf_;
};

struct Job {
  double seconds = 0.0;
  std::size_t output_hash = 0;
  long long placed = 0;
  double delay_ps = 0.0;
  std::vector<int> features_per_tile;
  bool failed = false;
};

/// The user's whole job, as `pilfill fill --out` / `--gds` does it, with
/// the output serialized into `sink`.
Job run_job(const std::string& input, pf::Method method, int threads,
            MemorySink& sink) {
  Job job;
  sink.clear();
  std::ostream out(&sink);
  const double t = mono_now();
  const layout::Layout l = layout::read_pld_file(input);
  pf::FlowResult fr = pf::run_pil_fill_flow(l, flow_config(threads), {method});
  const pf::MethodResult& mr = fr.methods[0];
  if (method == pf::Method::kGreedy)
    layout::write_pld(filled_layout(l, mr.placement.features), out);
  else
    layout::write_gds(l, mr.placement.features, out);
  out.flush();
  job.seconds = mono_now() - t;
  job.output_hash = std::hash<std::string_view>{}(sink.view());
  job.placed = mr.placed;
  job.delay_ps = mr.impact.delay_ps;
  job.features_per_tile = mr.placement.features_per_tile;
  job.failed = mr.shortfall != 0 || mr.tiles_degraded != 0 ||
               mr.tiles_failed != 0 || mr.tiles_node_limit != 0;
  return job;
}

/// Pins this thread, and so the flow's worker threads (created per call,
/// they inherit the mask), to `count` CPUs starting at the `first`-th of
/// the CPUs the process may use. On this shared host each vCPU has its own
/// slow and quiet stretches, and a thread left alone stays on one vCPU for
/// its whole life; rotating the jobs over the vCPUs lets every layout meet
/// the quiet ones.
void pin(int first, int count) {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    std::vector<int> v;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    return v;
  }();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  const int n = static_cast<int>(cpus.size());
  for (int j = 0; j < std::min(count, n); ++j) CPU_SET(cpus[(first + j) % n], &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

void write_file(const std::string& path, std::string_view data) {
  std::ofstream f(path, std::ios::binary);
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!f) throw Error("cannot write " + path);
}

/// Checks one written output against its input; returns the number of
/// windows above the density cap U in it.
int check_output(const std::string& input, pf::Method method,
                 const std::string& output, long long placed, double delay_ps,
                 Result& res) {
  const std::string in_text = read_file(input);
  const Geometry g = parse_pld_geometry(in_text);
  const Geometry out = method == pf::Method::kGreedy
                           ? parse_pld_geometry(output)
                           : parse_gds_geometry(output);
  check_fill_output(in_text, g, out, placed, delay_ps,
                    method == pf::Method::kGreedy
                        ? 0.0
                        : layout::GdsWriteOptions{}.dbu_per_um,
                    res);
  return windows_over_upper(g, out.fills);
}

/// Density-cap probe: the fixed input's placement must keep every window
/// at or below U. Returns the number of windows above it.
int probe_windows_over(const layout::Layout& probe, const Geometry& geometry,
                       pf::Method method, int threads) {
  const pf::FlowResult fr =
      pf::run_pil_fill_flow(probe, flow_config(threads), {method});
  return windows_over_upper(geometry, fr.methods[0].placement.features);
}

}  // namespace

pf::Method parse_method(const std::string& name) {
  return name == "greedy" ? pf::Method::kGreedy : pf::Method::kIlp2;
}

int run_one_job(const std::map<std::string, std::string>& opts) {
  const double t0 = std::stod(opts.at("t0"));
  MemorySink sink;
  const Job job = run_job(opts.at("input"), parse_method(opts.at("method")),
                          std::stoi(opts.at("threads")), sink);
  // Set-up: the launcher's spawn of this process until its job is done.
  std::printf("%.9f\n", mono_now() - t0);
  return job.failed ? 1 : 0;
}

int run_oneshot(const std::map<std::string, std::string>& opts) {
  const std::string dir = opts.at("dir");
  const pf::Method method = parse_method(opts.at("method"));
  const int threads = std::stoi(opts.at("threads"));
  const double seconds = std::stod(opts.at("seconds"));
  const bool trace = opts.at("trace") == "1";
  std::vector<std::string> inputs;
  for (int k = 0; k < kLayouts; ++k) inputs.push_back(layout_path(dir, k));
  const std::string out_ext = method == pf::Method::kGreedy ? ".pld" : ".gds";
  // Greedy jobs take about twice as long as ILP-II ones (the .pld writer),
  // so Greedy times half as many layouts: either way each timed layout
  // runs about a dozen times in a run.
  const int timed = method == pf::Method::kGreedy ? kTimedLayouts / 2 : kTimedLayouts;
  Result res;
  MemorySink sink;

  // Untimed warm-up: one job per layout. `fill_delay_ps` is taken over all
  // of them, and their outputs are kept on disk for the checks after the
  // run; every timed job must reproduce its layout's output.
  std::vector<Job> reference(kLayouts);
  double delay = 0.0;
  for (int k = 0; k < kLayouts; ++k) {
    reference[k] = run_job(inputs[k], method, threads, sink);
    write_file(dir + "/out" + std::to_string(k) + out_ext, sink.view());
    if (reference[k].failed)
      res.fail_check("the flow fell short on " + inputs[k]);
    delay += reference[k].delay_ps / kLayouts;
  }

  const std::string probe = dir + "/probe.pld";
  const Geometry probe_geometry = parse_pld_geometry(read_file(probe));
  const layout::Layout probe_layout = layout::read_pld_file(probe);
  std::vector<std::vector<double>> job_s(timed);
  std::vector<double> plain_s, traced_s;
  long long rounds = 0;
  std::vector<Composed> composed(timed);
  Spans spans;
  long long mismatched = 0;
  int probe_over = 0;
  // Each round runs one job on each of the first `timed` layouts,
  // then the density-cap probe. The run measures whole rounds, and starts
  // a round only if one more fits in the run, so the probe's share of the
  // operations is the same in every run (a probe run once per run would
  // make that share depend on how many rounds fit).
  const double start = mono_now();
  for (double last_round = 0.0;
       rounds == 0 || mono_now() - start + last_round <= seconds; ++rounds) {
    const double round_start = mono_now();
    for (int k = 0; k < timed; ++k) {
      // Each layout moves one vCPU on from round to round.
      pin(static_cast<int>(rounds) + k, threads);
      const Job job = run_job(inputs[k], method, threads, sink);
      job_s[k].push_back(job.seconds);
      plain_s.push_back(job.seconds);
      res.failed += job.failed;
      mismatched += job.output_hash != reference[k].output_hash ||
                    job.placed != reference[k].placed ||
                    job.delay_ps != reference[k].delay_ps;
      if (trace) {
        // Interleaved with the plain job, so the overhead of the span-timed
        // composition is measured on the same host state.
        const double t = mono_now();
        composed[k] = run_composed(inputs[k], method, threads, &spans);
        traced_s.push_back(mono_now() - t);
        if (k > 0) composed[k].output.clear();
      }
    }
    probe_over = probe_windows_over(probe_layout, probe_geometry, method, threads);
    res.failed += probe_over > 0;
    last_round = mono_now() - round_start;
  }
  res.attempted = rounds * (timed + 1);
  if (mismatched)
    res.fail_check(std::to_string(mismatched) +
                   " timed jobs differ from the checked warm-up output");

  // Each layout's fastest job, averaged over the layouts (see fastest()).
  double job = 0.0;
  for (int k = 0; k < timed; ++k) job += fastest(job_s[k]) / timed;
  if (!trace) {
    res.metric("job_s", job, "s");
    res.metric("round_ms", job * 1e3, "ms");
    // Jobs run one after another, so the job rate is the job time's inverse.
    res.metric("rounds_per_s", 1.0 / job, "1/s");
    res.metric("fill_delay_ps", delay, "ps");
  } else {
    for (const auto& [name, v] : spans.ms) res.metric(name + "_ms", median(v), "ms");
    for (const auto& [name, v] : spans.counts)
      res.metric(name, median(v), name == "layout.output_mb" ? "MB" : "count");
    res.metric("trace.job_ms", median(traced_s) * 1e3, "ms");
    res.metric("trace.overhead_pct",
               100.0 * (median(traced_s) / median(plain_s) - 1.0), "%");
    // The composition must reproduce the flow tile for tile.
    for (int k = 0; k < timed; ++k) {
      if (composed[k].features_per_tile != reference[k].features_per_tile)
        res.fail_check("composed pipeline's per-tile counts differ from the flow's");
      if (composed[k].delay_ps != reference[k].delay_ps)
        res.fail_check("composed pipeline's delay differs from the flow's");
    }
    (void)check_output(inputs[0], method, composed[0].output,
                       composed[0].placed, composed[0].delay_ps, res);
    check_solver_costs(composed[0].instances, layout::read_pld_file(inputs[0]), res);
  }
  // U is broken on every seeded output too (see windows_over_upper); the
  // count shows whether a change makes that better or worse.
  int over_u = probe_over;
  for (int k = 0; k < kLayouts; ++k)
    over_u += check_output(inputs[k], method,
                           read_file(dir + "/out" + std::to_string(k) + out_ext),
                           reference[k].placed, reference[k].delay_ps, res);
  if (probe_over > 0)
    std::cerr << "perfbench: density-cap probe: " << probe_over
              << " windows above U; " << over_u
              << " on the probe and the seeded outputs together\n";
  res.metric("density.windows_over_u", over_u, "count");
  std::cout << res.json() << std::endl;
  return 0;
}

}  // namespace perfbench
