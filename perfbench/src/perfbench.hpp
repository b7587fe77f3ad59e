#pragma once
/// \file perfbench.hpp
/// Shared declarations of the PIL-Fill benchmark driver: timing helpers,
/// the result record printed as the run's last line, the seeded inputs,
/// the independent output checks, and the span-timed composition of the
/// library's public functions.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "pil/pil.hpp"

namespace perfbench {

namespace pf = pil::pilfill;

// ------------------------------------------------------------- timing ----

/// CLOCK_MONOTONIC in seconds: the clock Python's time.monotonic() reads,
/// so a timestamp taken by the launcher before spawning a process and one
/// taken inside it subtract meaningfully.
double mono_now();
double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);
/// Operation times are reported as the fastest repetition of each input
/// in a run, not the median: on a shared host, slow phases lasting seconds
/// to minutes add time to whole stretches of a run, while the fastest
/// repetition reads the program's own cost in the quiet moments that every
/// run contains (measured figures in perfbench/README.md).
double fastest(const std::vector<double>& v);

/// Named duration samples (ms) and per-operation counts.
struct Spans {
  std::map<std::string, std::vector<double>> ms;
  std::map<std::string, std::vector<double>> counts;
  void time(const std::string& name, double seconds) {
    ms[name].push_back(seconds * 1e3);
  }
  void count(const std::string& name, double v) { counts[name].push_back(v); }
};

// ------------------------------------------------------------- result ----

/// The JSON object printed as the last stdout line of a run.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> failures;  ///< failed check messages

  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a failed correctness check (message goes to stderr).
  void fail_check(const std::string& what);
  std::string json() const;
};

// ------------------------------------------------------------- inputs ----

/// The fill configuration every workload uses: W = 32 um, r = 2, layer 0,
/// default rules, Monte-Carlo targeting.
pf::FlowConfig flow_config(int threads);

/// One stub of the ECO edit stream: a vertical 2.5 um wire tapping a trunk.
struct StubEdit {
  pil::layout::NetId net = pil::layout::kInvalidNet;
  pil::geom::Point a, b;
  double width_um = 0.4;
};

/// Seeded layouts per run. The one-shot workloads run one untimed job on
/// each of the kLayouts (fill delay and output checks), then time rounds
/// of jobs on the first kTimedLayouts (half as many for Greedy): few
/// enough that every layout is timed many times in a run. `eco_service`
/// drives one warm session per connection on layouts 0 and 1, then checks
/// the service on kEcoLayouts layouts in all. A run's fill delay then
/// averages over many layouts instead of hanging on a few draws of the
/// generator.
inline constexpr int kLayouts = 16;
inline constexpr int kTimedLayouts = 8;
inline constexpr int kEcoLayouts = kLayouts;
std::string layout_path(const std::string& dir, int k);
std::string edits_path(const std::string& dir, int k);

/// Write the kLayouts T1-recipe layouts seeded from `seed`, an edit stream
/// for each of the first kEcoLayouts (stubs pre-validated to keep their
/// net a tree), and `<dir>/probe.pld` (the canonical T1 layout, the same
/// for every seed).
void generate_inputs(std::uint64_t seed, const std::string& dir);
std::vector<StubEdit> read_edits(const std::string& path);
std::string read_file(const std::string& path);

// ------------------------------------------------------------- checks ----

/// Geometry parsed by the benchmark's own readers (not the library's).
struct Geometry {
  pil::geom::Rect die;
  std::vector<pil::geom::Rect> wires;  ///< drawn wires on the fill layer
  std::vector<pil::geom::Rect> fills;  ///< fill features
};
/// .pld text: wires of layer 0, features are the nets named FILL*.
Geometry parse_pld_geometry(const std::string& text);
/// GDSII stream bytes: wires of layout layer 0 (GDS layer 1, datatype 0)
/// and features (GDS layer 100, datatype 1). GDS has no die record, so
/// `die` stays empty.
Geometry parse_gds_geometry(const std::string& data);

/// Check a written fill against its input layout: the output's wires are
/// the input's, feature size, die containment, fill-fill gap, fill-wire
/// buffer, no window losing density (output wires and features against
/// the input's wires), count == `placed`, and the delay re-evaluated on the
/// read-back geometry == `delay_ps`. `dbu_per_um` > 0 compares wires on
/// that coordinate grid (GDS) and sets the tolerance; 0 compares exactly.
void check_fill_output(const std::string& input_pld, const Geometry& input,
                       const Geometry& output, long long placed,
                       double delay_ps, double dbu_per_um, Result& res);

/// Windows whose density with `fills` exceeds U = L + 2 feature areas /
/// window area, L = the input's maximum window density. The density-cap
/// check fails when this is not 0. At the time of writing the flow's
/// placements break U on every input (features on sites that straddle a
/// tile edge add area to windows the targeter did not charge), so the
/// one-shots check U as its own operation on a fixed input (see
/// oneshot.cpp) and report the count on the seeded outputs as a metric.
int windows_over_upper(const Geometry& input,
                       const std::vector<pil::geom::Rect>& fills);

/// The ECO edit stream of one session with `edits_applied` edits: whole
/// add/remove pairs cycling over the first kStubCycle stubs, then one add
/// of stub kStubCycle, so a session always ends on an edited geometry.
/// Each stub of the cycle is added and removed many times in a run, so a
/// round's time can be taken as its fastest repetition. Edit i adds
/// `stubs[stub_index(i, edits_applied)]` (i even, or the last edit) or
/// removes the stub added just before.
inline constexpr int kStubCycle = 4;
std::size_t stub_index(long long i, long long edits_applied);

/// Rebuild the session layout by applying the `edits_applied` edits of the
/// stream, and compare a from-scratch ILP-II flow's placement fingerprint
/// and the edit count with what the service reported. Returns the flow's
/// delay, ps.
double check_session(const std::string& layout_pld,
                     const std::vector<StubEdit>& stubs, long long edits_applied,
                     std::uint64_t reported_hash, long long reported_edit_seq,
                     Result& res);

// ----------------------------------------------------------- pipeline ----

/// The fill flow composed from the modules' public functions, each call
/// timed into `spans` (may be null). Returns the per-tile counts, the
/// evaluated delay and the serialized output (.pld for Greedy, GDS
/// otherwise).
struct Composed {
  std::string output;
  std::vector<int> features_per_tile;
  std::vector<pil::geom::Rect> features;
  double delay_ps = 0.0;
  long long placed = 0;
  std::vector<pf::TileInstance> instances;
};
Composed run_composed(const std::string& input_path, pf::Method method,
                      int threads, Spans* spans, bool stop_after_prep = false);

/// Per tile: ILP-II cost == Convex cost (both exact) and <= Greedy cost
/// under column_cost_table. Returns the number of tiles checked.
int check_solver_costs(const std::vector<pf::TileInstance>& instances,
                       const pil::layout::Layout& layout, Result& res);

/// Filled layout as `pilfill fill --out` writes it: each feature a one-
/// segment net named FILL<n>.
pil::layout::Layout filled_layout(const pil::layout::Layout& l,
                                  const std::vector<pil::geom::Rect>& fills);

// ---------------------------------------------------------- workloads ----

int run_oneshot(const std::map<std::string, std::string>& opts);
/// One cold fill job in a fresh process, for set-up time and peak
/// resident memory.
int run_one_job(const std::map<std::string, std::string>& opts);
int run_eco(const std::map<std::string, std::string>& opts);
int run_selftest(const std::map<std::string, std::string>& opts);

}  // namespace perfbench
