// Sparse-solver bench + gate: dense vs sparse MNA on an N-conductor
// coupled-bus harness (crossover curve over problem size, waveform
// agreement, speedup at >= 200 unknowns). Results land in
// BENCH_sparse.json.
//
//   bench_sparse [--smoke]
//
// Gates (nonzero exit on failure):
//   * dense/sparse max waveform delta <= 1e-9 at every size
//   * full mode only: sparse >= 3x faster than dense at >= 200 unknowns
//     (wall clock is recorded in smoke mode but not gated)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tline.hpp"
#include "json_out.hpp"
#include "signal/sample_sink.hpp"

namespace {

using namespace emc;
using bench::seconds_since;

/// N-conductor coupled bus: pulsed R-source drivers at the near end, a
/// lossy coupled line (nearest-neighbor L/C coupling), diode clamps and
/// load capacitors at the far end. The clamps make the circuit nonlinear,
/// so every Newton iteration refactors — the workload the sparse path's
/// cheap numeric refactor is built for.
struct BusSpec {
  int conductors = 2;
  int sections = 4;
  double length = 0.2;       ///< [m]
  double dt = 50e-12;
  double t_stop = 4e-9;
  double r_drive = 25.0;
  double load_c = 2e-12;
};

std::vector<int> build_bus(ckt::Circuit& c, const BusSpec& spec) {
  const int n = spec.conductors;
  linalg::Matrix l(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  linalg::Matrix cap(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    l(i, i) = 300e-9;
    cap(i, i) = 100e-12;
    if (i + 1 < n) {
      l(i, i + 1) = l(i + 1, i) = 60e-9;
      cap(i, i + 1) = cap(i + 1, i) = -20e-12;
    }
  }
  ckt::CoupledLineParams p;
  p.l = std::move(l);
  p.c = std::move(cap);
  p.length = spec.length;
  p.loss.rdc = 5.0;
  p.loss.rskin = 1e-3;
  p.loss.tan_delta = 0.02;

  std::vector<int> near(static_cast<std::size_t>(n)), far(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    near[static_cast<std::size_t>(k)] = c.node();
    far[static_cast<std::size_t>(k)] = c.node();
  }
  for (int k = 0; k < n; ++k) {
    const int src = c.node();
    const double t_edge = 0.5e-9 + 0.1e-9 * static_cast<double>(k);
    c.add<ckt::VSource>(src, c.ground(),
                        [t_edge](double t) { return t < t_edge ? 0.0 : 1.5; });
    c.add<ckt::Resistor>(src, near[static_cast<std::size_t>(k)], spec.r_drive);
  }
  add_coupled_lossy_line(c, near, far, p, spec.dt, spec.sections);
  for (int k = 0; k < n; ++k) {
    c.add<ckt::Diode>(c.ground(), far[static_cast<std::size_t>(k)]);
    c.add<ckt::Capacitor>(far[static_cast<std::size_t>(k)], c.ground(), spec.load_c);
  }
  return far;
}

ckt::TransientOptions bus_options(const BusSpec& spec, ckt::SolverKind solver) {
  ckt::TransientOptions opt;
  opt.dt = spec.dt;
  opt.t_stop = spec.t_stop;
  opt.solver = solver;
  return opt;
}

struct BusRun {
  std::vector<double> record;  ///< frame-major far-end voltages
  double wall_s = 0.0;
  long newton_iters = 0;
  int n_unknowns = 0;
};

BusRun run_bus(const BusSpec& spec, ckt::SolverKind solver) {
  ckt::Circuit c;
  const auto far = build_bus(c, spec);
  BusRun out;
  out.n_unknowns = c.finalize();

  ckt::NewtonWorkspace ws;
  sig::RecordingSink rec;
  const auto t0 = std::chrono::steady_clock::now();
  const auto stats = ckt::run_transient_streamed(c, bus_options(spec, solver), ws, far, rec);
  out.wall_s = seconds_since(t0);
  out.newton_iters = stats.total_newton_iters;
  out.record = std::move(rec).take_data();
  return out;
}

double max_delta(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const auto bargs = bench::extract_baseline_args(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_sparse [--smoke]\n");
      return 2;
    }
  }

  std::printf("=== bench_sparse: dense vs sparse MNA ===%s\n",
              smoke ? "  [smoke mode]" : "");
  auto doc = bench::make_bench_doc("bench_sparse");
  doc.set("smoke", bench::Json::boolean(smoke));
  bool ok = true;

  // ---------------------------------------------------------------- A ----
  // Dense vs sparse crossover: the same coupled-bus transient through both
  // backends at growing size. Agreement is gated everywhere; the speedup
  // gate applies to the largest (>= 200 unknowns) harness in full mode.
  std::vector<BusSpec> sizes;
  {
    BusSpec s;
    s.conductors = 2, s.sections = 4;
    sizes.push_back(s);
    s.conductors = 4, s.sections = 6;
    sizes.push_back(s);
    s.conductors = 6, s.sections = 10;
    sizes.push_back(s);
    s.conductors = 8, s.sections = 16, s.length = 0.3;
    if (smoke) s.t_stop = 2e-9;
    sizes.push_back(s);
  }

  auto crossover = bench::Json::array();
  double big_speedup = 0.0;
  int big_n = 0;
  std::printf("%-10s %-10s %-12s %-12s %-9s %s\n", "unknowns", "iters", "dense [s]",
              "sparse [s]", "speedup", "max |dv|");
  for (const auto& spec : sizes) {
    const auto dense = run_bus(spec, ckt::SolverKind::kDense);
    const auto sparse = run_bus(spec, ckt::SolverKind::kSparse);
    const double dv = max_delta(dense.record, sparse.record);
    const double speedup = sparse.wall_s > 0.0 ? dense.wall_s / sparse.wall_s : 0.0;
    std::printf("%-10d %-10ld %-12.4f %-12.4f %-9.2f %.3g\n", dense.n_unknowns,
                dense.newton_iters, dense.wall_s, sparse.wall_s, speedup, dv);
    if (dense.newton_iters != sparse.newton_iters || dv > 1e-9) {
      std::printf("GATE FAILED: dense/sparse disagreement at n = %d "
                  "(max delta %.3g, iters %ld vs %ld)\n",
                  dense.n_unknowns, dv, dense.newton_iters, sparse.newton_iters);
      ok = false;
    }
    if (dense.n_unknowns > big_n) {
      big_n = dense.n_unknowns;
      big_speedup = speedup;
    }
    auto row = bench::Json::object();
    row.set("n_unknowns", bench::Json::integer(dense.n_unknowns));
    row.set("newton_iters", bench::Json::integer(dense.newton_iters));
    row.set("dense_wall_s", bench::Json::number(dense.wall_s));
    row.set("sparse_wall_s", bench::Json::number(sparse.wall_s));
    row.set("speedup", bench::Json::number(speedup));
    row.set("max_waveform_delta", bench::Json::number(dv));
    crossover.push(std::move(row));
    doc.at("scenarios")
        .push(bench::scenario_row("bus_n" + std::to_string(dense.n_unknowns) + "_sparse",
                                  sparse.wall_s, sparse.newton_iters));
  }
  doc.set("crossover", std::move(crossover));
  doc.set("largest_n_unknowns", bench::Json::integer(big_n));
  doc.set("largest_speedup", bench::Json::number(big_speedup));
  if (big_n < 200) {
    std::printf("GATE FAILED: largest harness has %d unknowns (< 200)\n", big_n);
    ok = false;
  }
  if (!smoke && big_speedup < 3.0) {
    std::printf("GATE FAILED: sparse speedup %.2fx < 3x at n = %d\n", big_speedup, big_n);
    ok = false;
  }

  doc.set("gates_passed", bench::Json::boolean(ok));
  if (doc.write_file("BENCH_sparse.json")) std::printf("wrote BENCH_sparse.json\n");
  ok = bench::check_baseline_gate(doc, bargs) && ok;
  std::printf(ok ? "all gates passed\n" : "GATES FAILED\n");
  return ok ? 0 : 1;
}
