// Sparse-solver bench + gate: dense vs sparse MNA on an N-conductor
// coupled-bus harness (crossover curve over problem size, waveform
// agreement, speedup at >= 200 unknowns), and the port-reduced transient
// (cache_lu) against the generic refactoring path on the 204- and
// 1048-unknown harnesses and the Fig. 3 emission corner. Results land in
// BENCH_sparse.json.
//
//   bench_sparse [--smoke]
//
// Gates (nonzero exit on failure):
//   * dense/sparse max waveform delta <= 1e-9 at every size
//   * full mode only: sparse >= 3x faster than dense at >= 200 unknowns
//     (wall clock is recorded in smoke mode but not gated)
//   * port-reduced vs reference: max waveform delta <= 1e-7 (10x below the
//     default tol: the port-reduced path stops on its contraction
//     estimate) and no more Newton iterations than the reference on every
//     case (wall times recorded)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tline.hpp"
#include "core/driver_device.hpp"
#include "experiments.hpp"
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
  std::size_t ports = 0;  ///< port-reduced path's port count (0: none or bypassed)
};

/// One streamed transient of `c` probing `probes`, fresh workspace.
BusRun run_circuit(ckt::Circuit& c, const std::vector<int>& probes,
                   const ckt::TransientOptions& opt) {
  BusRun out;
  out.n_unknowns = c.finalize();
  ckt::NewtonWorkspace ws;
  sig::RecordingSink rec;
  const auto t0 = std::chrono::steady_clock::now();
  const auto stats = ckt::run_transient_streamed(c, opt, ws, probes, rec);
  out.wall_s = seconds_since(t0);
  out.newton_iters = stats.total_newton_iters;
  out.record = std::move(rec).take_data();
  out.ports = ws.ports.ports.size();
  return out;
}

BusRun run_bus(const BusSpec& spec, ckt::SolverKind solver) {
  ckt::Circuit c;
  const auto far = build_bus(c, spec);
  return run_circuit(c, far, bus_options(spec, solver));
}

/// The sweep's emission corner on the Fig. 3 line: the active and the
/// quiet PW-RBF driver at the near ends, both far ends loaded with 1 pF.
/// Returns the probes: both far ends.
std::vector<int> build_fig3_corner(ckt::Circuit& c, const core::PwRbfDriverModel& model,
                                   const std::string& bits) {
  const int a1 = c.node(), a2 = c.node(), b1 = c.node(), b2 = c.node();
  add_coupled_lossy_line(c, {a1, a2}, {b1, b2}, exp::mcm_fig3_params(), model.ts);
  c.add<ckt::Capacitor>(b1, c.ground(), 1e-12);
  c.add<ckt::Capacitor>(b2, c.ground(), 1e-12);
  c.add<core::DriverDevice>(a1, model, bits, 1e-9);
  c.add<core::DriverDevice>(a2, model, std::string(bits.size(), '0'), 1e-9);
  return {b1, b2};
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

  // ---------------------------------------------------------------- B ----
  // Port-reduced transient vs the generic reference: the same circuit with
  // cache_lu on (linear part factored once, Newton on the k port
  // unknowns) and off (full refactor every iteration).
  std::printf("\n%-8s %-9s %-6s %-10s %-12s %-12s %-9s %s\n", "case", "unknowns", "ports",
              "iters", "reduced [s]", "full [s]", "speedup", "max |dv|");
  auto reduced_rows = bench::Json::array();
  const auto md3 = exp::make_driver_model(dev::DriverTech::md3_ibm25(), "MD3");
  const std::string bits = smoke ? "0110100111010010" : "0110100111010010011101001100";
  struct ReducedCase {
    std::string name;
    std::function<std::vector<int>(ckt::Circuit&)> build;
    ckt::TransientOptions opt;
  };
  std::vector<ReducedCase> cases;
  for (const BusSpec* spec : {&sizes[1], &sizes[3]})
    cases.push_back({"", [spec](ckt::Circuit& c) { return build_bus(c, *spec); },
                     bus_options(*spec, ckt::SolverKind::kAuto)});
  {
    ckt::TransientOptions opt;
    opt.dt = md3.ts;
    opt.t_stop = 2e-9 * static_cast<double>(bits.size());  // two pattern periods
    cases.push_back({"fig3", [&](ckt::Circuit& c) {
                       return build_fig3_corner(c, md3, bits + bits);
                     },
                     opt});
  }
  for (auto& rc : cases) {
    BusRun red, ref;
    for (bool cache_lu : {true, false}) {
      ckt::Circuit c;
      const auto probes = rc.build(c);
      rc.opt.cache_lu = cache_lu;
      (cache_lu ? red : ref) = run_circuit(c, probes, rc.opt);
    }
    if (rc.name.empty()) rc.name = "n" + std::to_string(red.n_unknowns);
    const double dv = max_delta(red.record, ref.record);
    const bool iters_le_reference = red.newton_iters <= ref.newton_iters;
    const double speedup = red.wall_s > 0.0 ? ref.wall_s / red.wall_s : 0.0;
    std::printf("%-8s %-9d %-6zu %-10ld %-12.4f %-12.4f %-9.2f %.3g\n", rc.name.c_str(),
                red.n_unknowns, red.ports, red.newton_iters, red.wall_s, ref.wall_s, speedup, dv);
    if (!iters_le_reference || !(dv <= 1e-7)) {
      std::printf("GATE FAILED: port-reduced/reference disagreement on %s "
                  "(max delta %.3g, iters %ld vs %ld)\n",
                  rc.name.c_str(), dv, red.newton_iters, ref.newton_iters);
      ok = false;
    }
    auto row = bench::Json::object();
    row.set("name", bench::Json::string(rc.name));
    row.set("n_unknowns", bench::Json::integer(red.n_unknowns));
    row.set("ports", bench::Json::integer(static_cast<long>(red.ports)));
    row.set("newton_iters", bench::Json::integer(red.newton_iters));
    row.set("reference_newton_iters", bench::Json::integer(ref.newton_iters));
    row.set("iters_le_reference", bench::Json::boolean(iters_le_reference));
    row.set("port_reduced_max_dv", bench::Json::number(dv));
    row.set("cache_lu_on_wall_s", bench::Json::number(red.wall_s));
    row.set("cache_lu_off_wall_s", bench::Json::number(ref.wall_s));
    row.set("speedup", bench::Json::number(speedup));
    reduced_rows.push(std::move(row));
    doc.at("scenarios")
        .push(bench::scenario_row("port_reduced_" + rc.name, red.wall_s, red.newton_iters));
  }
  doc.set("port_reduced", std::move(reduced_rows));

  doc.set("gates_passed", bench::Json::boolean(ok));
  if (doc.write_file("BENCH_sparse.json")) std::printf("wrote BENCH_sparse.json\n");
  ok = bench::check_baseline_gate(doc, bargs) && ok;
  std::printf(ok ? "all gates passed\n" : "GATES FAILED\n");
  return ok ? 0 : 1;
}
