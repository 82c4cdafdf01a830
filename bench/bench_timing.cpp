// Section 5 reproduction: the accuracy table. For every validation
// experiment the threshold-crossing timing error between the reference and
// the macromodel is computed (sampling time Ts = 25 ps). Paper claim:
// always below 20 ps, mostly around 5 ps.
//
// Besides the human-readable table, the bench emits BENCH_timing.json
// (scenario name, wall time, Newton iterations, and each experiment's
// timing errors) so the perf and fidelity trajectories are tracked from
// change to change, and it times a purely linear transient
// twice — cached-LU fast path vs. the generic re-factorizing Newton path —
// verifying the waveforms agree to sub-nanovolt level.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "baseline.hpp"
#include "core/validation.hpp"
#include "experiments.hpp"
#include "json_out.hpp"

namespace {

struct BenchRow {
  std::string name;
  double wall_s = 0.0;
  long newton_iters = -1;  ///< -1: the scenario does not expose solver stats
};

using emc::bench::seconds_since;

/// Linear R-L-C ladder (n_sections stages) driven by a 3.3 V step: the
/// cached-LU showcase. Purely linear, so the engine solves one exact
/// Newton iteration per step and can reuse a single factorization.
void build_ladder(emc::ckt::Circuit& c, int n_sections) {
  using namespace emc::ckt;
  const int in = c.node("in");
  c.add<VSource>(in, 0, [](double t) { return t < 0.5e-9 ? 0.0 : 3.3; });
  int prev = in;
  for (int k = 0; k < n_sections; ++k) {
    const int mid = c.node();
    const int nxt = c.node();
    c.add<Resistor>(prev, mid, 2.0);
    c.add<Inductor>(mid, nxt, 1e-9);
    c.add<Capacitor>(nxt, 0, 2e-12);
    prev = nxt;
  }
  c.add<Resistor>(prev, 0, 50.0);
}

struct RecordCost {
  double record_wall_s = 0.0;   ///< full flat-record run
  double stream_wall_s = 0.0;   ///< streamed run, NullSink (no record)
  std::size_t record_bytes = 0; ///< flat record footprint
};

/// Timing error in ps, or -1 when the waveform has no scored crossing.
double to_ps(const std::optional<double>& t) { return t ? *t * 1e12 : -1.0; }

bool write_json(const std::vector<BenchRow>& rows,
                const std::vector<emc::core::ValidationReport>& validation, double speedup,
                double max_dv, const RecordCost& rc, bool smoke,
                const emc::bench::BaselineArgs& bargs) {
  using emc::bench::Json;
  auto doc = emc::bench::make_bench_doc("bench_timing");
  for (const auto& r : rows)
    doc.at("scenarios").push(emc::bench::scenario_row(r.name, r.wall_s, r.newton_iters));
  // Paper fidelity: the Section 5 table, one row per experiment.
  Json val = Json::array();
  for (const auto& r : validation) {
    Json row = Json::object();
    row.set("name", Json::string(r.label));
    row.set("rel_rms", Json::number(r.rel_rms));
    row.set("timing_error_ps", Json::number(to_ps(r.timing_error)));
    row.set("edge_timing_error_ps", Json::number(to_ps(r.edge_timing_error)));
    val.push(std::move(row));
  }
  doc.set("validation", std::move(val));
  doc.set("smoke", emc::bench::Json::boolean(smoke));
  doc.set("linear_fastpath_speedup", emc::bench::Json::number(speedup));
  doc.set("linear_fastpath_max_dv", emc::bench::Json::number(max_dv));
  // Record-materialization cost: the flat single-allocation record vs. the
  // streamed path with a NullSink (production only). The gap is what
  // storing the record adds — with the step-major flat buffer this is one
  // allocation per run where the seed paid one vector per step.
  doc.set("record_wall_s", emc::bench::Json::number(rc.record_wall_s));
  doc.set("stream_null_wall_s", emc::bench::Json::number(rc.stream_wall_s));
  doc.set("record_bytes", emc::bench::Json::integer(static_cast<long>(rc.record_bytes)));
  if (doc.write_file("BENCH_timing.json"))
    std::printf("wrote BENCH_timing.json (%zu scenarios)\n", rows.size());
  return emc::bench::check_baseline_gate(doc, bargs);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace emc;
  // --smoke: CI sanity mode. Runs only the fig4 experiment (MD3, the
  // driver every sweep bench uses, so its fidelity is gated in CI) and
  // shrinks the linear-ladder comparison, so the binary exercises its
  // whole reporting path in seconds.
  const auto bargs = bench::extract_baseline_args(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  std::printf("=== Section 5: timing-error summary (Ts = 25 ps) ===%s\n",
              smoke ? "  [smoke mode]" : "");
  std::printf(smoke ? "estimating MD3, running fig4...\n\n"
                     : "estimating all device models, running all experiments...\n\n");

  std::vector<core::ValidationReport> validation_rows;
  std::vector<BenchRow> bench_rows;

  if (!smoke) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto f1 = exp::run_fig1();
    bench_rows.push_back({"fig1", seconds_since(t0), -1});
    validation_rows.push_back(
        core::validate_waveform("fig1 MD1 near-end", f1.reference, f1.pwrbf, 1.65, 0.2e-9));
  }
  if (!smoke) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto f2 = exp::run_fig2();
    bench_rows.push_back({"fig2", seconds_since(t0), -1});
    int idx = 0;
    for (const auto& p : f2) {
      char label[48];
      std::snprintf(label, sizeof label, "fig2%c MD2 far-end",
                    static_cast<char>('a' + idx++));
      validation_rows.push_back(
          core::validate_waveform(label, p.reference, p.pwrbf, 0.9, 0.2e-9));
    }
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    const auto f4 = exp::run_fig4_both(20e-9);
    bench_rows.push_back({"fig4", seconds_since(t0), -1});
    validation_rows.push_back(core::validate_waveform("fig4 MD3 active", f4.v21_reference,
                                                      f4.v21_pwrbf, 1.25, 0.2e-9));
  }
  if (!smoke) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto f5 = exp::run_fig5();
    bench_rows.push_back({"fig5", seconds_since(t0), -1});
    validation_rows.push_back(core::validate_waveform("fig5 MD4 current", f5.i_reference,
                                                      f5.i_parametric, 0.02, 0.2e-9));
  }
  if (!smoke) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto f6 = exp::run_fig6();
    bench_rows.push_back({"fig6", seconds_since(t0), -1});
    int idx = 0;
    for (const auto& p : f6) {
      char label[48];
      std::snprintf(label, sizeof label, "fig6%c MD4 pin",
                    static_cast<char>('a' + idx++));
      validation_rows.push_back(core::validate_waveform(
          label, p.v_reference, p.v_parametric, p.amplitude / 2, 0.2e-9));
    }
  }

  // Two timing columns: "all" scores every deglitched threshold crossing
  // (including shallow ring-throughs, where dt = dv/slope inflates small
  // voltage errors); "edge" scores switching edges only, which is what the
  // paper's Section 5 methodology measures.
  std::printf("%-20s %10s %10s %10s   %s\n", "experiment", "rel rms", "all [ps]",
              "edge [ps]", "paper bound: < 20 ps on edges");
  int within = 0, total = 0;
  for (const auto& r : validation_rows) {
    const double te = to_ps(r.timing_error);
    const double ete = to_ps(r.edge_timing_error);
    if (r.edge_timing_error) {
      ++total;
      if (ete < 20.0) ++within;
    }
    std::printf("%-20s %9.2f%% %10.2f %10.2f   %s\n", r.label.c_str(), r.rel_rms * 100.0,
                te, ete,
                (r.edge_timing_error && ete < 20.0)
                    ? "ok"
                    : (r.edge_timing_error ? "EXCEEDED" : "-"));
  }
  std::printf("\n%d/%d experiments within the paper's 20 ps bound (edge metric)\n", within,
              total);

  // ---- linear-circuit transient: cached-LU fast path vs. generic Newton
  std::printf("\n=== Linear transient: cached-LU fast path vs. full per-step LU ===\n");
  const int kSections = smoke ? 10 : 40;
  ckt::TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = smoke ? 20e-9 : 100e-9;

  ckt::Circuit fast_ckt, ref_ckt;
  build_ladder(fast_ckt, kSections);
  build_ladder(ref_ckt, kSections);

  opt.cache_lu = true;
  auto t0 = std::chrono::steady_clock::now();
  const auto res_fast = ckt::run_transient(fast_ckt, opt);
  const double wall_fast = seconds_since(t0);
  bench_rows.push_back(
      {"linear_ladder_cached_lu", wall_fast, res_fast.stats.total_newton_iters});

  opt.cache_lu = false;
  t0 = std::chrono::steady_clock::now();
  const auto res_ref = ckt::run_transient(ref_ckt, opt);
  const double wall_ref = seconds_since(t0);
  bench_rows.push_back(
      {"linear_ladder_full_lu", wall_ref, res_ref.stats.total_newton_iters});

  double max_dv = 0.0;
  const int last_node = 1 + 2 * kSections;  // ladder output node id
  const auto wf = res_fast.waveform(last_node);
  const auto wr = res_ref.waveform(last_node);
  for (std::size_t k = 0; k < wf.size(); ++k)
    max_dv = std::max(max_dv, std::abs(wf[k] - wr[k]));
  const double speedup = wall_fast > 0.0 ? wall_ref / wall_fast : 0.0;

  std::printf("cached LU: %8.4f s  (%ld Newton iters over %ld steps)\n", wall_fast,
              res_fast.stats.total_newton_iters, res_fast.stats.steps);
  std::printf("full LU:   %8.4f s  (%ld Newton iters over %ld steps)\n", wall_ref,
              res_ref.stats.total_newton_iters, res_ref.stats.steps);
  std::printf("speedup:   %.2fx   max |dv| = %.3e V (bound: 1e-9)\n", speedup, max_dv);

  // ---- record materialization cost: flat full record vs. streamed NullSink
  std::printf("\n=== Record cost: flat full record vs. streamed (no record) ===\n");
  RecordCost rc;
  {
    ckt::Circuit rec_ckt, str_ckt;
    build_ladder(rec_ckt, kSections);
    build_ladder(str_ckt, kSections);
    opt.cache_lu = true;

    t0 = std::chrono::steady_clock::now();
    const auto res = ckt::run_transient(rec_ckt, opt);
    rc.record_wall_s = seconds_since(t0);
    rc.record_bytes = res.data().size() * sizeof(double);
    bench_rows.push_back({"linear_ladder_record", rc.record_wall_s,
                          res.stats.total_newton_iters});

    const int n_unknowns = str_ckt.finalize();
    std::vector<int> probes(static_cast<std::size_t>(n_unknowns));
    for (int i = 0; i < n_unknowns; ++i) probes[static_cast<std::size_t>(i)] = i + 1;
    sig::NullSink null;
    ckt::NewtonWorkspace ws;
    t0 = std::chrono::steady_clock::now();
    const auto stats = ckt::run_transient_streamed(str_ckt, opt, ws, probes, null);
    rc.stream_wall_s = seconds_since(t0);
    bench_rows.push_back(
        {"linear_ladder_stream_null", rc.stream_wall_s, stats.total_newton_iters});

    std::printf("flat record: %8.4f s  (%.1f KiB record)\n", rc.record_wall_s,
                static_cast<double>(rc.record_bytes) / 1024.0);
    std::printf("null sink:   %8.4f s  (record cost: %+.1f%%)\n", rc.stream_wall_s,
                rc.stream_wall_s > 0.0
                    ? 100.0 * (rc.record_wall_s - rc.stream_wall_s) / rc.stream_wall_s
                    : 0.0);
  }

  const bool base_ok =
      write_json(bench_rows, validation_rows, speedup, max_dv, rc, smoke, bargs);
  return (max_dv < 1e-9 && base_ok) ? 0 : 1;
}
