// Robustness gates of the fault-tolerant sweep execution layer, run as a
// bench so CI exercises the full resilience surface on the real emission
// pipeline (estimated MD3 macromodel, coupled lossy line, swept receiver):
//
//   A  fault-tolerant sweep — deterministic faults injected at five
//      distinct sites (DC solve, factorization, transient stepping, sink
//      write, deadline) across a 24-corner grid; the sweep must complete,
//      record every casualty, recover the recoverable groups through the
//      escalation ladder, and produce byte-identical summaries and
//      per-corner records for any worker count.
//   B  zero-fault overhead — with no faults armed, the retry-enabled
//      sweep must be byte-identical to the retry-disabled (pre-robustness)
//      path: resilience must cost nothing when nothing fails.
//   C  checkpoint/resume — a journaled sweep aborted mid-run and resumed
//      in a fresh runner must merge to reports byte-identical to an
//      uninterrupted single-process run.
//
//   bench_robust [--jobs N] [--smoke]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "baseline.hpp"
#include "experiments.hpp"
#include "json_out.hpp"
#include "robust/fault.hpp"
#include "robust/journal.hpp"
#include "sweep/sweep_runner.hpp"

namespace {

using namespace emc;

/// Deterministic byte spelling of a finished sweep: the summary plus every
/// schedule-independent per-corner record, one string to compare runs by.
std::string sweep_bytes(const sweep::CornerGrid& grid, const sweep::SweepOutcome& out) {
  std::string s = sweep::summary_json(grid, out.summary).dump(2);
  for (const auto& r : out.results) s += sweep::corner_result_json(r).dump(2);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::seconds_since;

  const auto bargs = bench::extract_baseline_args(argc, argv);
  bool smoke = false;
  std::size_t jobs = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: bench_robust [--jobs N] [--smoke]\n");
      return 2;
    }
  }
  if (jobs == 0) jobs = sweep::ThreadPool::default_workers();

  std::printf("=== bench_robust: fault-tolerant sweep execution gates ===%s\n",
              smoke ? "  [smoke mode]" : "");

  auto doc = bench::make_bench_doc("bench_robust");
  doc.set("smoke", bench::Json::boolean(smoke));
  doc.set("jobs", bench::Json::integer(static_cast<long>(jobs)));
  doc.set("hardware_concurrency",
          bench::Json::integer(static_cast<long>(std::thread::hardware_concurrency())));

  std::printf("estimating MD3 PW-RBF macromodel...\n");
  const auto t_est = std::chrono::steady_clock::now();
  const auto model = exp::make_driver_model(dev::DriverTech::md3_ibm25(), "MD3");
  doc.at("scenarios").push(bench::scenario_row("estimate_model", seconds_since(t_est)));

  // 24-corner grid (smoke and full): 6 transient groups of 4 corners each
  // (vdd x rbw are post-processing axes sharing one transient). Full mode
  // only deepens the per-corner work, not the gate structure.
  sweep::CornerAxes axes;
  axes.vdd_scale = {0.95, 1.05};
  axes.pattern_seed = {1, 2, 3};
  axes.line_length = {0.1};
  axes.load_c = {1e-12, 2e-12};
  axes.rbw = {20e6, 40e6};
  axes.detector = {sweep::Detector::kQuasiPeak};
  axes.pattern_bits = 15;
  const sweep::CornerGrid grid(axes);
  const std::size_t chunk = sweep::emission_chunk_hint(grid);
  const std::size_t group = chunk;  // corners per transient group

  sweep::EmissionSweepConfig cfg;
  cfg.model = &model;
  cfg.line = exp::mcm_fig3_params();
  cfg.bit_time = 1e-9;
  cfg.periods = smoke ? 3 : 4;
  cfg.rx.name = "wideband scan";
  cfg.rx.f_start = 50e6;
  cfg.rx.f_stop = 5e9;
  cfg.rx.n_points = smoke ? 20 : 40;
  cfg.rx.tau_charge = 1e-9;
  cfg.rx.tau_discharge = 30e-9;
  cfg.mask = {"board-level conducted-style mask", {{50e6, 140.0}, {5e9, 90.0}}};

  std::printf("grid: %zu corners, %zu transient groups of %zu\n", grid.size(),
              grid.size() / group, group);

  sweep::RunOptions ropt;
  ropt.chunk = chunk;

  // ---------------------------------------------------------------- gate A
  // Five fault sites, each keyed to a different transient group's identity
  // so firing is a pure function of the corner, never of scheduling. Two
  // are unsparable (permanent casualties); three heal at a known ladder
  // stage. Group 5 stays clean.
  robust::FaultPlan plan;
  auto key_of = [&](std::size_t g) {
    return sweep::emission_transient_key(grid.at(g * group));
  };
  {
    robust::FaultSpec s;

    s.site = robust::FaultSite::kDcSolve;  // permanent: fails every attempt
    s.key = key_of(0);
    plan.arm(s);

    s = {};
    s.site = robust::FaultSite::kFactor;  // heals when the ladder goes dense
    s.key = key_of(1);
    s.spare_dense = true;
    plan.arm(s);

    s = {};
    s.site = robust::FaultSite::kTransientStep;  // heals at the damp stage
    s.key = key_of(2);
    s.spare_dx_limit_below = 0.2;  // base dx_limit 0.5, quartered at "damp"
    plan.arm(s);

    s = {};
    s.site = robust::FaultSite::kSinkWrite;  // heals at the gmin stage
    s.key = key_of(3);
    s.spare_gmin_at_least = 1e-9;
    plan.arm(s);

    s = {};
    s.site = robust::FaultSite::kDeadline;  // permanent
    s.key = key_of(4);
    plan.arm(s);
  }

  const auto corner_fn = sweep::make_emission_corner_fn(cfg);
  sweep::SweepOutcome fault_1, fault_n;
  {
    robust::ScopedFaultPlan guard(plan);

    sweep::SweepRunner serial(1);
    const auto t1 = std::chrono::steady_clock::now();
    fault_1 = serial.run(grid, corner_fn, ropt);
    doc.at("scenarios").push(
        bench::scenario_row("faulted_sweep_1_thread", seconds_since(t1)));

    sweep::SweepRunner parallel(jobs);
    const auto tn = std::chrono::steady_clock::now();
    fault_n = parallel.run(grid, corner_fn, ropt);
    doc.at("scenarios").push(bench::scenario_row(
        "faulted_sweep_" + std::to_string(jobs) + "_threads", seconds_since(tn)));
  }

  // Every corner accounted for: a casualty record or a scored report.
  std::size_t recorded = 0;
  for (const auto& r : fault_n.results)
    if (r.solver_failed ? !r.failure.empty() && !r.failure_kind.empty()
                        : r.failure.empty())
      ++recorded;
  const bool gate_a = sweep_bytes(grid, fault_1) == sweep_bytes(grid, fault_n) &&
                      recorded == grid.size() &&
                      fault_n.summary.solver_failed == 2 * group &&
                      fault_n.summary.recovered == 3 * group &&
                      fault_n.summary.corners == grid.size();
  std::printf("gate A (fault isolation): %zu/%zu corners recorded, %zu failed, "
              "%zu recovered, deterministic across 1/%zu workers: %s\n",
              recorded, grid.size(), fault_n.summary.solver_failed,
              fault_n.summary.recovered, jobs, gate_a ? "PASS" : "FAIL");

  // ---------------------------------------------------------------- gate B
  // No faults armed: the retry-enabled sweep must match the retry-disabled
  // (pre-robustness) path byte for byte.
  auto cfg_off = cfg;
  cfg_off.retry.enabled = false;
  sweep::SweepRunner runner_b(jobs);
  const auto tb = std::chrono::steady_clock::now();
  const auto clean_on = runner_b.run(grid, sweep::make_emission_corner_fn(cfg), ropt);
  const double wall_clean = seconds_since(tb);
  doc.at("scenarios").push(bench::scenario_row("clean_sweep_retry_on", wall_clean));
  const auto tb2 = std::chrono::steady_clock::now();
  const auto clean_off =
      runner_b.run(grid, sweep::make_emission_corner_fn(cfg_off), ropt);
  doc.at("scenarios").push(
      bench::scenario_row("clean_sweep_retry_off", seconds_since(tb2)));

  const bool gate_b = sweep_bytes(grid, clean_on) == sweep_bytes(grid, clean_off) &&
                      clean_on.summary.solver_failed == 0 &&
                      clean_on.summary.recovered == 0;
  std::printf("gate B (zero-fault overhead): retry on == retry off: %s\n",
              gate_b ? "PASS" : "FAIL");

  // ---------------------------------------------------------------- gate C
  // Journaled sweep aborted mid-run, resumed in a fresh runner over the
  // same journal: byte-identical to the uninterrupted run (gate B's).
  const std::string journal = "BENCH_robust.journal.jsonl";
  std::remove(journal.c_str());
  std::atomic<bool> stop{false};
  auto jopt = ropt;
  jopt.journal_path = journal;
  jopt.stop = &stop;
  jopt.progress = [&](std::size_t done, std::size_t) {
    if (done >= 2) stop.store(true, std::memory_order_release);
  };
  bool aborted = false;
  std::size_t journaled_at_abort = 0;
  const auto tc = std::chrono::steady_clock::now();
  try {
    sweep::SweepRunner doomed(jobs);
    (void)doomed.run(grid, sweep::make_emission_corner_fn(cfg), jopt);
  } catch (const sweep::SweepAborted&) {
    aborted = true;
    journaled_at_abort = robust::load_journal(journal).size();
  }
  sweep::SweepRunner resumer(jobs);
  auto resume_opt = ropt;
  resume_opt.journal_path = journal;
  const auto resumed = resumer.run(grid, sweep::make_emission_corner_fn(cfg), resume_opt);
  doc.at("scenarios").push(bench::scenario_row("abort_and_resume", seconds_since(tc)));
  std::remove(journal.c_str());

  std::size_t restored = 0;
  for (const auto& r : resumed.results) restored += r.from_checkpoint ? 1 : 0;
  const bool gate_c = aborted && journaled_at_abort > 0 &&
                      journaled_at_abort < grid.size() &&
                      restored == journaled_at_abort &&
                      sweep_bytes(grid, resumed) == sweep_bytes(grid, clean_on);
  std::printf("gate C (checkpoint/resume): aborted with %zu corners journaled, "
              "resumed %zu, merged == uninterrupted: %s\n",
              journaled_at_abort, restored, gate_c ? "PASS" : "FAIL");

  // ------------------------------------------------------------- document
  doc.set("gate_a_fault_isolation", bench::Json::boolean(gate_a));
  doc.set("gate_b_zero_fault_identical", bench::Json::boolean(gate_b));
  doc.set("gate_c_resume_identical", bench::Json::boolean(gate_c));
  doc.set("solver_failed_corners",
          bench::Json::integer(static_cast<long>(fault_n.summary.solver_failed)));
  doc.set("recovered_corners",
          bench::Json::integer(static_cast<long>(fault_n.summary.recovered)));
  doc.set("journaled_at_abort",
          bench::Json::integer(static_cast<long>(journaled_at_abort)));
  doc.set("clean_sweep_wall_s", bench::Json::number(wall_clean));
  doc.set("summary", sweep::summary_json(grid, fault_n.summary));

  if (doc.write_file("BENCH_robust.json")) std::printf("wrote BENCH_robust.json\n");

  const bool base_ok = bench::check_baseline_gate(doc, bargs);
  return gate_a && gate_b && gate_c && base_ok ? 0 : 1;
}
