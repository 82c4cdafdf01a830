// Throughput bench of the parallel corner-sweep engine: estimate one
// PW-RBF macromodel, enumerate a corner grid over supply / PRBS pattern /
// line length / load, run the full transient -> swept-receiver ->
// compliance pipeline per corner on 1 thread and on --jobs threads, and
// verify the two SweepSummary aggregates are bit-identical (the sweep's
// determinism contract). Wall-clock speedup and the worst-margin
// statistics land in BENCH_sweep.json with the shared bench schema.
//
//   bench_sweep [--jobs N] [--smoke]
//
// Default grid: 4 supplies x 4 patterns x 2 lengths x 2 loads = 64
// corners; --smoke shrinks it to 8 corners for CI.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "baseline.hpp"
#include "emc/limits.hpp"
#include "experiments.hpp"
#include "json_out.hpp"
#include "sweep/sweep_runner.hpp"

// The summary/margin JSON emitters moved into the sweep library
// (sweep::summary_json / sweep::margin_json) so the example and RunReports
// share the schema with this bench.

int main(int argc, char** argv) {
  using namespace emc;
  using bench::seconds_since;
  using sweep::summary_json;

  const auto bargs = bench::extract_baseline_args(argc, argv);
  bool smoke = false;
  std::size_t jobs = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: bench_sweep [--jobs N] [--smoke]\n");
      return 2;
    }
  }
  if (jobs == 0) jobs = sweep::ThreadPool::default_workers();

  std::printf("=== bench_sweep: parallel corner sweep, macromodel -> compliance ===%s\n",
              smoke ? "  [smoke mode]" : "");

  auto doc = bench::make_bench_doc("bench_sweep");
  doc.set("smoke", bench::Json::boolean(smoke));
  doc.set("jobs", bench::Json::integer(static_cast<long>(jobs)));
  doc.set("hardware_concurrency",
          bench::Json::integer(static_cast<long>(std::thread::hardware_concurrency())));

  // One immutable macromodel, estimated once and shared (const) by every
  // sweep worker.
  std::printf("estimating MD3 PW-RBF macromodel...\n");
  const auto t_est = std::chrono::steady_clock::now();
  const auto model = exp::make_driver_model(dev::DriverTech::md3_ibm25(), "MD3");
  doc.at("scenarios").push(bench::scenario_row("estimate_model", seconds_since(t_est)));

  sweep::CornerAxes axes;
  if (smoke) {
    axes.vdd_scale = {0.95, 1.05};
    axes.pattern_seed = {1, 2};
    axes.line_length = {0.1};
    axes.load_c = {1e-12, 2e-12};
  } else {
    axes.vdd_scale = {0.90, 0.95, 1.00, 1.05};
    axes.pattern_seed = {1, 2, 3, 4};
    axes.line_length = {0.05, 0.1};
    axes.load_c = {1e-12, 2e-12};
  }
  axes.detector = {sweep::Detector::kQuasiPeak};
  axes.rbw = {20e6};
  axes.pattern_bits = 15;
  const sweep::CornerGrid grid(axes);

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
  const auto corner_fn = sweep::make_emission_corner_fn(cfg);

  std::printf("grid: %zu corners (%zu bits/pattern, %d periods)\n", grid.size(),
              axes.pattern_bits, cfg.periods);

  // Serial reference first, then the parallel run; their summaries must be
  // bit-identical (the determinism contract of the engine). The chunk hint
  // keeps corners sharing one transient on one worker (record memo hits).
  const std::size_t chunk = sweep::emission_chunk_hint(grid);
  sweep::SweepRunner serial(1);
  const auto t1 = std::chrono::steady_clock::now();
  const auto out1 = serial.run(grid, corner_fn, {}, chunk);
  const double wall_1 = seconds_since(t1);
  doc.at("scenarios").push(bench::scenario_row("sweep_1_thread", wall_1));

  sweep::SweepRunner parallel(jobs);
  const auto tn = std::chrono::steady_clock::now();
  const auto outn = parallel.run(grid, corner_fn, {}, chunk);
  const double wall_n = seconds_since(tn);
  doc.at("scenarios").push(
      bench::scenario_row("sweep_" + std::to_string(jobs) + "_threads", wall_n));

  const bool identical = out1.summary == outn.summary;
  const double speedup = wall_n > 0.0 ? wall_1 / wall_n : 0.0;

  std::printf("1 thread: %.2f s   %zu threads: %.2f s   speedup %.2fx\n", wall_1, jobs,
              wall_n, speedup);
  std::printf("summaries bit-identical across thread counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");
  std::printf("verdict: %zu pass / %zu fail, worst margin %+.1f dB at corner %zu (%s)\n",
              outn.summary.passed, outn.summary.failed, outn.summary.worst_margin_db,
              outn.summary.worst_corner, outn.summary.worst_label.c_str());
  // The streamed corner pipeline: what a worker actually held per corner
  // (chunk staging + steady-state record).
  std::printf("record memory/corner: streamed %.1f KiB\n",
              static_cast<double>(outn.summary.peak_streamed_record_bytes) / 1024.0);

  // Worst corner per swept axis value — the table an EMC engineer reads
  // to find which knob drives the failures.
  for (std::size_t a = 0; a < sweep::kNumAxes; ++a) {
    const auto axis = static_cast<sweep::AxisId>(a);
    if (grid.axis_size(axis) < 2) continue;
    std::printf("  %-13s", sweep::axis_name(axis));
    for (std::size_t k = 0; k < grid.axis_size(axis); ++k)
      std::printf("  %s: %+.1f dB", grid.axis_value_label(axis, k).c_str(),
                  outn.summary.axis_worst[a][k]);
    std::printf("\n");
  }

  doc.set("wall_s_1_thread", bench::Json::number(wall_1));
  doc.set("wall_s_n_threads", bench::Json::number(wall_n));
  doc.set("speedup", bench::Json::number(speedup));
  doc.set("bit_identical", bench::Json::boolean(identical));
  doc.set("mean_corner_wall_s",
          bench::Json::number(wall_1 / static_cast<double>(grid.size())));
  doc.set("summary", summary_json(grid, outn.summary));
  doc.set("workers", sweep::worker_stats_json(outn.workers));

  if (doc.write_file("BENCH_sweep.json")) std::printf("wrote BENCH_sweep.json\n");

  const bool base_ok = bench::check_baseline_gate(doc, bargs);

  // Gate on determinism, never on speedup: speedup is hardware-dependent
  // (recorded in the JSON next to hardware_concurrency).
  return identical && base_ok ? 0 : 1;
}
