// bench_report: gates for the report-analysis layer (obs::Profile,
// obs::ResourceSampler, obs::merge_run_reports, obs::check_baseline).
//
//   [A] shard-merge equality — a 24-corner sweep run once in-process and
//       once as 4 journaled ShardRange quarters (fresh metrics registry
//       per shard). The shard reports merge their metrics; the solver and
//       sweep sections come from one run over the concatenated shard
//       journals, tried in both shard orders. Both must be byte-identical
//       to the single-process report on every solver, sweep-summary and
//       metrics field. The only excluded counter is sweep.runs (1 vs 4 by
//       construction) plus the scheduling-dependent sections (workers,
//       trace, wall times).
//
//   [B] profile coverage — a single-threaded traced sweep through the
//       transient -> scan pipeline, aggregated by obs::Profile, must
//       attribute >= 80% of the traced sweep wall time to the named
//       pipeline span sites (self time of newton_step, transient, scan,
//       dc, build and mask), with zero
//       ring drops. The profile, resource samples and collapsed stacks
//       land in REPORT_report.json / report_profile.folded.
//
//   [C] regression-gate round trip — a min-of-N wall-time baseline
//       captured in-process and written through the real spec file format
//       must PASS an unmodified rerun and flag REGRESS on a deliberately
//       slowed run (8x the simulated time plus the kReference scan path).
//
//   bench_report [--smoke] [--check-baseline SPEC] [--baseline-scale X]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "circuit/devices_linear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "emc/limits.hpp"
#include "emc/receiver.hpp"
#include "json_out.hpp"
#include "obs/compare.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"
#include "robust/journal.hpp"
#include "sweep/corner_grid.hpp"
#include "sweep/sweep_runner.hpp"

namespace {

using namespace emc;
using bench::seconds_since;

// ------------------------------------------------------ corner pipeline
// RC transient -> EMI receiver scan -> mask check. Deliberately cheap but
// structurally complete: it drives the dc/transient/newton_step span and
// counter sites through the engine and the scan/zoom counters through the
// receiver, so shard merges and profiles have every metric family to
// aggregate. There is no memoized stage, so every corner reports its own
// transient's solver stats.
sweep::CornerResult rc_scan_corner(const sweep::Scenario& sc, sweep::Workspace& ws) {
  ckt::Circuit c;
  int out = 0;
  {
    obs::Span span("build");
    const int in = c.node();
    out = c.node();
    // Square-ish drive so the scan sees harmonics, not just a settled step.
    const double vdd = 1.0 * sc.vdd_scale;
    c.add<ckt::VSource>(in, c.ground(), [vdd](double t) {
      return std::fmod(t * 1e7, 1.0) < 0.5 ? 0.0 : vdd;
    });
    c.add<ckt::Resistor>(in, out, 1e3 * (1.0 + sc.line_length));
    c.add<ckt::Capacitor>(out, c.ground(), sc.load_c);
  }

  ckt::TransientOptions opt;
  opt.dt = 1e-9;
  opt.t_stop = 400e-9;
  const auto res = ckt::run_transient(c, opt, ws.newton);
  const auto v = res.waveform(out);

  spec::ReceiverSettings rx;
  rx.name = "report scan";
  rx.f_start = 1e6;
  rx.f_stop = 1e8;
  rx.n_points = 12;
  rx.rbw = 2e6;
  rx.tau_charge = 1e-9;
  rx.tau_discharge = 30e-9;
  const auto scan = ws.scanner.scan(v, rx);

  obs::Span span("mask");
  spec::LimitMask mask{"report-mask", {{1e6, 120.0}, {1e8, 120.0}}};
  return {.report = spec::check_compliance(scan.freq, scan.peak_dbuv, mask, sc.label(),
                                           scan.skipped_points),
          .solve = res.stats};
}

// -------------------------------------------------------- report builder
// The RunReport every phase of gate [A] emits: solver aggregate (corners
// with a reused transient skipped, as in bench_obs), sweep summary,
// worker stats, metrics snapshot.
obs::Json make_report(const sweep::CornerGrid& grid, const sweep::SweepOutcome& out,
                      const obs::MetricsSnapshot& snap) {
  obs::RunReport report("bench_report");
  ckt::SolveStats agg;
  std::size_t reused = 0;
  bool first = true;
  for (const auto& r : out.results) {
    if (r.transient_reused) {
      ++reused;
      continue;
    }
    if (first) {
      agg = r.solve;
      first = false;
    } else {
      agg.merge(r.solve);
    }
  }
  report.set("solver", "kind",
             std::string(agg.used_sparse == 1   ? "sparse"
                         : agg.used_sparse == 0 ? "dense"
                                                : "mixed"));
  report.set("solver", "newton_iters", agg.total_newton_iters);
  report.set("solver", "dc_newton_iters", agg.dc_newton_iters);
  report.set("solver", "restamps", agg.restamps);
  report.set("solver", "steps", agg.steps);
  report.set("sweep", "summary", sweep::summary_json(grid, out.summary));
  report.set("sweep", "transients_reused", static_cast<long>(reused));
  report.set("workers", "pool", sweep::worker_stats_json(out.workers));
  report.add_metrics(snap);
  return report.to_json();
}

/// The deterministic view of a report gate [A] compares: the solver and
/// sweep sections of `run` plus every metric of `metrics` except the
/// invocation-scoped sweep.runs counter (1 for the full run, 4 for the
/// shards by construction).
obs::Json deterministic_view(const obs::Json& run, const obs::Json& metrics_doc) {
  obs::Json view = obs::Json::object();
  view.set("solver", run.at("solver"));
  view.set("sweep", run.at("sweep"));
  obs::Json metrics = obs::Json::object();
  for (const auto& [name, value] : metrics_doc.at("metrics").fields())
    if (name != "sweep.runs") metrics.set(name, value);
  view.set("metrics", std::move(metrics));
  return view;
}

// ---------------------------------------------------- gate [C] pipeline
/// One transient -> scan pipeline run; `t_scale` multiplies the simulated
/// time and `method` selects the scan's demodulation path. Returns wall
/// seconds — the knob pair (8, kReference) is the "deliberately slowed
/// build" a wall-time baseline must flag.
double scan_pipeline_wall_s(double t_scale, spec::ScanMethod method) {
  const auto t0 = std::chrono::steady_clock::now();
  ckt::Circuit c;
  const int in = c.node();
  const int out = c.node();
  c.add<ckt::VSource>(in, c.ground(),
                      [](double t) { return std::fmod(t * 1e7, 1.0) < 0.5 ? 0.0 : 1.0; });
  c.add<ckt::Resistor>(in, out, 1e3);
  c.add<ckt::Capacitor>(out, c.ground(), 100e-12);

  ckt::TransientOptions opt;
  opt.dt = 1e-9;
  opt.t_stop = 400e-9 * t_scale;
  ckt::NewtonWorkspace ws;
  const auto res = ckt::run_transient(c, opt, ws);
  const auto v = res.waveform(out);

  spec::ReceiverSettings rx;
  rx.name = "gateC scan";
  rx.f_start = 1e6;
  rx.f_stop = 1e8;
  rx.n_points = 12;
  rx.rbw = 2e6;
  rx.tau_charge = 1e-9;
  rx.tau_discharge = 30e-9;
  rx.method = method;
  spec::EmiScanner scanner;
  (void)scanner.scan(v, rx);
  return seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  const auto bargs = bench::extract_baseline_args(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_report [--smoke]\n");
      return 2;
    }
  }

  std::printf("=== bench_report: shard merge / profile coverage / baseline gate ===%s\n",
              smoke ? "  [smoke mode]" : "");
  auto doc = bench::make_bench_doc("bench_report");
  doc.set("smoke", bench::Json::boolean(smoke));
  bool ok = true;

  obs::ResourceSampler sampler({/*interval_ms=*/10, /*ring_capacity=*/4096});
  sampler.start();

  sweep::CornerAxes axes;
  axes.vdd_scale = {0.8, 0.9, 1.0, 1.1};
  axes.line_length = {0.0, 0.5, 1.0};
  axes.load_c = {50e-12, 100e-12};
  const sweep::CornerGrid grid(axes);
  const std::size_t n_shards = 4;

  // ---------------------------------------------------------------- A ----
  // Single-process reference run, then 4 contiguous journaled shards of
  // the same grid, each with a private metrics epoch. The shard reports
  // merge their metrics; the shard journals, concatenated forward and
  // reversed, resume into the merged sweep. Compare the deterministic
  // views byte for byte.
  obs::registry().set_enabled(true);
  const auto t_merge = std::chrono::steady_clock::now();

  obs::registry().reset();
  sweep::SweepRunner full_runner(2);
  const auto full_out = full_runner.run(grid, rc_scan_corner);
  const obs::Json full_report = make_report(grid, full_out, obs::registry().snapshot());

  std::vector<obs::Json> shard_reports;
  std::vector<std::string> shard_journals;
  const std::size_t per_shard = grid.size() / n_shards;
  for (std::size_t s = 0; s < n_shards; ++s) {
    sweep::RunOptions sopt;
    sopt.shard.begin = s * per_shard;
    sopt.shard.end = (s + 1 == n_shards) ? grid.size() : (s + 1) * per_shard;
    sopt.journal_path = "report_shard" + std::to_string(s) + ".jsonl";
    std::remove(sopt.journal_path.c_str());
    obs::registry().reset();
    sweep::SweepRunner shard_runner(2);
    const auto shard_out = shard_runner.run(grid, rc_scan_corner, sopt);
    shard_reports.push_back(make_report(grid, shard_out, obs::registry().snapshot()));
    shard_journals.push_back(sopt.journal_path);
  }
  const obs::Json merged_metrics = obs::merge_run_reports(shard_reports);

  const std::string full_view = deterministic_view(full_report, full_report).dump();
  bool merge_identical = true;
  for (const bool reversed : {false, true}) {
    const std::string all_path = "report_shards_all.jsonl";
    {
      std::ofstream all(all_path, std::ios::trunc);
      for (std::size_t k = 0; k < n_shards; ++k)
        for (const obs::Json& entry :
             robust::load_journal(shard_journals[reversed ? n_shards - 1 - k : k]))
          all << robust::dump_line(entry) << '\n';
    }
    sweep::RunOptions ropt;
    ropt.journal_path = all_path;
    sweep::SweepRunner merge_runner(2);
    const auto merged_out = merge_runner.run(grid, rc_scan_corner, ropt);
    std::remove(all_path.c_str());
    const std::string merged_view =
        deterministic_view(make_report(grid, merged_out, {}), merged_metrics).dump();
    const bool identical = full_view == merged_view;
    merge_identical &= identical;
    std::printf("[A] 4-way shard merge (%s shard order) vs single process "
                "(%zu corners): %s\n",
                reversed ? "reversed" : "grid", grid.size(),
                identical ? "byte-identical" : "DIFFERENT");
    if (!identical) {
      // Dump both so a CI failure is diagnosable from the log.
      std::printf("--- full ---\n%s\n--- merged ---\n%s\n", full_view.c_str(),
                  merged_view.c_str());
    }
  }
  for (const std::string& path : shard_journals) std::remove(path.c_str());
  ok &= merge_identical;
  doc.at("scenarios").push(bench::scenario_row("shard_merge", seconds_since(t_merge)));
  doc.set("merge_identical", bench::Json::boolean(merge_identical));

  // ---------------------------------------------------------------- B ----
  // Traced single-worker sweep -> Profile. Single worker keeps every span
  // on one thread, so self times sum to at most the sweep span's wall time
  // and the coverage ratio is well-defined.
  const auto t_prof = std::chrono::steady_clock::now();
  obs::registry().reset();
  obs::Tracer tracer(1 << 17);
  tracer.install();
  {
    sweep::SweepRunner runner(1);
    (void)runner.run(grid, rc_scan_corner);
  }
  tracer.uninstall();
  const obs::Profile profile = obs::Profile::build(tracer);

  const std::int64_t sweep_total =
      profile.spans().count("sweep") ? profile.spans().at("sweep").total_ns : 0;
  std::int64_t attributed = 0;
  for (const char* site : {"newton_step", "transient", "scan", "dc", "build", "mask"})
    attributed += profile.self_ns(site);
  const double coverage =
      sweep_total > 0 ? static_cast<double>(attributed) / static_cast<double>(sweep_total)
                      : 0.0;
  const bool profile_ok = tracer.dropped() == 0 && !profile.truncated() &&
                          coverage >= 0.80 && coverage <= 1.0 + 1e-9;
  ok &= profile_ok;
  std::printf("[B] profile: %zu events, %zu dropped; pipeline span self time = "
              "%.1f%% of sweep (>= 80%% required): %s\n",
              profile.events(), static_cast<std::size_t>(tracer.dropped()),
              100.0 * coverage, profile_ok ? "ok" : "FAILED");
  doc.at("scenarios").push(bench::scenario_row("profile_sweep", seconds_since(t_prof)));
  doc.set("profile_coverage", bench::Json::number(coverage));
  doc.set("profile_ok", bench::Json::boolean(profile_ok));

  // ---------------------------------------------------------------- C ----
  // Baseline round trip through the real file format. The slowed run is
  // 8x the simulated time through the kReference scan path, so it clears
  // the 4x tolerance with margin; the unmodified rerun uses min-of-N
  // exactly like the capture, retried to ride out scheduler noise.
  const auto t_gate = std::chrono::steady_clock::now();
  const int reps = smoke ? 3 : 5;
  double captured = 1e300;
  for (int r = 0; r < reps; ++r)
    captured = std::min(captured, scan_pipeline_wall_s(1.0, spec::ScanMethod::kAuto));

  obs::Json spec_doc = obs::Json::object();
  spec_doc.set("baseline", obs::Json::string("bench_report.gateC"));
  spec_doc.set("schema_version", obs::Json::integer(1));
  obs::Json row = obs::Json::object();
  row.set("path", obs::Json::string("scenarios[scan_pipeline].wall_s"));
  row.set("value", obs::Json::number(captured));
  row.set("rel_tol", obs::Json::number(3.0));
  row.set("dir", obs::Json::string("upper"));
  obs::Json metrics_rows = obs::Json::array();
  metrics_rows.push(std::move(row));
  spec_doc.set("metrics", std::move(metrics_rows));
  const std::string spec_path = "report_gateC_baseline.json";
  const bool spec_written = spec_doc.write_file(spec_path);

  const auto wall_doc = [](double wall_s) {
    obs::Json d = obs::Json::object();
    obs::Json rows = obs::Json::array();
    obs::Json r2 = obs::Json::object();
    r2.set("name", obs::Json::string("scan_pipeline"));
    r2.set("wall_s", obs::Json::number(wall_s));
    rows.push(std::move(r2));
    d.set("scenarios", std::move(rows));
    return d;
  };

  bool rerun_pass = false;
  const obs::Json spec_parsed = spec_written ? obs::Json::parse_file(spec_path) : spec_doc;
  for (int attempt = 0; attempt < 3 && !rerun_pass; ++attempt) {
    double rerun = 1e300;
    for (int r = 0; r < reps; ++r)
      rerun = std::min(rerun, scan_pipeline_wall_s(1.0, spec::ScanMethod::kAuto));
    rerun_pass = obs::check_baseline(spec_parsed, wall_doc(rerun)).pass;
  }

  const double slowed = scan_pipeline_wall_s(8.0, spec::ScanMethod::kReference);
  const auto slow_check = obs::check_baseline(spec_parsed, wall_doc(slowed));
  const bool regress_detected = !slow_check.pass && slow_check.regressed == 1;

  const bool gate_ok = spec_written && rerun_pass && regress_detected;
  ok &= gate_ok;
  std::printf("[C] baseline gate: captured %.2e s, rerun %s, slowed 8x/kReference "
              "(%.2e s) %s: %s\n",
              captured, rerun_pass ? "PASS" : "REGRESS (unexpected)", slowed,
              regress_detected ? "REGRESS" : "PASS (unexpected)",
              gate_ok ? "ok" : "FAILED");
  doc.at("scenarios").push(bench::scenario_row("baseline_gate", seconds_since(t_gate)));
  doc.set("baseline_rerun_pass", bench::Json::boolean(rerun_pass));
  doc.set("baseline_regress_detected", bench::Json::boolean(regress_detected));

  // ------------------------------------------------------------ report ----
  sampler.stop();
  const auto rstats = sampler.stats();
  const bool resources_ok = rstats.samples >= 2 && rstats.peak_rss_bytes > 0;
  ok &= resources_ok;
  doc.set("resources_ok", bench::Json::boolean(resources_ok));

  obs::RunReport report("bench_report");
  report.set("sweep", "summary", sweep::summary_json(grid, full_out.summary));
  report.add_metrics(obs::registry().snapshot());
  report.add_trace_summary(tracer);
  report.add_profile(profile);
  report.add_resources(sampler);
  if (report.write("REPORT_report.json")) std::printf("wrote REPORT_report.json\n");

  const std::string folded = profile.collapsed_stacks();
  if (std::FILE* f = std::fopen("report_profile.folded", "w")) {
    const bool wrote = std::fwrite(folded.data(), 1, folded.size(), f) == folded.size();
    if (std::fclose(f) == 0 && wrote) std::printf("wrote report_profile.folded\n");
  }

  doc.set("gates_passed", bench::Json::boolean(ok));
  if (doc.write_file("BENCH_report.json")) std::printf("wrote BENCH_report.json\n");
  ok = bench::check_baseline_gate(doc, bargs) && ok;
  std::printf("bench_report: %s\n", ok ? "all gates passed" : "GATE FAILURE");
  return ok ? 0 : 1;
}
