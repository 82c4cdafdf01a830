// verdictbench: the DUT-to-verdict benchmark of the emission pipeline.
//
// One run of a workload goes the whole way a user's run goes: build the
// MD3 reference DUT, estimate its PW-RBF macromodel, build the corner grid
// and the emission corner function, sweep every corner, check the verdicts,
// and write the RunReport. The program repeats that run until --seconds
// have passed (at least three times) and reports medians.
//
//   verdictbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--out-dir DIR] [--reference-dir DIR] [--write-reference]
//
// --trace 0 prints the end-to-end metrics of untraced runs. --trace 1
// alternates untraced and traced runs; the traced ones install an
// obs::Tracer, fold its events with obs::Profile and give the per-layer
// table, and the last one is written as <workload>.traced.report.json.
// The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// Exit status: 0 when every corner matched, 1 when the check failed,
// 2 on bad arguments.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/circuit_dut.hpp"
#include "core/driver_estimator.hpp"
#include "devices/reference_driver.hpp"
#include "experiments.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"
#include "sweep/sweep_runner.hpp"

namespace {

using namespace emc;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The seed the stored reference verdicts were produced with. Any other
/// seed is checked against invariants only.
constexpr std::uint64_t kDefaultSeed = 0;
/// Worst-margin tolerance of the reference check [dB]: two orders below
/// the 1 dB scale a verdict is read at, far above run-to-run rounding.
constexpr double kMarginTolDb = 0.01;
/// Trace ring per thread: large enough that no workload drops an event.
constexpr std::size_t kTraceRing = std::size_t{1} << 20;

// ----------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  std::size_t jobs;         ///< sweep workers
  int periods;              ///< simulated pattern repetitions per transient
  std::size_t scan_points;  ///< fixed receiver-scan grid
  sweep::CornerAxes (*axes)(std::uint64_t seed);
};

/// `count` consecutive PRBS pattern seeds picked by the workload seed.
std::vector<std::uint64_t> pattern_seeds(std::uint64_t seed, std::uint64_t count) {
  std::vector<std::uint64_t> s;
  for (std::uint64_t k = 1; k <= count; ++k) s.push_back(seed * count + k);
  return s;
}

// The example_corner_sweep grid: 2 vdd x 2 patterns x 2 lengths.
sweep::CornerAxes cold_verdict_axes(std::uint64_t seed) {
  sweep::CornerAxes a;
  a.vdd_scale = {0.95, 1.05};
  a.pattern_seed = pattern_seeds(seed, 2);
  a.line_length = {0.05, 0.1};
  return a;
}

// 8 patterns x 2 lengths x 2 loads, one corner per transient.
sweep::CornerAxes transient_bus_axes(std::uint64_t seed) {
  sweep::CornerAxes a;
  a.pattern_seed = pattern_seeds(seed, 8);
  a.line_length = {0.05, 0.1};
  a.load_c = {1e-12, 2e-12};
  return a;
}

// 2 transients, each scored under 4 RBW x 4 vdd x 3 detectors.
sweep::CornerAxes scan_dense_axes(std::uint64_t seed) {
  sweep::CornerAxes a;
  a.pattern_seed = pattern_seeds(seed, 1);
  a.line_length = {0.1};
  a.load_c = {1e-12, 2e-12};
  a.rbw = {10e6, 20e6, 50e6, 100e6};
  a.vdd_scale = {0.9, 0.95, 1.05, 1.1};
  a.detector = {sweep::Detector::kPeak, sweep::Detector::kQuasiPeak,
                sweep::Detector::kAverage};
  return a;
}

const Workload kWorkloads[] = {
    {"cold_verdict", 1, 3, 30, cold_verdict_axes},
    {"transient_bus", 2, 4, 20, transient_bus_axes},
    {"scan_dense", 2, 3, 2000, scan_dense_axes},
};

sweep::EmissionSweepConfig emission_config(const Workload& w,
                                           const core::PwRbfDriverModel& model) {
  sweep::EmissionSweepConfig cfg;
  cfg.model = &model;
  cfg.line = exp::mcm_fig3_params();  // length set per corner
  cfg.periods = w.periods;
  cfg.rx.name = "wideband scan";
  cfg.rx.f_start = 50e6;
  cfg.rx.f_stop = 5e9;
  cfg.rx.n_points = w.scan_points;
  cfg.rx.tau_charge = 1e-9;
  cfg.rx.tau_discharge = 30e-9;
  cfg.mask = {"board-level mask", {{50e6, 140.0}, {5e9, 90.0}}};
  return cfg;
}

// ------------------------------------------------------------------ one run

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool write_reference = false;
  std::string out_dir = ".";
  std::string reference_dir;
};

/// Everything one DUT-to-verdict run leaves behind.
struct Run {
  double setup_s = 0.0;
  double estimate_s = 0.0;
  double sweep_s = 0.0;
  double report_s = 0.0;
  double run_s = 0.0;
  std::size_t report_bytes = 0;
  std::size_t centres = 0;
  std::size_t corners = 0;
  std::size_t failed_corners = 0;  ///< solver casualties + reference mismatches
  std::vector<std::string> problems;
  sweep::SweepOutcome out;
  obs::MetricsSnapshot metrics;  ///< registry counters of the sweep alone
};

std::vector<vbench::CornerVerdict> verdicts_of(const sweep::SweepOutcome& out) {
  std::vector<vbench::CornerVerdict> v;
  for (const auto& r : out.results)
    v.push_back({r.scenario.label(), r.solver_failed, r.report.pass, r.report.worst_margin_db});
  return v;
}

/// The reference check. With the reference seed every corner is compared
/// with the stored verdicts; otherwise only invariants are checked: every
/// corner scored, fixed-scan detector passes == corners x points, and
/// summarize() of the results equal to the returned summary.
void check_run(const Options& opt, const sweep::CornerGrid& grid,
               const std::vector<vbench::CornerVerdict>* reference, double tol_db, Run& run) {
  const auto& out = run.out;
  run.corners = out.results.size();
  for (const auto& r : out.results) {
    if (r.solver_failed || r.report.points.empty()) {
      ++run.failed_corners;
      run.problems.push_back("corner not scored: " + r.scenario.label() + " " + r.failure);
    }
  }
  if (out.summary.scan_detector_passes != run.corners * opt.workload->scan_points)
    run.problems.push_back("detector passes != corners x scan points");
  if (!(sweep::summarize(grid, out.results) == out.summary))
    run.problems.push_back("summarize(results) differs from the returned summary");
  if (reference) {
    const auto rc = vbench::compare_to_reference(*reference, verdicts_of(out), tol_db);
    run.failed_corners = rc.failed;
    run.problems.insert(run.problems.end(), rc.notes.begin(), rc.notes.end());
  }
}

Run run_once(const Options& opt, const std::vector<vbench::CornerVerdict>* reference,
             double tol_db, const std::string& report_path) {
  const Workload& w = *opt.workload;
  Run run;
  const auto t0 = Clock::now();
  obs::Span run_span(vbench::kSpanRun);

  std::optional<core::PwRbfDriverModel> model;
  std::optional<sweep::CornerGrid> grid;
  sweep::CornerFn fn;
  std::optional<sweep::SweepRunner> runner;
  {
    obs::Span span(vbench::kSpanSetup);
    core::CircuitDriverDut dut(dev::DriverTech::md3_ibm25());
    {
      obs::Span est(vbench::kSpanEstimate);
      const auto te = Clock::now();
      model.emplace(core::estimate_driver_model(dut, core::DriverEstimationOptions{}));
      run.estimate_s = since(te);
    }
    model->name = "MD3";
    grid.emplace(w.axes(opt.seed));
    fn = sweep::make_emission_corner_fn(emission_config(w, *model));
    runner.emplace(w.jobs);
  }
  run.setup_s = since(t0);
  run.centres = model->f_high.num_basis() + model->f_low.num_basis();

  // Scope the registry counters to the sweep.
  obs::registry().reset();
  {
    obs::Span span(vbench::kSpanSweep);
    const auto ts = Clock::now();
    run.out = runner->run(*grid, fn, {}, sweep::emission_chunk_hint(*grid));
    run.sweep_s = since(ts);
  }
  run.metrics = obs::registry().snapshot();

  {
    obs::Span span(vbench::kSpanCheck);
    check_run(opt, *grid, reference, tol_db, run);
  }

  {
    obs::Span span(vbench::kSpanReport);
    const auto tr = Clock::now();
    obs::RunReport report("verdictbench");
    report.set("config", "workload", std::string(w.name));
    report.set("config", "seed", static_cast<long>(opt.seed));
    report.set("config", "jobs", static_cast<long>(w.jobs));
    report.set("config", "corners", static_cast<long>(grid->size()));
    report.set("sweep", "summary", sweep::summary_json(*grid, run.out.summary));
    obs::Json corners = obs::Json::array();
    for (const auto& r : run.out.results) corners.push(sweep::corner_result_json(r));
    report.set("sweep", "corners", std::move(corners));
    report.set("workers", "pool", sweep::worker_stats_json(run.out.workers));
    report.add_metrics(run.metrics);
    if (!report.write(report_path)) run.problems.push_back("could not write " + report_path);
    run.report_s = since(tr);
  }
  std::error_code ec;
  run.report_bytes = static_cast<std::size_t>(std::filesystem::file_size(report_path, ec));
  run.run_s = since(t0);
  return run;
}

// ------------------------------------------------------------ layer metrics

struct LayerDesc {
  const char* name;
  const char* unit;
  const char* moves;  ///< end-to-end metric and workload it should move
};

const LayerDesc kLayers[] = {
    {"core.estimate_s", "s", "setup_s all; run_s cold_verdict"},
    {"core.records_s", "s", "setup_s all"},
    {"ident.fit_s", "s", "setup_s all"},
    {"ident.fit_share", "frac", "fit_s / traced run_s; most on cold_verdict"},
    {"ident.centres", "count", "nothing unless the model changes"},
    {"circuit.transients", "count", "corners_per_s transient_bus"},
    {"circuit.steps", "count", "corners_per_s transient_bus"},
    {"circuit.newton_iters", "count", "corners_per_s transient_bus"},
    {"circuit.iters_per_step", "iter/step", "corners_per_s transient_bus"},
    {"circuit.transient_s", "s", "corners_per_s transient_bus"},
    {"circuit.transient_share", "frac", "transient_s / corner time; most on transient_bus"},
    {"circuit.newton_self_s", "s", "corners_per_s transient_bus"},
    {"circuit.us_per_step", "us", "corners_per_s transient_bus"},
    {"linalg.factor_s", "s", "corners_per_s transient_bus"},
    {"linalg.factors", "count", "corners_per_s transient_bus"},
    {"linalg.refactors", "count", "corners_per_s transient_bus"},
    {"linalg.solves", "count", "corners_per_s transient_bus"},
    {"linalg.walk_entries", "count", "corners_per_s transient_bus"},
    {"emc.scan_s", "s", "corners_per_s scan_dense; nothing on transient_bus"},
    {"emc.scan_share", "frac", "scan_s / corner time; most on scan_dense"},
    {"emc.detector_passes", "count", "corners_per_s scan_dense"},
    {"emc.us_per_pass", "us", "corners_per_s scan_dense"},
    {"emc.zoom_points", "count", "corners_per_s scan_dense"},
    {"emc.reference_points", "count", "corners_per_s scan_dense"},
    {"signal.record_bytes_peak", "bytes", "peak_rss_mb all"},
    {"sweep.wall_s", "s", "corners_per_s all"},
    {"sweep.memo_hit_ratio", "frac", "corners_per_s scan_dense"},
    {"sweep.busy_frac", "frac", "corners_per_s transient_bus"},
    {"sweep.idle_s", "s", "corners_per_s transient_bus"},
    {"sweep.corner_self_s", "s", "corners_per_s scan_dense"},
    {"robust.retry_attempts", "count", "corner_fail_frac all"},
    {"robust.recovered", "count", "corner_fail_frac all"},
    {"robust.solver_failed", "count", "corner_fail_frac all"},
    {"corner_fail_frac", "frac", "failed corners / corners; 0 when correct"},
    {"obs.report_s", "s", "run_s all"},
    {"obs.report_bytes", "bytes", "run_s all"},
    {"obs.traced_run_s", "s", "run_s of the traced run"},
    {"obs.trace_overhead_frac", "frac", "traced run_s / untraced run_s - 1"},
    {"obs.dropped_events", "count", "must be 0 for the layer numbers to count"},
};

using Values = std::map<std::string, double>;

Values layer_values(const Run& run, const obs::Profile& profile) {
  const vbench::SpanLayers sl = vbench::span_layers(profile);
  const auto& out = run.out;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  double transients = 0, steps = 0, iters = 0, retries = 0;
  for (const auto& r : out.results) {
    if (r.transient_reused || r.solver_failed) continue;
    transients += 1;
    steps += static_cast<double>(r.solve.steps);
    iters += static_cast<double>(r.solve.total_newton_iters);
    retries += r.solve_attempts - 1;
  }
  double busy_ns = 0, idle_ns = 0;
  for (const auto& ws : out.workers) {
    busy_ns += static_cast<double>(ws.busy_ns);
    idle_ns += static_cast<double>(ws.idle_ns);
  }
  const auto counter = [&](const char* name) {
    return static_cast<double>(run.metrics.value(name));
  };
  const double corners = static_cast<double>(run.corners);
  const double passes = static_cast<double>(out.summary.scan_detector_passes);

  Values v;
  v["core.estimate_s"] = run.estimate_s;
  v["core.records_s"] = sl.records_s;
  v["ident.fit_s"] = sl.fit_s;
  v["ident.fit_share"] = ratio(sl.fit_s, run.run_s);
  v["ident.centres"] = static_cast<double>(run.centres);
  v["circuit.transients"] = transients;
  v["circuit.steps"] = steps;
  v["circuit.newton_iters"] = iters;
  v["circuit.iters_per_step"] = ratio(iters, steps);
  v["circuit.transient_s"] = sl.transient_s;
  v["circuit.transient_share"] = ratio(sl.transient_s, sl.corner_s);
  v["circuit.newton_self_s"] = sl.newton_self_s;
  v["circuit.us_per_step"] = 1e6 * ratio(sl.transient_s, steps);
  v["linalg.factor_s"] = sl.factor_s;
  v["linalg.factors"] = static_cast<double>(sl.factors);
  v["linalg.refactors"] = counter("linalg.sparselu.refactors");
  v["linalg.solves"] = counter("linalg.sparselu.solves");
  v["linalg.walk_entries"] = counter("linalg.sparselu.walk_entries");
  v["emc.scan_s"] = sl.scan_s;
  v["emc.scan_share"] = ratio(sl.scan_s, sl.corner_s);
  v["emc.detector_passes"] = passes;
  v["emc.us_per_pass"] = 1e6 * ratio(sl.scan_s, passes);
  v["emc.zoom_points"] = counter("spec.scan.zoom_points");
  v["emc.reference_points"] = counter("spec.scan.reference_points");
  v["signal.record_bytes_peak"] = static_cast<double>(out.summary.peak_streamed_record_bytes);
  v["sweep.wall_s"] = run.sweep_s;
  v["sweep.memo_hit_ratio"] = ratio(counter("sweep.memo_hits"), corners);
  v["sweep.busy_frac"] = ratio(busy_ns, busy_ns + idle_ns);
  v["sweep.idle_s"] = idle_ns * 1e-9;
  v["sweep.corner_self_s"] = sl.corner_self_s;
  v["robust.retry_attempts"] = retries;
  v["robust.recovered"] = counter("robust.retry.recovered");
  v["robust.solver_failed"] = static_cast<double>(out.summary.solver_failed);
  v["corner_fail_frac"] = ratio(static_cast<double>(run.failed_corners), corners);
  v["obs.report_s"] = run.report_s;
  v["obs.report_bytes"] = static_cast<double>(run.report_bytes);
  v["obs.traced_run_s"] = run.run_s;
  v["obs.dropped_events"] = static_cast<double>(profile.dropped_events());
  return v;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int usage() {
  std::fprintf(stderr,
               "usage: verdictbench --workload {cold_verdict|transient_bus|scan_dense}\n"
               "                    [--seed N] [--seconds S] [--trace 0|1]\n"
               "                    [--out-dir DIR] [--reference-dir DIR] [--write-reference]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--write-reference") {
      opt.write_reference = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      const std::string name = argv[++i];
      for (const auto& w : kWorkloads)
        if (name == w.name) opt.workload = &w;
      if (!opt.workload) return false;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out-dir") {
      opt.out_dir = argv[++i];
    } else if (a == "--reference-dir") {
      opt.reference_dir = argv[++i];
    } else {
      return false;
    }
  }
  return opt.workload != nullptr;
}

void print_run(const char* kind, const Run& r) {
  std::printf("%-9s run_s %7.3f  setup_s %7.3f  sweep_s %7.3f  corners %zu  failed %zu\n",
              kind, r.run_s, r.setup_s, r.sweep_s, r.corners, r.failed_corners);
  for (const auto& p : r.problems) std::printf("  problem: %s\n", p.c_str());
}

int run_bench(const Options& opt) {
  const Workload& w = *opt.workload;
  const std::string name = w.name;
  std::filesystem::create_directories(opt.out_dir);
  const std::string report_path = opt.out_dir + "/" + name + ".report.json";
  const std::string ref_path = opt.reference_dir + "/" + name + ".json";

  if (opt.write_reference) {
    const Run r = run_once(opt, nullptr, kMarginTolDb, report_path);
    print_run("reference", r);
    if (!r.problems.empty()) return 1;
    const auto doc =
        vbench::reference_json(name, opt.seed, kMarginTolDb, verdicts_of(r.out));
    std::filesystem::create_directories(opt.reference_dir);
    if (!doc.write_file(ref_path)) return 1;
    std::printf("wrote %s\n", ref_path.c_str());
    return 0;
  }

  std::vector<vbench::CornerVerdict> reference;
  double tol_db = kMarginTolDb;
  const bool with_reference = opt.seed == kDefaultSeed;
  if (with_reference)
    reference = vbench::verdicts_from_json(obs::Json::parse_file(ref_path), tol_db);
  const auto* ref = with_reference ? &reference : nullptr;

  std::printf("== verdictbench %s: seed %llu, %zu worker(s), %s ==\n", name.c_str(),
              static_cast<unsigned long long>(opt.seed), w.jobs,
              opt.trace ? "untraced + traced runs" : "untraced runs");
  std::printf("check: %s\n", with_reference
                                 ? "per-corner verdicts and margins against the reference"
                                 : "invariants only (no reference for this seed)");

  // Only scalars outlive a run, so peak RSS does not grow with the number
  // of runs that fit in --seconds.
  std::vector<double> setup, run_s, rate;
  std::vector<Values> traced;
  std::optional<obs::RunReport> traced_report;
  std::size_t attempted = 0, failed = 0;
  bool correct = true;
  const auto account = [&](const Run& r) {
    attempted += r.corners;
    failed += r.failed_corners;
    correct = correct && r.problems.empty();
  };

  const auto t_start = Clock::now();
  const std::size_t min_rounds = opt.trace ? 2 : 3;
  for (std::size_t round = 0;; ++round) {
    {
      const Run r = run_once(opt, ref, tol_db, report_path);
      print_run("untraced", r);
      account(r);
      setup.push_back(r.setup_s);
      run_s.push_back(r.run_s);
      rate.push_back(static_cast<double>(r.corners) / r.sweep_s);
    }
    if (opt.trace) {
      obs::Tracer tracer(kTraceRing);
      obs::ResourceSampler sampler;
      sampler.start();
      tracer.install();
      Run r = run_once(opt, ref, tol_db, report_path);
      tracer.uninstall();
      sampler.stop();
      print_run("traced", r);
      account(r);
      const auto profile = obs::Profile::build(tracer);
      traced.push_back(layer_values(r, profile));

      traced_report.emplace("verdictbench_traced");
      traced_report->set("config", "workload", name);
      traced_report->set("config", "seed", static_cast<long>(opt.seed));
      traced_report->set("config", "jobs", static_cast<long>(w.jobs));
      traced_report->set("sweep", "summary",
                         sweep::summary_json(sweep::CornerGrid(w.axes(opt.seed)), r.out.summary));
      traced_report->add_metrics(r.metrics);
      traced_report->add_trace_summary(tracer);
      traced_report->add_profile(profile);
      traced_report->add_resources(sampler);
    }
    const double elapsed = since(t_start);
    const double per_round = elapsed / static_cast<double>(round + 1);
    if (round + 1 >= min_rounds && elapsed + per_round > opt.seconds) break;
  }

  const double fail_frac =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", vbench::median(setup), "s"},
        {"run_s", vbench::median(run_s), "s"},
        {"corners_per_s", vbench::median(rate), "1/s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"corner_ok_frac", 1.0 - fail_frac, "frac"},
    };
    std::printf("\n%zu untraced runs (medians); corner_fail_frac %.6g\n", run_s.size(),
                fail_frac);
    for (const auto& m : metrics)
      std::printf("  %-16s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  } else {
    // Median of every layer metric over the traced runs; the overhead
    // compares traced with untraced run_s medians.
    const double untraced_run_s = vbench::median(run_s);
    std::printf("\n%zu traced runs (medians), %zu untraced runs\n", traced.size(), run_s.size());
    std::printf("  %-26s %14s %-9s %s\n", "metric", "value", "unit", "moves");
    for (const auto& d : kLayers) {
      std::vector<double> xs;
      for (const auto& t : traced) {
        const auto it = t.find(d.name);
        xs.push_back(it != t.end() ? it->second : 0.0);
      }
      double value = vbench::median(xs);
      if (std::strcmp(d.name, "obs.trace_overhead_frac") == 0) {
        std::vector<double> tr;
        for (const auto& t : traced) tr.push_back(t.at("obs.traced_run_s"));
        value = untraced_run_s > 0 ? vbench::median(tr) / untraced_run_s - 1.0 : 0.0;
      } else if (std::strcmp(d.name, "corner_fail_frac") == 0) {
        value = fail_frac;
      }
      metrics.push_back({d.name, value, d.unit});
      std::printf("  %-26s %14.6g %-9s %s\n", d.name, value, d.unit, d.moves);
    }
    obs::Json layers = obs::Json::object();
    for (const auto& m : metrics) layers.set(m.name, obs::Json::number(m.value));
    traced_report->section("layers") = std::move(layers);
    const std::string traced_path = opt.out_dir + "/" + name + ".traced.report.json";
    if (traced_report->write(traced_path))
      std::printf("wrote %s\n", traced_path.c_str());
    else
      correct = false;
  }
  correct = correct && failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage();
  try {
    return run_bench(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verdictbench: %s\n", e.what());
    return 1;
  }
}
