// Observability-layer bench + gate: prove the emc::obs instrumentation is
// free where it must be free and truthful where it must be truthful.
//
//   bench_obs [--smoke]
//
// Gates (nonzero exit on failure):
//   * bit-identity: a ~200-unknown nonlinear bus transient produces
//     bit-identical records with metrics enabled, metrics disabled, and a
//     tracer installed — instrumentation never perturbs the numerics
//   * overhead: metrics enabled + spans compiled in but no tracer
//     installed costs < 2% wall time vs the kill-switched run
//     (min-of-N interleaved reps, re-measured on a noisy container)
//   * traced sweep: a multi-worker corner sweep under an installed Tracer
//     exports a Chrome trace that parses as valid JSON, carries spans from
//     >= 2 worker threads, nests sweep -> corner -> transient ->
//     newton_step, and keeps every child interval inside its parent
//
// Artifacts: BENCH_obs.json (bench schema), REPORT_obs.json (RunReport),
// obs_sweep.trace.json (Chrome trace, open in Perfetto).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tline.hpp"
#include "baseline.hpp"
#include "emc/limits.hpp"
#include "json_out.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "signal/sample_sink.hpp"
#include "sweep/corner_grid.hpp"
#include "sweep/sweep_runner.hpp"

namespace {

using namespace emc;
using bench::seconds_since;

// ----------------------------------------------------------- bus transient
// Same nonlinear coupled-bus harness bench_sparse gates the solvers on:
// pulsed drivers, a lossy 8-conductor line, diode clamps. Every Newton
// iteration restamps and refactors, so the per-step / per-factor span and
// counter sites all run hot.
struct BusSpec {
  int conductors = 8;
  int sections = 16;
  double length = 0.3;
  double dt = 50e-12;
  double t_stop = 4e-9;
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
    c.add<ckt::Resistor>(src, near[static_cast<std::size_t>(k)], 25.0);
  }
  add_coupled_lossy_line(c, near, far, p, spec.dt, spec.sections);
  for (int k = 0; k < n; ++k) {
    c.add<ckt::Diode>(c.ground(), far[static_cast<std::size_t>(k)]);
    c.add<ckt::Capacitor>(far[static_cast<std::size_t>(k)], c.ground(), 2e-12);
  }
  return far;
}

struct BusRun {
  std::vector<double> record;
  double wall_s = 0.0;
  int n_unknowns = 0;
};

BusRun run_bus(const BusSpec& spec) {
  ckt::Circuit c;
  const auto far = build_bus(c, spec);
  BusRun out;
  out.n_unknowns = c.finalize();
  ckt::TransientOptions opt;
  opt.dt = spec.dt;
  opt.t_stop = spec.t_stop;
  opt.solver = ckt::SolverKind::kSparse;
  ckt::NewtonWorkspace ws;
  sig::RecordingSink rec;
  const auto t0 = std::chrono::steady_clock::now();
  ckt::run_transient_streamed(c, opt, ws, far, rec);
  out.wall_s = seconds_since(t0);
  out.record = std::move(rec).take_data();
  return out;
}

// -------------------------------------------------------------- RC sweep
// Cheap corner pipeline (no macromodel estimation) whose transients still
// drive the dc/transient/newton_step span sites — enough structure for the
// trace-nesting gate without bench-scale wall time.
sweep::CornerResult rc_corner(const sweep::Scenario& sc, sweep::Workspace& ws) {
  ckt::Circuit c;
  const int in = c.node();
  const int out = c.node();
  c.add<ckt::VSource>(in, c.ground(), 1.0 * sc.vdd_scale);
  c.add<ckt::Resistor>(in, out, 1e3 * (1.0 + sc.line_length));
  c.add<ckt::Capacitor>(out, c.ground(), sc.load_c);

  ckt::TransientOptions opt;
  opt.dt = 1e-9;
  opt.t_stop = 400e-9;
  const auto res = ckt::run_transient(c, opt, ws.newton);
  const auto v = res.waveform(out);

  spec::LimitMask mask{"v-final", {{1e5, 1.0}, {1e7, 1.0}}};
  const double freq[] = {1e6};
  const double level[] = {v[v.size() - 1]};
  return {.report = spec::check_compliance(freq, level, mask, sc.label())};
}

// --------------------------------------------------- trace-shape checker
struct TraceCheck {
  bool valid_json = false;
  bool nesting_ok = false;
  std::size_t tids = 0;
  std::size_t events = 0;
  std::set<std::string> names;
  std::string error;
};

TraceCheck check_chrome_trace(const std::string& text) {
  TraceCheck out;
  obs::Json doc;
  try {
    doc = obs::Json::parse(text);
  } catch (const obs::JsonParseError& e) {
    out.error = e.what();
    return out;
  }
  out.valid_json = true;

  const obs::Json* events = doc.find("traceEvents");
  if (!events || !events->is_array()) {
    out.error = "no traceEvents array";
    return out;
  }
  out.events = events->size();

  // Per-tid event streams, kept in file order (the exporter sorts by
  // (tid, start, -duration), so a parent precedes its children).
  struct Ev {
    double ts, dur;
    long depth;
    std::string name;
  };
  std::map<long, std::vector<Ev>> by_tid;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::Json& e = (*events)[i];
    if (e.at("ph").as_string() != "X") {
      out.error = "unexpected phase";
      return out;
    }
    Ev ev{e.at("ts").as_double(), e.at("dur").as_double(),
          e.at("args").at("depth").as_integer(), e.at("name").as_string()};
    out.names.insert(ev.name);
    by_tid[e.at("tid").as_integer()].push_back(ev);
  }
  out.tids = by_tid.size();

  // Stack containment per thread: an event at depth d must lie inside the
  // most recent still-open event at depth d-1.
  out.nesting_ok = true;
  for (const auto& [tid, evs] : by_tid) {
    std::vector<Ev> stack;
    for (const Ev& e : evs) {
      while (!stack.empty() &&
             static_cast<long>(stack.size()) > e.depth)
        stack.pop_back();
      if (static_cast<long>(stack.size()) != e.depth) {
        out.nesting_ok = false;
        out.error = "depth jump without parent (tid " + std::to_string(tid) + ")";
        return out;
      }
      if (!stack.empty()) {
        const Ev& p = stack.back();
        const double eps = 1e-3;  // exporter rounds ns to µs
        if (e.ts + eps < p.ts || e.ts + e.dur > p.ts + p.dur + eps) {
          out.nesting_ok = false;
          out.error = "child escapes parent interval (tid " + std::to_string(tid) + ")";
          return out;
        }
      }
      stack.push_back(e);
    }
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  const auto bargs = bench::extract_baseline_args(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_obs [--smoke]\n");
      return 2;
    }
  }

  std::printf("=== bench_obs: observability bit-identity / overhead / trace ===%s\n",
              smoke ? "  [smoke mode]" : "");
  auto doc = bench::make_bench_doc("bench_obs");
  doc.set("smoke", bench::Json::boolean(smoke));
  bool ok = true;

  BusSpec spec;
  if (smoke) spec.t_stop = 2e-9;

  // ---------------------------------------------------------------- A ----
  // Bit-identity: metrics on (default), kill-switched, and fully traced
  // runs of the same transient must agree to the last bit.
  obs::registry().set_enabled(true);
  const auto t_ident = std::chrono::steady_clock::now();
  const BusRun enabled = run_bus(spec);

  obs::registry().set_enabled(false);
  const BusRun disabled = run_bus(spec);

  obs::registry().set_enabled(true);
  obs::Tracer ident_tracer;
  ident_tracer.install();
  const BusRun traced = run_bus(spec);
  ident_tracer.uninstall();

  const bool identical =
      enabled.record == disabled.record && enabled.record == traced.record;
  ok &= identical;
  std::printf("[A] bit-identity (%d unknowns, %zu samples): %s\n", enabled.n_unknowns,
              enabled.record.size(), identical ? "identical" : "DIFFERENT");
  doc.at("scenarios").push(
      bench::scenario_row("bit_identity", seconds_since(t_ident)));
  doc.set("n_unknowns", bench::Json::integer(enabled.n_unknowns));
  doc.set("bit_identical", bench::Json::boolean(identical));

  // ---------------------------------------------------------------- B ----
  // Overhead of enabled-but-untraced instrumentation vs the kill switch:
  // interleaved reps, min-of-N per arm (min is the noise-robust statistic
  // for a quiet machine), re-measured with more reps if a noisy first
  // attempt exceeds the gate.
  double overhead = 0.0;
  bool overhead_ok = false;
  const int base_reps = smoke ? 3 : 5;
  const auto t_ovh = std::chrono::steady_clock::now();
  for (int attempt = 0; attempt < 3 && !overhead_ok; ++attempt) {
    double min_en = 1e300, min_dis = 1e300;
    const int reps = base_reps * (attempt + 1);
    for (int r = 0; r < reps; ++r) {
      obs::registry().set_enabled(true);
      min_en = std::min(min_en, run_bus(spec).wall_s);
      obs::registry().set_enabled(false);
      min_dis = std::min(min_dis, run_bus(spec).wall_s);
    }
    overhead = min_dis > 0.0 ? (min_en - min_dis) / min_dis : 0.0;
    overhead_ok = overhead < 0.02;
    std::printf("[B] attempt %d: enabled %.4fs  disabled %.4fs  overhead %+.2f%%\n",
                attempt + 1, min_en, min_dis, 100.0 * overhead);
  }
  obs::registry().set_enabled(true);
  ok &= overhead_ok;
  std::printf("[B] instrumentation overhead (tracing off): %+.2f%% (< 2%% required) %s\n",
              100.0 * overhead, overhead_ok ? "ok" : "FAILED");
  doc.at("scenarios").push(bench::scenario_row("overhead", seconds_since(t_ovh)));
  doc.set("overhead_fraction", bench::Json::number(overhead));
  doc.set("overhead_ok", bench::Json::boolean(overhead_ok));

  // ---------------------------------------------------------------- C ----
  // Traced multi-worker sweep -> Chrome trace -> parse back and verify.
  // On a loaded single-core CI the helper worker can lose every cursor
  // race; retry until both threads recorded spans.
  sweep::CornerAxes axes;
  axes.vdd_scale = {0.8, 0.9, 1.0, 1.1};
  axes.line_length = {0.0, 0.5, 1.0};
  axes.load_c = {50e-12, 100e-12};
  const sweep::CornerGrid grid(axes);

  TraceCheck check;
  sweep::SweepOutcome sweep_out;
  obs::MetricsSnapshot sweep_metrics;
  obs::Profile profile;
  std::size_t sweep_threads = 0, sweep_dropped = 0, trace_events = 0;
  const auto t_sweep = std::chrono::steady_clock::now();
  const int max_tries = 10;
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    obs::registry().reset();
    // Ring sized for the whole traced sweep: the zero-drop gate below
    // requires that no event was overwritten, so the profile is complete.
    obs::Tracer tracer(1 << 18);
    tracer.install();
    {
      obs::Span root("bench_obs");
      sweep::SweepRunner runner(2);
      sweep_out = runner.run(grid, rc_corner, {}, /*chunk=*/1);
    }
    tracer.uninstall();
    sweep_metrics = obs::registry().snapshot();
    sweep_threads = tracer.threads();
    sweep_dropped = tracer.dropped();
    trace_events = tracer.events().size();
    profile = obs::Profile::build(tracer);

    if (!tracer.write_chrome_trace("obs_sweep.trace.json")) break;
    check = check_chrome_trace(read_file("obs_sweep.trace.json"));
    if (check.valid_json && check.nesting_ok && check.tids >= 2) break;
    std::printf("[C] attempt %d: tids=%zu (%s) — retrying\n", attempt + 1, check.tids,
                check.error.empty() ? "need both workers traced" : check.error.c_str());
  }

  const bool spans_present = check.names.count("sweep") && check.names.count("corner") &&
                             check.names.count("transient") &&
                             check.names.count("newton_step");
  const bool trace_ok =
      check.valid_json && check.nesting_ok && check.tids >= 2 && spans_present;
  ok &= trace_ok;
  std::printf(
      "[C] traced sweep: %zu events, %zu threads, %zu dropped; json %s, nesting %s, "
      "spans %s %s\n",
      check.events, check.tids, sweep_dropped, check.valid_json ? "valid" : "INVALID",
      check.nesting_ok ? "ok" : "BROKEN", spans_present ? "complete" : "MISSING",
      trace_ok ? "" : (" [" + check.error + "]").c_str());
  doc.at("scenarios").push(bench::scenario_row("traced_sweep", seconds_since(t_sweep)));
  doc.set("trace_events", bench::Json::integer(static_cast<long>(check.events)));
  doc.set("trace_threads", bench::Json::integer(static_cast<long>(check.tids)));
  doc.set("trace_dropped", bench::Json::integer(static_cast<long>(sweep_dropped)));
  doc.set("trace_ok", bench::Json::boolean(trace_ok));

  // ---------------------------------------------------------------- D ----
  // Drop-free tracing: the sized-up ring must have retained every event of
  // the sweep (dropped == 0), and the profile built from it must not be
  // flagged truncated — the hard-warning contract for regression gates.
  const bool drops_ok = sweep_dropped == 0 && !profile.truncated() &&
                        profile.events() == trace_events &&
                        profile.spans().count("newton_step") > 0;
  ok &= drops_ok;
  std::printf("[D] drop-free profile: %zu events, dropped %zu, truncated %s: %s\n",
              profile.events(), sweep_dropped, profile.truncated() ? "yes" : "no",
              drops_ok ? "ok" : "FAILED");
  doc.set("profile_truncated", bench::Json::boolean(profile.truncated()));
  doc.set("drops_ok", bench::Json::boolean(drops_ok));

  // ------------------------------------------------------------ report ----
  // The structured run report of the traced sweep: what ran, how hard the
  // solver worked, how the pool spent its time, what the scan decided.
  obs::RunReport report("bench_obs");
  ckt::SolveStats agg;
  std::size_t reused = 0;
  bool first_solve = true;
  for (const auto& r : sweep_out.results) {
    if (r.transient_reused) {
      ++reused;
      continue;
    }
    if (first_solve) {
      agg = r.solve;
      first_solve = false;
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
  report.set("sweep", "summary", sweep::summary_json(grid, sweep_out.summary));
  report.set("sweep", "transients_reused", static_cast<long>(reused));
  report.set("workers", "pool", sweep::worker_stats_json(sweep_out.workers));
  report.add_metrics(sweep_metrics);
  report.set("trace", "threads", static_cast<long>(sweep_threads));
  report.set("trace", "events", static_cast<long>(trace_events));
  report.set("trace", "dropped_events", static_cast<long>(sweep_dropped));
  report.set("trace", "file", std::string("obs_sweep.trace.json"));
  report.add_profile(profile);
  if (report.write("REPORT_obs.json")) std::printf("wrote REPORT_obs.json\n");

  doc.set("gates_passed", bench::Json::boolean(ok));
  if (doc.write_file("BENCH_obs.json")) std::printf("wrote BENCH_obs.json\n");
  ok = bench::check_baseline_gate(doc, bargs) && ok;
  std::printf("bench_obs: %s\n", ok ? "all gates passed" : "GATE FAILURE");
  return ok ? 0 : 1;
}
