// Tests of the emc::sweep subsystem: grid enumeration and deterministic
// PRBS, thread-pool scheduling/exception behavior, worst-margin
// aggregation, and the determinism contract (1-thread and N-thread sweeps
// produce bit-identical summaries). Most corner functions here are cheap
// synthetic pipelines (small RC transients, hand-built reports); the
// emission scan-memo tests run the real pipeline on a small MD3 estimate.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "core/circuit_dut.hpp"
#include "core/driver_estimator.hpp"
#include "devices/reference_driver.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "robust/error.hpp"
#include "robust/journal.hpp"
#include "sweep/corner_grid.hpp"
#include "sweep/sweep_runner.hpp"
#include "sweep/thread_pool.hpp"
#include "test_temp_path.hpp"

namespace {

using namespace emc;
using namespace emc::sweep;

// ------------------------------------------------------------- CornerGrid

TEST(CornerGrid, EnumerationCountAndOrdering) {
  CornerAxes axes;
  axes.vdd_scale = {0.9, 1.0, 1.1};
  axes.pattern_seed = {1, 2};
  axes.line_length = {0.05, 0.1};
  // detector/load/rbw stay singleton.
  const CornerGrid grid(axes);
  ASSERT_EQ(grid.size(), 3u * 2u * 2u);

  // Mixed-radix order: pattern_seed slowest, then length, then the
  // post-processing vdd_scale axis fastest.
  const auto s0 = grid.at(0);
  EXPECT_EQ(s0.vdd_scale, 0.9);
  EXPECT_EQ(s0.pattern_seed, 1u);
  EXPECT_EQ(s0.line_length, 0.05);

  const auto s1 = grid.at(1);  // fastest non-singleton axis advances first
  EXPECT_EQ(s1.vdd_scale, 1.0);
  EXPECT_EQ(s1.pattern_seed, 1u);
  EXPECT_EQ(s1.line_length, 0.05);

  const auto s3 = grid.at(3);  // vdd wrapped, length advances
  EXPECT_EQ(s3.vdd_scale, 0.9);
  EXPECT_EQ(s3.pattern_seed, 1u);
  EXPECT_EQ(s3.line_length, 0.1);

  const auto last = grid.at(grid.size() - 1);
  EXPECT_EQ(last.vdd_scale, 1.1);
  EXPECT_EQ(last.pattern_seed, 2u);
  EXPECT_EQ(last.line_length, 0.1);

  // Every index decodes to a distinct coordinate tuple and round-trips.
  std::set<std::string> labels;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto sc = grid.at(i);
    EXPECT_EQ(sc.index, i);
    labels.insert(sc.label());
  }
  EXPECT_EQ(labels.size(), grid.size());

  EXPECT_THROW(grid.at(grid.size()), std::out_of_range);
  CornerAxes bad;
  bad.rbw.clear();
  EXPECT_THROW(CornerGrid{bad}, std::invalid_argument);
}

TEST(CornerGrid, PrbsIsDeterministicAndSeedSensitive) {
  const auto a = prbs_bits(7, 31);
  const auto b = prbs_bits(7, 31);
  const auto c = prbs_bits(8, 31);
  ASSERT_EQ(a.size(), 31u);
  EXPECT_EQ(a, b);          // pure function of the seed
  EXPECT_NE(a, c);          // neighboring seeds decorrelate
  for (char ch : a) EXPECT_TRUE(ch == '0' || ch == '1');

  // The scenario's pattern is derived from its own coordinates, never
  // from shared RNG state: two grids enumerate identical patterns.
  CornerAxes axes;
  axes.pattern_seed = {3, 4, 5};
  const CornerGrid g1(axes), g2(axes);
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_EQ(g1.at(i).bits, g2.at(i).bits);
    EXPECT_EQ(g1.at(i).bits, prbs_bits(g1.at(i).pattern_seed, axes.pattern_bits));
  }
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  constexpr std::size_t kN = 1000;
  // Chunk sizes around and past the range length, including one that does
  // not divide kN: every index must still run exactly once.
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}, kN + 1}) {
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(
        kN,
        [&](std::size_t i, std::size_t worker) {
          ASSERT_LT(worker, 4u);
          hits[i].fetch_add(1);
        },
        chunk);
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "chunk " << chunk;
  }
}

TEST(ThreadPool, ZeroItemsReturnsImmediatelyAndPoolStaysUsable) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 0);
  // Zero-length loops with any chunk hint are equally inert.
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ++ran; }, 1000);
  EXPECT_EQ(ran.load(), 0);
  pool.parallel_for(5, [&](std::size_t, std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 5);
}

TEST(ThreadPool, MoreWorkersThanItems) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 3;
  std::vector<std::atomic<int>> hits(kN);
  std::set<std::size_t> workers_seen;
  std::mutex mu;
  pool.parallel_for(kN, [&](std::size_t i, std::size_t worker) {
    ASSERT_LT(worker, 8u);
    hits[i].fetch_add(1);
    std::lock_guard<std::mutex> lk(mu);
    workers_seen.insert(worker);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
  // At most one worker per item can have participated.
  EXPECT_LE(workers_seen.size(), kN);
}

TEST(ThreadPool, ChunkHintLargerThanItemCount) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10;
  std::vector<std::atomic<int>> hits(kN);
  std::set<std::size_t> workers_seen;
  std::mutex mu;
  pool.parallel_for(
      kN,
      [&](std::size_t i, std::size_t worker) {
        hits[i].fetch_add(1);
        std::lock_guard<std::mutex> lk(mu);
        workers_seen.insert(worker);
      },
      /*chunk=*/1000);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
  // One chunk swallows the whole range: exactly one worker ran it.
  EXPECT_EQ(workers_seen.size(), 1u);
}

TEST(ThreadPool, WorkerAccountingIsConsistent) {
  ThreadPool pool(3);
  // Fresh pool: no epochs observed yet.
  for (const auto& ws : pool.worker_stats()) {
    EXPECT_EQ(ws.epochs, 0u);
    EXPECT_EQ(ws.busy_ns + ws.idle_ns, 0u);
    EXPECT_EQ(ws.items, 0u);
  }

  constexpr std::size_t kN = 64;
  constexpr int kEpochs = 3;
  auto spin = [](std::size_t, std::size_t) {
    volatile double x = 1.0;
    for (int k = 0; k < 20000; ++k) x = x * 1.0000001 + 1e-9;
  };
  for (int e = 0; e < kEpochs; ++e) pool.parallel_for(kN, spin);

  const auto stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 3u);
  std::uint64_t items = 0;
  for (std::size_t w = 0; w < stats.size(); ++w) {
    const auto& ws = stats[w];
    EXPECT_EQ(ws.epochs, static_cast<std::uint64_t>(kEpochs)) << "worker " << w;
    items += ws.items;
    // Busy never exceeds busy+idle (= the summed epoch wall time), and the
    // busy fraction is a well-defined [0, 1] number — the consistency the
    // report's busy_fraction field relies on.
    const std::uint64_t total = ws.busy_ns + ws.idle_ns;
    EXPECT_LE(ws.busy_ns, total);
    if (ws.items > 0) {
      EXPECT_GT(ws.busy_ns, 0u) << "worker " << w;
    }
  }
  EXPECT_EQ(items, static_cast<std::uint64_t>(kN) * kEpochs);
  // Every worker observed the same epochs, so their wall totals agree up
  // to clock granularity: all busy+idle sums are the same value.
  const std::uint64_t ref = stats[0].busy_ns + stats[0].idle_ns;
  EXPECT_GT(ref, 0u);
  for (const auto& ws : stats) EXPECT_EQ(ws.busy_ns + ws.idle_ns, ref);

  pool.reset_worker_stats();
  for (const auto& ws : pool.worker_stats()) {
    EXPECT_EQ(ws.epochs, 0u);
    EXPECT_EQ(ws.items, 0u);
  }
}

TEST(ThreadPool, WorkerStatsJsonShape) {
  ThreadPool pool(2);
  pool.parallel_for(16, [](std::size_t, std::size_t) {});
  const auto stats = pool.worker_stats();
  const auto rows = worker_stats_json(stats);
  ASSERT_EQ(rows.size(), 2u);
  std::uint64_t items = 0;
  for (std::size_t w = 0; w < rows.size(); ++w) {
    EXPECT_EQ(rows[w].at("worker").as_integer(), static_cast<long>(w));
    EXPECT_EQ(rows[w].at("epochs").as_integer(), 1);
    const double frac = rows[w].at("busy_fraction").as_double();
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
    items += static_cast<std::uint64_t>(rows[w].at("items").as_integer());
  }
  EXPECT_EQ(items, 16u);
}

TEST(ThreadPool, DefaultWorkersHonoursTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(ThreadPool::default_workers(),
            std::min(hw, static_cast<std::size_t>(CPU_COUNT(&saved))));

  // Pin this thread to the first CPU it may run on, ask, then restore.
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned = ThreadPool::default_workers();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
}

TEST(ThreadPool, ExceptionPropagatesWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i, std::size_t) {
                                   ++ran;
                                   if (i == 13) throw std::runtime_error("corner 13");
                                 }),
               std::runtime_error);
  // The loop drained: every index was still claimed and the pool is
  // reusable afterwards.
  EXPECT_EQ(ran.load(), 64);
  std::atomic<int> again{0};
  pool.parallel_for(32, [&](std::size_t, std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 32);
}

TEST(ThreadPool, ConcurrentThrowsAreCountedNotLost) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 64;
  constexpr std::size_t kThrowers = 9;
  std::atomic<int> ran{0};
  bool threw = false;
  try {
    pool.parallel_for(kN, [&](std::size_t i, std::size_t) {
      ++ran;
      if (i < kThrowers) throw std::runtime_error("boom " + std::to_string(i));
    });
  } catch (const std::runtime_error& e) {
    threw = true;
    // Only the first exception survives; the message must admit the rest
    // were suppressed so a caller never mistakes one error for the total.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("boom"), std::string::npos);
    EXPECT_NE(msg.find(std::to_string(kThrowers - 1) +
                       " more worker exception(s) suppressed"),
              std::string::npos)
        << msg;
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(ran.load(), static_cast<int>(kN));  // drain still completes

  // The suppressed count is attributed to worker telemetry too.
  std::uint64_t suppressed = 0;
  for (const auto& ws : pool.worker_stats()) suppressed += ws.suppressed;
  EXPECT_EQ(suppressed, kThrowers - 1);

  // And the pool is reusable, with no stale error carried over.
  std::atomic<int> again{0};
  pool.parallel_for(32, [&](std::size_t, std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 32);
}

// ------------------------------------------------------------- summarize

spec::ComplianceReport report_with_margin(double margin_db, bool covered = true) {
  spec::ComplianceReport r;
  r.mask_name = "m";
  if (covered) {
    r.points.push_back({1e6, 50.0 - margin_db, 50.0, margin_db});
    r.worst_margin_db = margin_db;
    r.worst_index = 0;
    r.pass = margin_db >= 0.0;
  }
  return r;
}

TEST(SweepSummary, WorstMarginAggregationOnHandBuiltReports) {
  CornerAxes axes;
  axes.vdd_scale = {0.9, 1.1};
  axes.pattern_seed = {1, 2};
  const CornerGrid grid(axes);
  ASSERT_EQ(grid.size(), 4u);

  // Margins in grid order (seed slowest, vdd fastest):
  // (seed=1,vdd=0.9)=+5, (1,1.1)=-3, (2,0.9)=+1, (2,1.1) uncovered.
  const double margins[] = {5.0, -3.0, 1.0, 0.0};
  std::vector<CornerResult> results(4);
  for (std::size_t i = 0; i < 4; ++i) {
    results[i].scenario = grid.at(i);
    results[i].report = report_with_margin(margins[i], /*covered=*/i != 3);
  }
  // Corner 2's scan was truncated at Nyquist: its verdict is partial and
  // the summary must say so.
  results[2].report.skipped_scan_points = 7;

  MarginHistogram spec_hist;
  spec_hist.lo_db = -40.0;
  spec_hist.hi_db = 40.0;
  spec_hist.n_bins = 16;  // 5 dB bins
  const auto s = summarize(grid, results, spec_hist);

  EXPECT_EQ(s.corners, 4u);
  EXPECT_EQ(s.passed, 2u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.uncovered, 1u);
  EXPECT_EQ(s.truncated, 1u);
  EXPECT_EQ(s.worst_margin_db, -3.0);
  EXPECT_EQ(s.worst_corner, 1u);
  EXPECT_EQ(s.worst_label, grid.at(1).label());

  const auto vdd_axis = static_cast<std::size_t>(AxisId::kVddScale);
  const auto seed_axis = static_cast<std::size_t>(AxisId::kPatternSeed);
  EXPECT_EQ(s.axis_worst[vdd_axis][0], 1.0);    // vdd=0.9: min(+5, +1)
  EXPECT_EQ(s.axis_worst[vdd_axis][1], -3.0);   // vdd=1.1: the failing corner
  EXPECT_EQ(s.axis_worst[seed_axis][0], -3.0);  // seed=1: min(+5, -3)
  EXPECT_EQ(s.axis_worst[seed_axis][1], 1.0);   // seed=2: only covered corner

  // Histogram: -3 dB lands in bin floor((-3+40)/5)=7, +1 in bin 8,
  // +5 in bin 9; the uncovered corner is not histogrammed.
  std::size_t total = 0;
  for (std::size_t c : s.histogram.counts) total += c;
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(s.histogram.counts[7], 1u);
  EXPECT_EQ(s.histogram.counts[8], 1u);
  EXPECT_EQ(s.histogram.counts[9], 1u);

  const std::vector<CornerResult> short_results(3);
  EXPECT_THROW(summarize(grid, short_results), std::invalid_argument);

  // All corners uncovered: unambiguous sentinels, never a fake 0 dB.
  std::vector<CornerResult> none(4);
  for (std::size_t i = 0; i < 4; ++i) {
    none[i].scenario = grid.at(i);
    none[i].report = report_with_margin(0.0, /*covered=*/false);
  }
  const auto e = summarize(grid, none);
  EXPECT_EQ(e.uncovered, 4u);
  EXPECT_TRUE(std::isinf(e.worst_margin_db));
  EXPECT_EQ(e.worst_corner, SIZE_MAX);
  EXPECT_TRUE(e.worst_label.empty());
}

TEST(SweepSummary, RecordMemoryPeaksAggregateOverAllCorners) {
  CornerAxes axes;
  axes.pattern_seed = {1, 2, 3};
  const CornerGrid grid(axes);

  std::vector<CornerResult> results(3);
  for (std::size_t i = 0; i < 3; ++i) {
    results[i].scenario = grid.at(i);
    // Corner 1 is uncovered but ran the biggest transient: its footprint
    // must still win the peak.
    results[i].report = report_with_margin(1.0, /*covered=*/i != 1);
    results[i].streamed_record_bytes = i == 1 ? 999999 : 100 * (i + 1);
  }
  const auto s = summarize(grid, results);
  EXPECT_EQ(s.peak_streamed_record_bytes, 999999u);
}

// --------------------------------------------------- SweepRunner contract

/// Cheap but real corner pipeline: an RC divider driven by a bit stream
/// whose R depends on the supply corner and C on the load axis, solved
/// with the per-worker Newton workspace; the "report" scores the final
/// capacitor voltage. Exercises run_transient's external-workspace path
/// across many same-sized circuits per worker.
CornerResult rc_corner(const Scenario& sc, Workspace& ws) {
  ckt::Circuit c;
  const int in = c.node();
  const int out = c.node();
  c.add<ckt::VSource>(in, c.ground(), 1.0 * sc.vdd_scale);
  c.add<ckt::Resistor>(in, out, 1e3 * (1.0 + sc.line_length));
  c.add<ckt::Capacitor>(out, c.ground(), sc.load_c);

  ckt::TransientOptions opt;
  opt.dt = 1e-9;
  opt.t_stop = 200e-9;
  const auto res = ckt::run_transient(c, opt, ws.newton);
  const auto v = res.waveform(out);

  spec::LimitMask mask{"v-final", {{1e5, 1.0}, {1e7, 1.0}}};
  const double freq[] = {1e6};
  const double level[] = {v[v.size() - 1]};
  return {.report = spec::check_compliance(freq, level, mask, sc.label())};
}

TEST(SweepRunner, OneThreadAndNThreadSweepsAreBitIdentical) {
  CornerAxes axes;
  axes.vdd_scale = {0.8, 0.9, 1.0, 1.1};
  axes.line_length = {0.0, 0.5, 1.0};
  axes.load_c = {50e-12, 100e-12};  // tau 50-200 ns vs the 200 ns record
  const CornerGrid grid(axes);
  ASSERT_EQ(grid.size(), 24u);

  SweepRunner serial(1);
  SweepRunner parallel(4);
  const auto a = serial.run(grid, rc_corner);
  const auto b = parallel.run(grid, rc_corner);

  // Bit-identical aggregate AND bit-identical per-corner margins.
  EXPECT_TRUE(a.summary == b.summary);

  // Chunked scheduling must not change anything either.
  const auto c = parallel.run(grid, rc_corner, {}, /*chunk=*/4);
  EXPECT_TRUE(a.summary == c.summary);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].scenario.index, i);
    ASSERT_EQ(a.results[i].report.points.size(), b.results[i].report.points.size());
    EXPECT_EQ(a.results[i].report.worst_margin_db, b.results[i].report.worst_margin_db)
        << "corner " << i;
  }
  // Sanity: the RC corners actually differ from one another.
  EXPECT_LT(a.summary.worst_margin_db, 0.3);
  EXPECT_GT(a.summary.passed + a.summary.failed, 0u);
}

TEST(SweepRunner, MemoryAccountingRidesCornerResultAndIsSchedulingIndependent) {
  CornerAxes axes;
  axes.pattern_seed = {1, 2, 3, 4, 5, 6, 7, 8};
  const CornerGrid grid(axes);

  // Pure function of the scenario, as the streamed emission pipeline
  // guarantees: every scheduling must report identical bytes.
  const CornerFn fn = [](const Scenario& sc, Workspace&) {
    return CornerResult{.report = report_with_margin(1.0),
                        .streamed_record_bytes = 10 + sc.index};
  };

  SweepRunner serial(1);
  SweepRunner parallel(4);
  const auto a = serial.run(grid, fn);
  const auto b = parallel.run(grid, fn, {}, /*chunk=*/3);
  EXPECT_TRUE(a.summary == b.summary);
  EXPECT_EQ(a.summary.peak_streamed_record_bytes, 17u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(a.results[i].streamed_record_bytes, 10 + i);
    EXPECT_EQ(b.results[i].streamed_record_bytes, 10 + i);
  }
}

TEST(SweepRunner, ProgressCallbackSeesEveryCornerOnce) {
  /// Counts calls and the highest `done` seen, checking every call
  /// against the expected total.
  struct ProgressProbe {
    std::size_t expected_total = 0;
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> max_done{0};

    ProgressFn fn() {
      return [this](std::size_t done, std::size_t total) {
        EXPECT_EQ(total, expected_total);
        EXPECT_GE(done, 1u);
        EXPECT_LE(done, total);
        ++calls;
        std::size_t prev = max_done.load();
        while (done > prev && !max_done.compare_exchange_weak(prev, done)) {
        }
      };
    }
  };

  CornerAxes axes;
  axes.pattern_seed = {1, 2, 3, 4, 5, 6};
  axes.line_length = {0.05, 0.2};
  const CornerGrid grid(axes);

  const CornerFn fn = [](const Scenario& sc, Workspace&) {
    return CornerResult{.report = report_with_margin(sc.line_length < 0.1 ? 1.0 : -1.0)};
  };

  // run() reports every corner of the grid exactly once.
  ProgressProbe run_probe;
  run_probe.expected_total = grid.size();
  SweepRunner runner(3);
  const auto out = runner.run(grid, fn, {}, /*chunk=*/1, run_probe.fn());
  EXPECT_EQ(run_probe.calls.load(), grid.size());
  EXPECT_EQ(run_probe.max_done.load(), grid.size());
  EXPECT_EQ(out.summary.corners, grid.size());

  // Worker telemetry: one entry per pool worker, every corner attributed
  // to a valid worker, items summing to the corner count.
  ASSERT_EQ(out.workers.size(), runner.jobs());
  std::uint64_t items = 0;
  for (const auto& w : out.workers) items += w.items;
  EXPECT_EQ(items, grid.size());
  for (const auto& r : out.results) EXPECT_LT(r.worker, runner.jobs());
}

TEST(SweepRunner, SolverTelemetryRidesCornerResultLikeMemory) {
  CornerAxes axes;
  axes.pattern_seed = {1, 2, 3};
  axes.vdd_scale = {0.9, 1.0};  // post-processing axis: shares transients
  const CornerGrid grid(axes);
  ASSERT_EQ(grid.size(), 6u);

  // A corner fn that marks its "transient" work the way the emission fn
  // does: a fresh solve per pattern, memo hits for the vdd corners.
  const CornerFn fn = [](const Scenario& sc, Workspace& ws) {
    const bool hit = ws.memo_key == sc.bits;
    if (!hit) {
      ws.memo = {};
      ws.memo.solve.total_newton_iters = 100 + static_cast<long>(sc.pattern_seed);
      ws.memo.solve.used_sparse = 1;
      ws.memo_key = sc.bits;
    }
    CornerResult r = ws.memo;
    r.transient_reused = hit;
    r.report = report_with_margin(1.0);
    return r;
  };

  SweepRunner serial(1);
  const auto out = serial.run(grid, fn, {}, emission_chunk_hint(grid));
  for (const auto& r : out.results) {
    EXPECT_EQ(r.solve.total_newton_iters,
              100 + static_cast<long>(r.scenario.pattern_seed))
        << "corner " << r.scenario.index;
    EXPECT_EQ(r.solve.used_sparse, 1);
  }
  // With the chunk hint, exactly one corner per pattern ran its transient.
  std::size_t fresh = 0;
  for (const auto& r : out.results) fresh += r.transient_reused ? 0 : 1;
  EXPECT_EQ(fresh, 3u);
}

TEST(SweepRunner, CornerExceptionDoesNotDeadlockAndPoolSurvives) {
  CornerAxes axes;
  axes.pattern_seed = {1, 2, 3, 4, 5, 6, 7, 8};
  const CornerGrid grid(axes);

  SweepRunner runner(3);
  // A non-SolveError signals a bug, not solver trouble: it must propagate
  // even under the default failure-isolation policy.
  const CornerFn faulty = [](const Scenario& sc, Workspace& ws) {
    if (sc.index == 5) throw std::runtime_error("diverged corner");
    return rc_corner(sc, ws);
  };
  EXPECT_THROW(runner.run(grid, faulty), std::runtime_error);

  // Same runner, clean function: completes and aggregates normally.
  const auto out = runner.run(grid, rc_corner);
  EXPECT_EQ(out.summary.corners, grid.size());
  EXPECT_EQ(out.summary.uncovered, 0u);
}

/// Corner function that fails with a structured SolveError on selected
/// grid indices and otherwise runs the cheap RC pipeline.
CornerFn solve_faulty_corner(std::set<std::size_t> bad) {
  return [bad = std::move(bad)](const Scenario& sc, Workspace& ws) {
    if (bad.count(sc.index)) {
      robust::SolveErrorInfo info;
      info.kind = robust::FailureKind::kTransientDivergence;
      info.site = "run_transient";
      info.context = sc.label();
      info.detail = "synthetic divergence";
      throw robust::SolveError(std::move(info));
    }
    return rc_corner(sc, ws);
  };
}

TEST(SweepRunner, SolveErrorIsIsolatedByDefaultAndSweepCompletes) {
  CornerAxes axes;
  axes.vdd_scale = {0.9, 1.1};
  axes.pattern_seed = {1, 2, 3};
  const CornerGrid grid(axes);
  ASSERT_EQ(grid.size(), 6u);

  SweepRunner runner(3);
  const auto fn = solve_faulty_corner({1, 4});
  const auto out = runner.run(grid, fn, RunOptions{});

  EXPECT_EQ(out.summary.corners, 6u);
  EXPECT_EQ(out.summary.solver_failed, 2u);
  EXPECT_EQ(out.summary.uncovered, 0u);  // casualties are NOT "uncovered"
  EXPECT_EQ(out.summary.passed + out.summary.failed, 4u);
  ASSERT_EQ(out.results.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const auto& r = out.results[i];
    if (i == 1 || i == 4) {
      EXPECT_TRUE(r.solver_failed);
      EXPECT_EQ(r.failure_kind, "transient_divergence");
      // The isolated record carries the corner identity the worker had.
      EXPECT_NE(r.failure.find(grid.at(i).label()), std::string::npos);
      EXPECT_TRUE(r.report.points.empty());
    } else {
      EXPECT_FALSE(r.solver_failed);
      EXPECT_TRUE(r.failure.empty());
    }
  }

  // Isolation is deterministic: any worker count sees the same casualties.
  SweepRunner serial(1);
  const auto ref = serial.run(grid, fn, RunOptions{});
  EXPECT_TRUE(ref.summary == out.summary);
}

TEST(SweepSummary, SolverFailuresAreClassifiedAndAttributedPerAxis) {
  CornerAxes axes;
  axes.vdd_scale = {0.9, 1.1};
  axes.pattern_seed = {1, 2};
  const CornerGrid grid(axes);
  ASSERT_EQ(grid.size(), 4u);

  std::vector<CornerResult> results(4);
  for (std::size_t i = 0; i < 4; ++i) {
    results[i].scenario = grid.at(i);
    results[i].report = report_with_margin(1.0);
  }
  // Corner 2 = (seed=2, vdd=0.9): solver casualty. Corner 1 recovered
  // after escalation. Corner 3 is a mask-coverage gap.
  results[2].solver_failed = true;
  results[2].failure_kind = "singular_system";
  results[2].report = {};
  results[1].recovered = true;
  results[1].solve_attempts = 3;
  results[3].report = report_with_margin(0.0, /*covered=*/false);

  const auto s = summarize(grid, results);
  EXPECT_EQ(s.corners, 4u);
  EXPECT_EQ(s.solver_failed, 1u);
  EXPECT_EQ(s.recovered, 1u);
  EXPECT_EQ(s.uncovered, 1u);  // corner 3 only — the casualty is separate
  EXPECT_EQ(s.passed, 2u);

  const auto vdd_axis = static_cast<std::size_t>(AxisId::kVddScale);
  const auto seed_axis = static_cast<std::size_t>(AxisId::kPatternSeed);
  EXPECT_EQ(s.axis_solver_failed[vdd_axis][0], 1u);
  EXPECT_EQ(s.axis_solver_failed[vdd_axis][1], 0u);
  EXPECT_EQ(s.axis_solver_failed[seed_axis][0], 0u);
  EXPECT_EQ(s.axis_solver_failed[seed_axis][1], 1u);

  // The JSON summary carries the counts without disturbing the margins.
  const auto j = summary_json(grid, s);
  EXPECT_EQ(j.at("solver_failed").as_integer(), 1);
  EXPECT_EQ(j.at("recovered").as_integer(), 1);
  EXPECT_EQ(j.at("uncovered").as_integer(), 1);
}

// --------------------------------------------------- checkpoint journal

TEST(SweepJournal, CornerEntryRoundTripsBitForBit) {
  CornerAxes axes;
  axes.pattern_seed = {1, 2};
  const CornerGrid grid(axes);

  CornerResult r;
  r.scenario = grid.at(1);
  r.report = report_with_margin(-1.0 / 3.0);  // not representable in %.9g
  r.report.skipped_scan_points = 2;
  r.streamed_record_bytes = 4096;
  r.solve.total_newton_iters = 321;
  r.solve.used_sparse = 1;
  r.solve_attempts = 2;
  r.recovered = true;
  r.scan_passes = 7;

  const auto entry = corner_journal_json(r);
  const CornerResult back = corner_from_journal(entry, grid);
  EXPECT_EQ(back.scenario.index, 1u);
  EXPECT_EQ(back.scenario.bits, r.scenario.bits);
  EXPECT_EQ(back.solver_failed, r.solver_failed);
  EXPECT_EQ(back.solve_attempts, 2);
  EXPECT_TRUE(back.recovered);
  // from_checkpoint is the RUNNER's flag for restored slots, not part of
  // the journaled record (it is scheduling history, not corner data).
  EXPECT_FALSE(back.from_checkpoint);
  EXPECT_EQ(back.streamed_record_bytes, 4096u);
  EXPECT_EQ(back.solve.total_newton_iters, 321);
  EXPECT_EQ(back.solve.used_sparse, 1);
  // Bit-exact doubles: the whole point of the %.17g spelling.
  ASSERT_EQ(back.report.points.size(), r.report.points.size());
  EXPECT_EQ(back.report.worst_margin_db, r.report.worst_margin_db);
  EXPECT_EQ(back.report.points[0].margin_db, r.report.points[0].margin_db);
  EXPECT_EQ(back.report.skipped_scan_points, 2u);
  EXPECT_EQ(back.report.pass, r.report.pass);
  EXPECT_EQ(back.scan_passes, 7u);

  // Journals written while corners also carried adaptive-scan accounting
  // spell two more keys; the loader ignores them and restores the same
  // corner.
  obs::Json legacy = entry;
  legacy.set("scan_refined", obs::Json::integer(0));
  legacy.set("scan_crossings", obs::Json::integer(0));
  const CornerResult old = corner_from_journal(legacy, grid);
  EXPECT_EQ(corner_journal_json(old).dump(0), entry.dump(0));

  // A failed corner round-trips its failure record instead of a report.
  CornerResult f;
  f.scenario = grid.at(0);
  f.solver_failed = true;
  f.failure = "solve failed [kind=dc_divergence ...]";
  f.failure_kind = "dc_divergence";
  f.solve_attempts = 4;
  const CornerResult fb = corner_from_journal(corner_journal_json(f), grid);
  EXPECT_TRUE(fb.solver_failed);
  EXPECT_EQ(fb.failure, f.failure);
  EXPECT_EQ(fb.failure_kind, "dc_divergence");
  EXPECT_EQ(fb.solve_attempts, 4);
}

TEST(SweepJournal, MalformedCornerEntriesAreRejected) {
  CornerAxes axes;
  axes.pattern_seed = {1, 2};
  const CornerGrid grid(axes);
  CornerResult r;
  r.scenario = grid.at(1);
  r.report = report_with_margin(-2.0);
  const obs::Json good = corner_journal_json(r);
  ASSERT_NO_THROW(corner_from_journal(good, grid));

  // Each row breaks one field of an otherwise valid entry. A worst_index
  // outside points would make summary()/worst_point() read out of bounds;
  // a negative count would wrap to a huge size_t; an index past the grid
  // or of another corner would restore a verdict under the wrong label; an
  // exact double strtod reads only in part ("abc" as 0, "1.5x" as 1.5)
  // would restore a made-up margin. A row with a column >= 0 replaces that
  // column (f, level, limit, margin) of margin point 0 instead of `key`.
  struct Row {
    const char* what;
    bool in_report;
    const char* key;
    obs::Json value;
    int column = -1;
  };
  const auto num = [](long v) { return obs::Json::integer(v); };
  const auto str = [](const char* v) { return obs::Json::string(v); };
  const Row rows[] = {
      {"worst_index past points", true, "worst_index", num(1)},
      {"negative worst_index", true, "worst_index", num(-1)},
      {"negative skipped", true, "skipped", num(-3)},
      {"negative streamed_bytes", false, "streamed_bytes", num(-1)},
      {"negative scan_passes", false, "scan_passes", num(-1)},
      {"negative index", false, "index", num(-1)},
      {"index past the grid", false, "index", num(2)},
      {"index of another corner", false, "index", num(0)},
      {"worst_margin_db not a number", true, "worst_margin_db", str("abc")},
      {"worst_margin_db trailing garbage", true, "worst_margin_db", str("1.5x")},
      {"worst_margin_db empty", true, "worst_margin_db", str("")},
      {"worst_margin_db leading space", true, "worst_margin_db", str(" -2")},
      {"worst_margin_db of the wrong kind", true, "worst_margin_db", obs::Json::boolean(true)},
      {"missing field", false, "solve", obs::Json::object()},
      {"point f not a number", true, "points", str("abc"), 0},
      {"point level trailing garbage", true, "points", str("52x"), 1},
      {"point limit empty", true, "points", str(""), 2},
      {"point margin half an exponent", true, "points", str("-2e"), 3},
  };
  for (const Row& row : rows) {
    obs::Json bad = good;
    obs::Json& target = row.in_report ? bad.at("report") : bad;
    if (row.column >= 0) {
      const obs::Json& point = good.at("report").at("points")[0];
      auto cells = obs::Json::array();
      for (std::size_t c = 0; c < point.size(); ++c)
        cells.push(c == static_cast<std::size_t>(row.column) ? row.value : point[c]);
      target.at(row.key) = obs::Json::array().push(std::move(cells));
    } else {
      target.at(row.key) = row.value;
    }
    EXPECT_THROW(corner_from_journal(bad, grid), std::invalid_argument) << row.what;
  }

  // Non-finite margins still restore: exact_double spells them inf/-inf/nan.
  for (const char* spelled : {"inf", "-inf", "nan"}) {
    obs::Json odd = good;
    odd.at("report").at("worst_margin_db") = str(spelled);
    EXPECT_NO_THROW(corner_from_journal(odd, grid)) << spelled;
  }

  // A whole journal of grid A resumed on an equal-sized grid B: the first
  // entry already fails its identity check, so B never reports A's
  // verdicts under its own labels.
  const std::string jpath = test_temp_path("journal_other_grid.jsonl");
  std::remove(jpath.c_str());
  RunOptions opt;
  opt.journal_path = jpath;
  SweepRunner runner(2);
  runner.run(grid, rc_corner, opt);
  CornerAxes other = axes;
  other.pattern_seed = {3, 4};
  EXPECT_THROW(runner.run(CornerGrid(other), rc_corner, opt), std::invalid_argument);
  std::remove(jpath.c_str());
}

TEST(SweepJournal, AbortedRunResumesToByteIdenticalReports) {
  CornerAxes axes;
  axes.vdd_scale = {0.9, 1.0, 1.1};
  axes.pattern_seed = {1, 2, 3, 4};
  const CornerGrid grid(axes);
  ASSERT_EQ(grid.size(), 12u);

  const auto fn = solve_faulty_corner({3, 7});
  const std::string j_full = test_temp_path("journal_full.jsonl");
  const std::string j_cut = test_temp_path("journal_cut.jsonl");
  std::remove(j_full.c_str());
  std::remove(j_cut.c_str());

  // Reference: uninterrupted single-process run (journaling on, so the
  // byte-identity claim covers the journaled path itself).
  SweepRunner runner(3);
  RunOptions opt;
  opt.journal_path = j_full;
  const auto ref = runner.run(grid, fn, opt);
  EXPECT_EQ(ref.summary.corners, 12u);
  EXPECT_EQ(ref.summary.solver_failed, 2u);
  const auto full_entries = robust::load_journal(j_full);
  ASSERT_EQ(full_entries.size(), 12u);

  // Simulate a shard killed mid-run: keep only the first 5 journal lines
  // (whatever order the workers finished them in).
  {
    std::ofstream cut(j_cut);
    for (std::size_t i = 0; i < 5; ++i)
      cut << robust::dump_line(full_entries[i]) << '\n';
  }

  // Resume over the truncated journal with a different worker count.
  SweepRunner resumer(2);
  RunOptions ropt;
  ropt.journal_path = j_cut;
  const auto res = resumer.run(grid, fn, ropt);

  std::size_t restored = 0;
  for (const auto& r : res.results) restored += r.from_checkpoint ? 1 : 0;
  EXPECT_EQ(restored, 5u);

  // The merged outcome is byte-identical to the uninterrupted run:
  // summary JSON and every deterministic per-corner record.
  EXPECT_TRUE(ref.summary == res.summary);
  EXPECT_EQ(summary_json(grid, ref.summary).dump(2),
            summary_json(grid, res.summary).dump(2));
  ASSERT_EQ(ref.results.size(), res.results.size());
  for (std::size_t i = 0; i < ref.results.size(); ++i)
    EXPECT_EQ(corner_result_json(ref.results[i]).dump(2),
              corner_result_json(res.results[i]).dump(2))
        << "corner " << i;
  // The resumed journal now also holds every corner.
  EXPECT_EQ(robust::load_journal(j_cut).size(), 12u);

  std::remove(j_full.c_str());
  std::remove(j_cut.c_str());

  // Shard merge is the same resume: two shard journals, concatenated with
  // the later shard first, restore every corner of the whole run. Every
  // corner ties on margin, so the worst corner must still be the first in
  // grid order however the journals are ordered.
  CornerAxes tie_axes;
  tie_axes.vdd_scale = {0.9, 1.1};
  tie_axes.pattern_seed = {1, 2};
  const CornerGrid tie_grid(tie_axes);
  const CornerFn tied = [](const Scenario&, Workspace&) {
    return CornerResult{.report = report_with_margin(-1.0)};
  };
  const auto whole = runner.run(tie_grid, tied, RunOptions{});
  ASSERT_EQ(whole.summary.worst_corner, 0u);

  const std::string j0 = test_temp_path("shard0.jsonl");
  const std::string j1 = test_temp_path("shard1.jsonl");
  const std::string j_all = test_temp_path("shards_all.jsonl");
  for (const std::string& p : {j0, j1, j_all}) std::remove(p.c_str());
  RunOptions s0;
  s0.shard = {0, 2};
  s0.journal_path = j0;
  RunOptions s1;
  s1.shard = {2, 4};
  s1.journal_path = j1;
  runner.run(tie_grid, tied, s0);
  resumer.run(tie_grid, tied, s1);
  {
    std::ofstream all(j_all);
    for (const std::string& p : {j1, j0})
      for (const obs::Json& e : robust::load_journal(p)) all << robust::dump_line(e) << '\n';
  }
  std::atomic<int> calls{0};
  const CornerFn counting = [&](const Scenario& sc, Workspace& ws) {
    ++calls;
    return tied(sc, ws);
  };
  RunOptions mopt;
  mopt.journal_path = j_all;
  const auto merged = resumer.run(tie_grid, counting, mopt);
  EXPECT_EQ(calls.load(), 0);  // every corner came from a shard journal
  EXPECT_EQ(summary_json(tie_grid, whole.summary).dump(2),
            summary_json(tie_grid, merged.summary).dump(2));
  for (std::size_t i = 0; i < tie_grid.size(); ++i)
    EXPECT_EQ(corner_result_json(whole.results[i]).dump(2),
              corner_result_json(merged.results[i]).dump(2))
        << "tied corner " << i;

  for (const std::string& p : {j0, j1, j_all}) std::remove(p.c_str());
}

TEST(SweepRunner, CooperativeStopAbortsJournalsAndResumes) {
  CornerAxes axes;
  axes.pattern_seed = {1, 2, 3, 4, 5, 6, 7, 8};
  const CornerGrid grid(axes);

  const std::string jpath = test_temp_path("journal_stop.jsonl");
  std::remove(jpath.c_str());

  std::atomic<bool> stop{false};
  SweepRunner runner(2);
  RunOptions opt;
  opt.journal_path = jpath;
  opt.stop = &stop;
  opt.progress = [&](std::size_t done, std::size_t) {
    if (done >= 3) stop.store(true);
  };
  EXPECT_THROW(runner.run(grid, rc_corner, opt), SweepAborted);

  // Whatever finished before the abort is on disk, ready for a resume.
  const auto entries = robust::load_journal(jpath);
  EXPECT_GE(entries.size(), 3u);
  EXPECT_LT(entries.size(), grid.size());

  RunOptions ropt;
  ropt.journal_path = jpath;
  const auto res = runner.run(grid, rc_corner, ropt);
  EXPECT_EQ(res.summary.corners, grid.size());

  // Identical to a never-aborted, never-journaled run.
  const auto ref = runner.run(grid, rc_corner);
  EXPECT_TRUE(ref.summary == res.summary);

  std::remove(jpath.c_str());
}

// ------------------------------------------------------ emission scan memo

/// A small MD3 estimate (6 basis functions per submodel from 60
/// candidates, short identification records): a real driver for the
/// emission pipeline at a fraction of a full estimate's cost.
const core::PwRbfDriverModel& small_md3() {
  static const core::PwRbfDriverModel model = [] {
    core::DriverEstimationOptions o;
    o.max_basis_high = 6;
    o.max_basis_low = 6;
    o.rbf.max_candidates = 60;
    o.n_steps = 40;
    return core::estimate_driver_model(core::CircuitDriverDut(dev::DriverTech::md3_ibm25()),
                                       o);
  }();
  return model;
}

/// 2 transients (load_c) x 2 RBW x 2 vdd x 3 detectors on the Fig. 3 line.
CornerGrid scan_memo_grid() {
  CornerAxes axes;
  axes.load_c = {1e-12, 2e-12};
  axes.rbw = {20e6, 50e6};
  axes.vdd_scale = {0.9, 1.1};
  axes.detector = {Detector::kPeak, Detector::kQuasiPeak, Detector::kAverage};
  axes.pattern_bits = 8;
  return CornerGrid(axes);
}

EmissionSweepConfig scan_memo_config(std::size_t n_points) {
  EmissionSweepConfig cfg;
  cfg.model = &small_md3();
  cfg.line.l = linalg::Matrix{{466e-9, 66e-9}, {66e-9, 466e-9}};
  cfg.line.c = linalg::Matrix{{66e-12, -6.6e-12}, {-6.6e-12, 66e-12}};
  cfg.line.loss.rdc = 66.0;
  cfg.rx.name = "memo scan";
  cfg.rx.f_start = 50e6;
  cfg.rx.f_stop = 5e9;
  cfg.rx.n_points = n_points;
  cfg.rx.tau_charge = 1e-9;
  cfg.rx.tau_discharge = 30e-9;
  cfg.mask = {"memo mask", {{50e6, 140.0}, {5e9, 90.0}}};
  return cfg;
}

std::uint64_t scan_runs() { return obs::registry().snapshot().value("spec.scan.runs"); }

void expect_same_levels(const CornerResult& x, const CornerResult& y) {
  ASSERT_EQ(x.report.points.size(), y.report.points.size()) << x.scenario.label();
  for (std::size_t p = 0; p < x.report.points.size(); ++p)
    ASSERT_EQ(x.report.points[p].level_dbuv, y.report.points[p].level_dbuv)
        << x.scenario.label() << " point " << p;
}

void expect_same_corners(const SweepOutcome& a, const SweepOutcome& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(corner_result_json(a.results[i]).dump(0),
              corner_result_json(b.results[i]).dump(0));
    expect_same_levels(a.results[i], b.results[i]);
  }
}

TEST(EmissionScanMemo, SharedScansAreByteIdenticalAtAnyChunkAndWorkerCount) {
  const CornerGrid grid = scan_memo_grid();
  ASSERT_EQ(grid.size(), 24u);
  constexpr std::size_t kPoints = 120;
  const CornerFn fn = make_emission_corner_fn(scan_memo_config(kPoints));

  // One worker claiming whole transient groups: one scan per (transient,
  // RBW), every other corner of the group scored from it.
  const std::uint64_t runs0 = scan_runs();
  SweepRunner serial(1);
  const SweepOutcome grouped = serial.run(grid, fn, {}, emission_chunk_hint(grid));
  EXPECT_EQ(scan_runs() - runs0, 2u * 2u);

  // Three workers claiming one corner at a time: scan slots miss.
  SweepRunner pool(3);
  const SweepOutcome scattered = pool.run(grid, fn, {}, 1);

  expect_same_corners(grouped, scattered);
  EXPECT_EQ(summary_json(grid, grouped.summary).dump(0),
            summary_json(grid, scattered.summary).dump(0));
  // Passes count what each corner was scored on, not what was computed.
  EXPECT_EQ(grouped.summary.scan_detector_passes, grid.size() * kPoints);
  EXPECT_EQ(scattered.summary.scan_detector_passes, grid.size() * kPoints);
  EXPECT_EQ(grouped.summary.solver_failed, 0u);
  EXPECT_EQ(grouped.summary.uncovered, 0u);

  // The supply corners of one (transient, RBW, detector) differ by the
  // scaling alone, and never share a reading.
  const auto& lo = grouped.results[0].report;  // vdd 0.9, peak
  const auto& hi = grouped.results[3].report;  // vdd 1.1, peak
  ASSERT_EQ(lo.points.size(), hi.points.size());
  EXPECT_NEAR(hi.points[0].level_dbuv - lo.points[0].level_dbuv,
              20.0 * std::log10(1.1 / 0.9), 1e-9);
}

TEST(EmissionScanMemo, ScanSlotIsKeyedByTheWholeReceiverSetting) {
  // Two pipelines on one runner share the transient memo (one transient,
  // one RBW) but scan on different grids: the second must rescan, not
  // reuse the first one's readings.
  CornerAxes axes = scan_memo_grid().axes();
  axes.load_c = {1e-12};
  axes.rbw = {20e6};
  const CornerGrid grid(axes);
  const CornerFn coarse = make_emission_corner_fn(scan_memo_config(40));
  const CornerFn fine = make_emission_corner_fn(scan_memo_config(90));
  const std::size_t chunk = emission_chunk_hint(grid);

  SweepRunner shared(1);
  (void)shared.run(grid, coarse, {}, chunk);
  const SweepOutcome after_coarse = shared.run(grid, fine, {}, chunk);
  SweepRunner fresh(1);
  const SweepOutcome alone = fresh.run(grid, fine, {}, chunk);

  expect_same_corners(after_coarse, alone);
  EXPECT_EQ(after_coarse.summary.scan_detector_passes, grid.size() * 90u);
}

TEST(EmissionScanMemo, TransientMemoMissEmptiesTheScanSlot) {
  // Two transients under one RBW: the second transient's first corner asks
  // for the receiver setting the slot already holds, and must still rescan.
  CornerAxes axes = scan_memo_grid().axes();
  axes.rbw = {20e6};
  const CornerGrid grid(axes);
  const CornerFn fn = make_emission_corner_fn(scan_memo_config(60));
  const std::uint64_t runs0 = scan_runs();
  SweepRunner runner(1);
  const SweepOutcome both = runner.run(grid, fn, {}, emission_chunk_hint(grid));
  EXPECT_EQ(scan_runs() - runs0, 2u);

  axes.load_c = {2e-12};
  const CornerGrid second_only(axes);
  SweepRunner fresh(1);
  const SweepOutcome second = fresh.run(second_only, fn, {}, emission_chunk_hint(second_only));
  ASSERT_EQ(both.results.size(), 2 * second.results.size());
  for (std::size_t i = 0; i < second.results.size(); ++i)
    expect_same_levels(both.results[second.results.size() + i], second.results[i]);
}

TEST(EmissionScanMemo, TransientMemoIsKeyedByThePipeline) {
  // The memo key covers the scenario, not the pipeline's config. A runner
  // reused for a pipeline with a longer bit time must rerun the transient,
  // not score the first pipeline's record.
  CornerAxes axes = scan_memo_grid().axes();
  axes.load_c = {1e-12};
  axes.rbw = {20e6};
  const CornerGrid grid(axes);
  EmissionSweepConfig slow = scan_memo_config(60);
  slow.bit_time = 2e-9;
  const std::size_t chunk = emission_chunk_hint(grid);

  SweepRunner shared(1);
  (void)shared.run(grid, make_emission_corner_fn(scan_memo_config(60)), {}, chunk);
  const SweepOutcome reused = shared.run(grid, make_emission_corner_fn(slow), {}, chunk);
  SweepRunner fresh(1);
  const SweepOutcome alone = fresh.run(grid, make_emission_corner_fn(slow), {}, chunk);

  expect_same_corners(reused, alone);
  EXPECT_FALSE(reused.results.front().transient_reused);
}

TEST(EmissionScanMemo, FloorPointsStayAtTheFloorUnderSupplyScaling) {
  // The 16 ns steady record has 62.5 MHz bins and a 20 MHz RBW reaches
  // ~48 MHz, so a 5 MHz scan point covers no bin and reads the -120 dBuV
  // floor. Scaling the readings in volts keeps it there at every supply
  // corner; adding 20 log10(vdd_scale) in dB would move it.
  CornerAxes axes = scan_memo_grid().axes();
  axes.load_c = {1e-12};
  axes.rbw = {20e6};
  axes.detector = {Detector::kPeak, Detector::kAverage};
  const CornerGrid grid(axes);
  EmissionSweepConfig cfg = scan_memo_config(30);
  cfg.rx.f_start = 5e6;
  cfg.mask = {"memo mask", {{1e6, 140.0}, {5e9, 90.0}}};
  SweepRunner runner(1);
  const SweepOutcome out = runner.run(grid, make_emission_corner_fn(cfg), {},
                                      emission_chunk_hint(grid));
  for (const CornerResult& r : out.results) {
    ASSERT_FALSE(r.report.points.empty()) << r.scenario.label();
    EXPECT_EQ(r.report.points[0].f, 5e6);
    EXPECT_EQ(r.report.points[0].level_dbuv, -120.0) << r.scenario.label();
  }
}

// ----------------------------------------------- engine workspace overload

TEST(EngineWorkspace, ExternalWorkspaceMatchesInternalRun) {
  auto build = [](double r) {
    auto c = std::make_unique<ckt::Circuit>();
    const int in = c->node();
    const int out = c->node();
    c->add<ckt::VSource>(in, c->ground(), 1.0);
    c->add<ckt::Resistor>(in, out, r);
    c->add<ckt::Capacitor>(out, c->ground(), 1e-9);
    return c;
  };
  ckt::TransientOptions opt;
  opt.dt = 1e-9;
  opt.t_stop = 100e-9;

  ckt::NewtonWorkspace ws;
  for (double r : {1e3, 2e3, 5e3}) {
    auto c1 = build(r);
    auto c2 = build(r);
    const auto ref = ckt::run_transient(*c1, opt);
    const auto got = ckt::run_transient(*c2, opt, ws);  // reused scratch
    ASSERT_EQ(ref.steps(), got.steps());
    for (std::size_t k = 0; k < ref.steps(); ++k)
      EXPECT_EQ(ref.value(k, 2), got.value(k, 2)) << "r=" << r << " step " << k;
  }
}

}  // namespace
