// Tests of the report-level observability tooling: the RunReport host
// section and full-schema round-trip, merge_run_reports (the N-way
// report-merge rules), check_baseline / diff_reports verdicts, and
// resolve_path addressing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/compare.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"

namespace {

using namespace emc;
using obs::CompareResult;
using obs::Json;
using obs::Verdict;

// ---------------------------------------------------------------- reports

TEST(ObsReportSchema, HostSectionIsAttachedAtConstruction) {
  obs::RunReport report("host_probe");
  const Json doc = report.to_json();

  EXPECT_EQ(doc.at("schema_version").as_integer(), 2);
  const Json& host = doc.at("host");
  EXPECT_GT(host.at("cpus").as_integer(), 0);
  EXPECT_FALSE(host.at("os").as_string().empty());
  EXPECT_FALSE(host.at("compiler").as_string().empty());
  const long bits = host.at("pointer_bits").as_integer();
  EXPECT_TRUE(bits == 32 || bits == 64);
  // The free function and the embedded section agree.
  EXPECT_EQ(obs::host_info_json().dump(), host.dump());
}

TEST(ObsReportSchema, FullSchemaRoundTripIsByteIdentical) {
  // Exercise every section the schema names, with real producers.
  obs::MetricRegistry reg;
  reg.add(reg.counter("sweep.runs"), 3);
  reg.set_max(reg.gauge("stream.peak_bytes"), 4096);
  reg.record(reg.histogram("corner.wall_us"), 250);
  reg.record(reg.histogram("corner.wall_us"), 900);

  obs::Tracer tracer;
  tracer.install();
  {
    obs::Span sweep("sweep");
    {
      obs::Span corner("corner");
      {
        obs::Span transient("transient");
        { obs::Span newton("newton_step"); }
      }
    }
  }
  tracer.uninstall();

  obs::ResourceSampler sampler({/*interval_ms=*/5, /*ring_capacity=*/64});
  sampler.start();
  sampler.stop();

  obs::RunReport report("roundtrip");
  report.set("config", "jobs", static_cast<long>(2));
  report.set("solver", "kind", std::string("sparse"));
  report.add_metrics(reg.snapshot());
  report.add_trace_summary(tracer, "roundtrip.trace.json");
  report.add_profile(obs::Profile::build(tracer));
  report.add_resources(sampler);

  const std::string dumped = report.to_json().dump();
  const Json parsed = Json::parse(dumped);
  EXPECT_EQ(parsed.dump(), dumped);  // parse -> dump is the identity

  // Gauges carry the v2 {"peak": v} shape through the round trip.
  EXPECT_EQ(parsed.at("metrics").at("stream.peak_bytes").at("peak").as_integer(),
            4096);
  EXPECT_EQ(parsed.at("metrics").at("sweep.runs").as_integer(), 3);

  // The profile tree preserves more than three nesting levels:
  // profile -> tree -> children -> children -> children.
  const Json& sweep_node = parsed.at("profile").at("tree")[0];
  EXPECT_EQ(sweep_node.at("name").as_string(), "sweep");
  const Json& newton_node = sweep_node.at("children")[0]
                                .at("children")[0]
                                .at("children")[0];
  EXPECT_EQ(newton_node.at("name").as_string(), "newton_step");
}

// ------------------------------------------------------------------ merge

TEST(ObsMerge, RequiresAtLeastOneReport) {
  EXPECT_THROW(obs::merge_run_reports({}), std::invalid_argument);
}

TEST(ObsMerge, CountersSumGaugesMaxHistogramsAdd) {
  const Json a = Json::parse(R"({
    "report": "shard", "schema_version": 2,
    "metrics": {"sweep.corners": 3, "stream.peak": {"peak": 500},
                "h": {"count": 2, "sum": 10, "max": 8, "mean": 5.0,
                      "pow2_buckets": [0, 1, 1]}}})");
  const Json b = Json::parse(R"({
    "report": "shard", "schema_version": 2,
    "metrics": {"sweep.corners": 5, "stream.peak": {"peak": 900},
                "h": {"count": 1, "sum": 16, "max": 16, "mean": 16.0,
                      "pow2_buckets": [0, 0, 0, 0, 1]}}})");

  const Json m = obs::merge_run_reports({a, b});
  EXPECT_EQ(m.at("report").as_string(), "shard");
  EXPECT_EQ(m.at("merged_from").as_integer(), 2);
  const Json& mm = m.at("metrics");
  EXPECT_EQ(mm.at("sweep.corners").as_integer(), 8);       // counters sum
  EXPECT_EQ(mm.at("stream.peak").at("peak").as_integer(), 900);  // gauges max
  const Json& h = mm.at("h");                              // histograms add
  EXPECT_EQ(h.at("count").as_integer(), 3);
  EXPECT_EQ(h.at("sum").as_integer(), 26);
  EXPECT_EQ(h.at("max").as_integer(), 16);
  EXPECT_NEAR(h.at("mean").as_double(), 26.0 / 3.0, 1e-12);
  ASSERT_EQ(h.at("pow2_buckets").size(), 5u);  // widened to the larger set
  EXPECT_EQ(h.at("pow2_buckets")[1].as_integer(), 1);
  EXPECT_EQ(h.at("pow2_buckets")[4].as_integer(), 1);
}

TEST(ObsMerge, WorkersConcatenateAndRedealIds) {
  const Json a = Json::parse(R"({"report": "r", "schema_version": 2,
    "workers": {"pool": [{"worker": 0, "items": 4}, {"worker": 1, "items": 2}]}})");
  const Json b = Json::parse(R"({"report": "r", "schema_version": 2,
    "workers": {"pool": [{"worker": 0, "items": 6}]}})");

  const Json m = obs::merge_run_reports({a, b});
  const Json& pool = m.at("workers").at("pool");
  ASSERT_EQ(pool.size(), 3u);
  for (std::size_t w = 0; w < pool.size(); ++w)
    EXPECT_EQ(pool[w].at("worker").as_integer(), static_cast<long>(w));
  EXPECT_EQ(pool[2].at("items").as_integer(), 6);  // document order kept
}

TEST(ObsMerge, TraceSummariesCombineAndPluralizeFiles) {
  const Json a = Json::parse(R"({"report": "r", "schema_version": 2,
    "trace": {"threads": 2, "events": 100, "dropped_events": 0, "file": "a.json"}})");
  const Json b = Json::parse(R"({"report": "r", "schema_version": 2,
    "trace": {"threads": 1, "events": 50, "dropped_events": 3, "file": "b.json"}})");

  const Json m = obs::merge_run_reports({a, b});
  const Json& t = m.at("trace");
  EXPECT_EQ(t.at("threads").as_integer(), 3);
  EXPECT_EQ(t.at("events").as_integer(), 150);
  EXPECT_EQ(t.at("dropped_events").as_integer(), 3);
  EXPECT_EQ(t.find("file"), nullptr);  // renamed to the plural
  ASSERT_EQ(t.at("files").size(), 2u);
  EXPECT_EQ(t.at("files")[0].as_string(), "a.json");
  EXPECT_EQ(t.at("files")[1].as_string(), "b.json");
}

TEST(ObsMerge, ContextFieldsPassEqualAndListDisagreements) {
  const Json a = Json::parse(R"({"report": "r", "schema_version": 2,
    "config": {"jobs": 2, "grid": "4x3x2"}, "host": {"cpus": 8},
    "sweep": {"summary": {"corners": 4, "worst_margin_db": -2.5},
              "transients_reused": 0}})");
  const Json b = Json::parse(R"({"report": "r", "schema_version": 2,
    "config": {"jobs": 4, "grid": "4x3x2"}, "host": {"cpus": 8},
    "sweep": {"summary": {"corners": 4, "worst_margin_db": -5.0},
              "transients_reused": 0}})");

  const Json m = obs::merge_run_reports({a, b});
  // Agreeing fields pass through; disagreeing ones become per-doc lists.
  EXPECT_EQ(m.at("config").at("grid").as_string(), "4x3x2");
  ASSERT_TRUE(m.at("config").at("jobs").is_array());
  EXPECT_EQ(m.at("config").at("jobs")[0].as_integer(), 2);
  EXPECT_EQ(m.at("config").at("jobs")[1].as_integer(), 4);
  EXPECT_EQ(m.at("host").at("cpus").as_integer(), 8);
  // Sweep sections are context too: summaries are never re-aggregated
  // from JSON (shards merge through a journal resume), so differing
  // summaries stay side by side in document order.
  const Json& sweep = m.at("sweep");
  EXPECT_EQ(sweep.at("transients_reused").as_integer(), 0);
  ASSERT_TRUE(sweep.at("summary").is_array());
  ASSERT_EQ(sweep.at("summary").size(), 2u);
  EXPECT_DOUBLE_EQ(sweep.at("summary")[0].at("worst_margin_db").as_double(), -2.5);
  EXPECT_DOUBLE_EQ(sweep.at("summary")[1].at("worst_margin_db").as_double(), -5.0);
}

TEST(ObsMerge, SolverCountersSumAndKindMixes) {
  const Json a = Json::parse(R"({"report": "r", "schema_version": 2,
    "solver": {"kind": "sparse", "newton_iters": 100, "steps": 40}})");
  const Json b = Json::parse(R"({"report": "r", "schema_version": 2,
    "solver": {"kind": "dense", "newton_iters": 50, "steps": 20}})");

  const Json m = obs::merge_run_reports({a, b});
  const Json& s = m.at("solver");
  EXPECT_EQ(s.at("kind").as_string(), "mixed");
  EXPECT_EQ(s.at("newton_iters").as_integer(), 150);
  EXPECT_EQ(s.at("steps").as_integer(), 60);

  const Json same = obs::merge_run_reports({a, a});
  EXPECT_EQ(same.at("solver").at("kind").as_string(), "sparse");
}

TEST(ObsMerge, ProfileSectionsMergeTreesByName) {
  const Json a = Json::parse(R"({"report": "r", "schema_version": 2, "profile": {
    "truncated": false, "dropped_events": 0, "threads": 1, "events": 2,
    "total_ns": 1000,
    "spans": {"outer": {"count": 1, "total_ns": 1000, "self_ns": 600,
                        "min_ns": 1000, "max_ns": 1000, "mean_ns": 1000.0,
                        "pow2_buckets": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]},
              "inner": {"count": 1, "total_ns": 400, "self_ns": 400,
                        "min_ns": 400, "max_ns": 400, "mean_ns": 400.0,
                        "pow2_buckets": [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]}},
    "tree": [{"name": "outer", "count": 1, "total_ns": 1000, "self_ns": 600,
              "children": [{"name": "inner", "count": 1, "total_ns": 400,
                            "self_ns": 400}]}]}})");
  const Json b = Json::parse(R"({"report": "r", "schema_version": 2, "profile": {
    "truncated": true, "dropped_events": 5, "threads": 1, "events": 1,
    "total_ns": 700,
    "spans": {"outer": {"count": 1, "total_ns": 700, "self_ns": 700,
                        "min_ns": 700, "max_ns": 700, "mean_ns": 700.0,
                        "pow2_buckets": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]}},
    "tree": [{"name": "outer", "count": 1, "total_ns": 700,
              "self_ns": 700}]}})");

  const Json m = obs::merge_run_reports({a, b});
  const Json& p = m.at("profile");
  EXPECT_TRUE(p.at("truncated").as_bool());  // any truncated shard taints
  EXPECT_EQ(p.at("dropped_events").as_integer(), 5);
  EXPECT_EQ(p.at("events").as_integer(), 3);
  EXPECT_EQ(p.at("total_ns").as_integer(), 1700);

  const Json& outer = p.at("spans").at("outer");
  EXPECT_EQ(outer.at("count").as_integer(), 2);
  EXPECT_EQ(outer.at("total_ns").as_integer(), 1700);
  EXPECT_EQ(outer.at("self_ns").as_integer(), 1300);
  EXPECT_EQ(outer.at("min_ns").as_integer(), 700);
  EXPECT_EQ(outer.at("max_ns").as_integer(), 1000);
  // "inner" only exists in one shard; it merges through unchanged.
  EXPECT_EQ(p.at("spans").at("inner").at("count").as_integer(), 1);

  const Json& tree_outer = p.at("tree")[0];
  EXPECT_EQ(tree_outer.at("count").as_integer(), 2);
  EXPECT_EQ(tree_outer.at("total_ns").as_integer(), 1700);
  ASSERT_EQ(tree_outer.at("children").size(), 1u);
  EXPECT_EQ(tree_outer.at("children")[0].at("name").as_string(), "inner");
}

TEST(ObsMerge, ResourceSectionsSumCpuAndMaxRss) {
  const Json a = Json::parse(R"({"report": "r", "schema_version": 2,
    "resources": {"samples": 10, "dropped_samples": 0, "peak_rss_bytes": 1000,
                  "rss_is_peak_fallback": false, "cpu_user_s": 1.5,
                  "cpu_sys_s": 0.25, "wall_s": 2.0,
                  "rss_series": [{"t_ms": 0.0, "rss_bytes": 900}]}})");
  const Json b = Json::parse(R"({"report": "r", "schema_version": 2,
    "resources": {"samples": 4, "dropped_samples": 1, "peak_rss_bytes": 3000,
                  "rss_is_peak_fallback": false, "cpu_user_s": 0.5,
                  "cpu_sys_s": 0.25, "wall_s": 1.0,
                  "rss_series": [{"t_ms": 0.0, "rss_bytes": 2900}]}})");

  const Json m = obs::merge_run_reports({a, b});
  const Json& r = m.at("resources");
  EXPECT_EQ(r.at("samples").as_integer(), 14);
  EXPECT_EQ(r.at("peak_rss_bytes").as_integer(), 3000);
  EXPECT_DOUBLE_EQ(r.at("cpu_user_s").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(r.at("wall_s").as_double(), 2.0);  // max, not sum
  EXPECT_EQ(r.at("rss_series").size(), 0u);  // per-process series dropped
}

// --------------------------------------------------------------- baseline

Json spec_row(const std::string& path, const std::string& value_json,
              double rel_tol, const std::string& dir) {
  return Json::parse(R"({"path": ")" + path + R"(", "value": )" + value_json +
                     R"(, "rel_tol": )" + std::to_string(rel_tol) +
                     R"(, "dir": ")" + dir + R"("})");
}

Json make_spec(std::vector<Json> rows) {
  Json spec = Json::object();
  spec.set("baseline", Json::string("test"));
  spec.set("schema_version", Json::integer(1));
  Json arr = Json::array();
  for (Json& r : rows) arr.push(std::move(r));
  spec.set("metrics", std::move(arr));
  return spec;
}

TEST(ObsBaseline, UpperBoundVerdicts) {
  const Json current = Json::parse(
      R"({"scenarios": [{"name": "scan", "wall_s": 0.11}], "gate": true})");

  // Within tolerance -> PASS.
  auto res = obs::check_baseline(
      make_spec({spec_row("scenarios[scan].wall_s", "0.1", 0.25, "upper")}),
      current);
  EXPECT_TRUE(res.pass);
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(res.rows[0].verdict, Verdict::kPass);

  // Above the bound -> REGRESS, and pass goes false.
  res = obs::check_baseline(
      make_spec({spec_row("scenarios[scan].wall_s", "0.05", 0.25, "upper")}),
      current);
  EXPECT_FALSE(res.pass);
  EXPECT_EQ(res.regressed, 1u);
  EXPECT_EQ(res.rows[0].verdict, Verdict::kRegress);

  // Far below an upper bound -> IMPROVED, still a pass.
  res = obs::check_baseline(
      make_spec({spec_row("scenarios[scan].wall_s", "1.0", 0.25, "upper")}),
      current);
  EXPECT_TRUE(res.pass);
  EXPECT_EQ(res.improved, 1u);
  EXPECT_EQ(res.rows[0].verdict, Verdict::kImproved);

  // A path the report doesn't have -> MISSING, fails the check.
  res = obs::check_baseline(
      make_spec({spec_row("scenarios[gone].wall_s", "0.1", 0.25, "upper")}),
      current);
  EXPECT_FALSE(res.pass);
  EXPECT_EQ(res.missing, 1u);
}

TEST(ObsBaseline, LowerEqualAndScaledTolerances) {
  const Json current =
      Json::parse(R"({"throughput": 50.0, "kind": "sparse", "gates": 3})");

  // dir lower: falling below the band regresses.
  auto res = obs::check_baseline(
      make_spec({spec_row("throughput", "100.0", 0.25, "lower")}), current);
  EXPECT_EQ(res.rows[0].verdict, Verdict::kRegress);

  // dir equal compares exactly, for strings and integers alike.
  res = obs::check_baseline(make_spec({spec_row("kind", R"("sparse")", 0.0, "equal"),
                                       spec_row("gates", "3", 0.0, "equal")}),
                            current);
  EXPECT_TRUE(res.pass);
  res = obs::check_baseline(make_spec({spec_row("gates", "4", 0.0, "equal")}),
                            current);
  EXPECT_FALSE(res.pass);

  // tol_scale widens the band at check time (the sanitize-job knob):
  // 100 +/- 25% regresses at 50, but passes once scaled 4x (rel 1.0 ->
  // lower bound 100/2 = 50).
  const Json spec = make_spec({spec_row("throughput", "100.0", 0.25, "both")});
  EXPECT_FALSE(obs::check_baseline(spec, current).pass);
  EXPECT_TRUE(obs::check_baseline(spec, current, 4.0).pass);
  EXPECT_THROW(obs::check_baseline(spec, current, 0.0), std::invalid_argument);
}

TEST(ObsBaseline, NegativeBaselinesKeepTheBandUpright) {
  // dB margins and sentinel values are negative; the tolerance band must
  // still put hi above lo (a value equal to its baseline always passes).
  const Json current = Json::parse(R"({"margin_db": -2.5, "sentinel": -1})");
  auto res = obs::check_baseline(
      make_spec({spec_row("margin_db", "-2.5", 0.25, "both"),
                 spec_row("sentinel", "-1", 0.25, "both")}),
      current);
  EXPECT_TRUE(res.pass);

  // A margin that collapsed from -2.5 to -4.0 is outside the 25% band.
  const Json worse = Json::parse(R"({"margin_db": -4.0, "sentinel": -1})");
  res = obs::check_baseline(
      make_spec({spec_row("margin_db", "-2.5", 0.25, "both")}), worse);
  EXPECT_FALSE(res.pass);
}

TEST(ObsBaseline, SpecValidationThrows) {
  const Json current = Json::parse(R"({"x": 1})");
  EXPECT_THROW(obs::check_baseline(Json::parse(R"({"baseline": "b"})"), current),
               std::invalid_argument);
  EXPECT_THROW(
      obs::check_baseline(
          make_spec({spec_row("x", "1", 0.25, "sideways")}), current),
      std::invalid_argument);
}

TEST(ObsDiff, WalksEveryLeafOfTheBaseline) {
  const Json base = Json::parse(R"({
    "solver": {"kind": "sparse", "newton_iters": 100},
    "scenarios": [{"name": "scan", "wall_s": 0.1}]})");
  const Json same = Json::parse(R"({
    "solver": {"kind": "sparse", "newton_iters": 110},
    "scenarios": [{"name": "scan", "wall_s": 0.09}]})");
  const Json worse = Json::parse(R"({
    "solver": {"kind": "dense", "newton_iters": 100},
    "scenarios": [{"name": "scan", "wall_s": 0.5}]})");

  const CompareResult ok = obs::diff_reports(base, same, 0.25);
  EXPECT_TRUE(ok.pass);
  EXPECT_EQ(ok.rows.size(), 4u);  // one row per baseline leaf

  const CompareResult bad = obs::diff_reports(base, worse, 0.25);
  EXPECT_FALSE(bad.pass);
  EXPECT_EQ(bad.regressed, 2u);  // the kind string and the 5x wall time
  // Rows carry name-addressed paths, and format() summarizes them.
  bool saw_scan = false;
  for (const auto& row : bad.rows)
    if (row.path == "scenarios[scan].wall_s") {
      saw_scan = true;
      EXPECT_EQ(row.verdict, Verdict::kRegress);
    }
  EXPECT_TRUE(saw_scan);
  EXPECT_NE(bad.format().find("REGRESS"), std::string::npos);
  EXPECT_FALSE(bad.to_json().at("pass").as_bool());
}

TEST(ObsResolvePath, DottedIndexAndNameSelectors) {
  const Json doc = Json::parse(R"({
    "a": {"b": {"c": 7}},
    "rows": [{"name": "first", "v": 1}, {"name": "second", "v": 2}],
    "axes": [{"axis": "vdd", "worst_by_value": [{"value": "0.9", "m": -1.5}]}]})");

  ASSERT_NE(obs::resolve_path(doc, "a.b.c"), nullptr);
  EXPECT_EQ(obs::resolve_path(doc, "a.b.c")->as_integer(), 7);
  EXPECT_EQ(obs::resolve_path(doc, "rows[1].v")->as_integer(), 2);       // index
  EXPECT_EQ(obs::resolve_path(doc, "rows[second].v")->as_integer(), 2);  // name
  // Objects also address by "axis" and "value" keys, nested freely.
  EXPECT_DOUBLE_EQ(
      obs::resolve_path(doc, "axes[vdd].worst_by_value[0.9].m")->as_double(),
      -1.5);
  EXPECT_EQ(obs::resolve_path(doc, "a.b.missing"), nullptr);
  EXPECT_EQ(obs::resolve_path(doc, "rows[9].v"), nullptr);
  EXPECT_EQ(obs::resolve_path(doc, "rows[third].v"), nullptr);
  EXPECT_EQ(obs::resolve_path(doc, "a[0]"), nullptr);  // [] on a non-array
}

}  // namespace
