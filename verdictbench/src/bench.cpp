#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace vbench {

using emc::obs::Json;
using emc::obs::ProfileNode;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  if (v.size() == 1) return {v[0], v[0]};
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at
  // j = i*m // 4 (clamped to [1, n-1]) with linear weight delta / 4.
  const long n = static_cast<long>(v.size());
  const long m = n + 1;
  const auto cut = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) + v[j] * static_cast<double>(delta)) / 4.0;
  };
  return {cut(1), cut(3)};
}

namespace {

bool is_one_of(const std::string& name, std::span<const std::string> names) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Visit every node below an ancestor named `under` (empty: every node),
/// calling `take(node)`; `take` returns true to stop descending there.
template <class Take>
void walk(const ProfileNode& node, const std::string& under, bool inside, Take&& take) {
  for (const auto& child : node.children) {
    const bool child_inside = inside || under.empty() || child.name == under;
    if (inside || under.empty()) {
      if (take(child)) continue;
    }
    walk(child, under, child_inside, take);
  }
}

}  // namespace

std::int64_t total_under(const ProfileNode& root, const std::string& under,
                         std::span<const std::string> names) {
  std::int64_t ns = 0;
  walk(root, under, false, [&](const ProfileNode& n) {
    if (!is_one_of(n.name, names)) return false;
    ns += n.total_ns;
    return true;
  });
  return ns;
}

std::int64_t self_under(const ProfileNode& root, const std::string& under,
                        const std::string& name) {
  std::int64_t ns = 0;
  walk(root, under, false, [&](const ProfileNode& n) {
    if (n.name == name) ns += n.self_ns;
    return false;
  });
  return ns;
}

std::uint64_t count_under(const ProfileNode& root, const std::string& under,
                          const std::string& name) {
  std::uint64_t count = 0;
  walk(root, under, false, [&](const ProfileNode& n) {
    if (n.name == name) count += n.count;
    return false;
  });
  return count;
}

SpanLayers span_layers(const emc::obs::Profile& profile) {
  const ProfileNode& root = profile.root();
  const auto s = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
  const std::string records[] = {"transient", "dc"};
  const std::string transient[] = {"transient"};
  const std::string factor[] = {"factor"};
  const std::string scans[] = {"scan", "adaptive_scan"};
  const std::string corner[] = {"corner"};

  SpanLayers l;
  l.records_s = s(total_under(root, kSpanEstimate, records));
  l.fit_s = s(self_under(root, "", kSpanEstimate));
  l.transient_s = s(total_under(root, "corner", transient));
  l.newton_self_s = s(self_under(root, "corner", "newton_step"));
  l.factor_s = s(total_under(root, "corner", factor));
  l.factors = count_under(root, "corner", "factor");
  l.scan_s = s(total_under(root, "corner", scans));
  l.corner_s = s(total_under(root, "", corner));
  l.corner_self_s = s(self_under(root, "", "corner"));
  return l;
}

ReferenceCheck compare_to_reference(std::span<const CornerVerdict> expected,
                                    std::span<const CornerVerdict> actual, double tol_db) {
  ReferenceCheck rc;
  char buf[512];
  if (expected.size() != actual.size()) {
    rc.failed = actual.empty() ? 1 : actual.size();
    std::snprintf(buf, sizeof buf, "reference has %zu corners, run has %zu", expected.size(),
                  actual.size());
    rc.notes.emplace_back(buf);
    return rc;
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const CornerVerdict& e = expected[i];
    const CornerVerdict& a = actual[i];
    const char* why = nullptr;
    if (a.solver_failed)
      why = "solver failed";
    else if (a.label != e.label)
      why = "corner label differs";
    else if (a.pass != e.pass)
      why = "verdict differs";
    else if (!(std::fabs(a.worst_margin_db - e.worst_margin_db) <= tol_db))
      why = "margin outside tolerance";
    if (!why) continue;
    ++rc.failed;
    std::snprintf(buf, sizeof buf, "corner %zu (%s): %s: expected %s %+.6f dB, got %s %+.6f dB",
                  i, a.label.c_str(), why, e.pass ? "PASS" : "FAIL", e.worst_margin_db,
                  a.pass ? "PASS" : "FAIL", a.worst_margin_db);
    rc.notes.emplace_back(buf);
  }
  return rc;
}

Json reference_json(const std::string& workload, std::uint64_t seed, double tol_db,
                    std::span<const CornerVerdict> verdicts) {
  Json corners = Json::array();
  for (const auto& v : verdicts) {
    Json c = Json::object();
    c.set("label", Json::string(v.label));
    c.set("pass", Json::boolean(v.pass));
    c.set("worst_margin_db", Json::number(v.worst_margin_db));
    corners.push(std::move(c));
  }
  Json doc = Json::object();
  doc.set("workload", Json::string(workload));
  doc.set("seed", Json::integer(static_cast<long>(seed)));
  doc.set("margin_tol_db", Json::number(tol_db));
  doc.set("corners", std::move(corners));
  return doc;
}

std::vector<CornerVerdict> verdicts_from_json(const Json& doc, double& tol_db) {
  tol_db = doc.at("margin_tol_db").as_double();
  std::vector<CornerVerdict> out;
  for (const Json& c : doc.at("corners").items()) {
    CornerVerdict v;
    v.label = c.at("label").as_string();
    v.pass = c.at("pass").as_bool();
    v.worst_margin_db = c.at("worst_margin_db").as_double();
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace vbench
