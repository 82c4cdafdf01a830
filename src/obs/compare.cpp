#include "obs/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace emc::obs {

namespace {

// ------------------------------------------------------------ merge rules

bool is_int(const Json& j) { return j.kind() == Json::Kind::kInteger; }

/// dump(0) ends with a newline; notes embed values mid-sentence.
std::string dump_inline(const Json& j) {
  std::string s = j.dump(0);
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

long int_or_throw(const Json& j, const char* where) {
  if (!is_int(j)) throw std::invalid_argument(std::string("merge: ") + where +
                                              " is not an integer");
  return j.as_integer();
}

/// Fields whose values agree across documents pass through; disagreeing
/// context fields become an array of the per-document values (in document
/// order) — information-preserving and deterministic.
Json merge_equal_or_list(const std::vector<const Json*>& vals) {
  const std::string first = vals[0]->dump(0);
  bool all_equal = true;
  for (const Json* v : vals)
    if (v->dump(0) != first) {
      all_equal = false;
      break;
    }
  if (all_equal) return *vals[0];
  Json list = Json::array();
  for (const Json* v : vals) list.push(*v);
  return list;
}

/// Per-field merge of an object section: keys keep first-document order,
/// later-only keys append; each field merged by `field_fn(key, values)`.
/// Documents missing the section (or a field) simply don't contribute.
template <typename FieldFn>
Json merge_object_fields(const std::vector<const Json*>& docs, FieldFn&& field_fn) {
  Json out = Json::object();
  std::vector<std::string> order;
  for (const Json* d : docs) {
    if (!d || !d->is_object()) continue;
    for (const auto& [key, value] : d->fields()) {
      (void)value;
      if (std::find(order.begin(), order.end(), key) == order.end())
        order.push_back(key);
    }
  }
  for (const std::string& key : order) {
    std::vector<const Json*> vals;
    for (const Json* d : docs)
      if (d && d->is_object())
        if (const Json* v = d->find(key)) vals.push_back(v);
    if (!vals.empty()) out.set(key, field_fn(key, vals));
  }
  return out;
}

Json sum_integers(const std::vector<const Json*>& vals, const char* where) {
  long total = 0;
  for (const Json* v : vals) total += int_or_throw(*v, where);
  return Json::integer(total);
}

Json max_integers(const std::vector<const Json*>& vals, const char* where) {
  long best = 0;
  for (const Json* v : vals) best = std::max(best, int_or_throw(*v, where));
  return Json::integer(best);
}

/// Histogram objects ({count, sum, max, mean?, pow2_buckets}) merge like
/// MetricRegistry shards: count/sum add, max maxes, buckets add
/// elementwise, mean is recomputed from the merged sums.
Json merge_histogram_objects(const std::vector<const Json*>& vals) {
  long count = 0, sum = 0, mx = 0;
  std::vector<long> buckets;
  for (const Json* v : vals) {
    count += int_or_throw(v->at("count"), "histogram count");
    sum += int_or_throw(v->at("sum"), "histogram sum");
    mx = std::max(mx, int_or_throw(v->at("max"), "histogram max"));
    const Json& b = v->at("pow2_buckets");
    if (b.size() > buckets.size()) buckets.resize(b.size(), 0);
    for (std::size_t i = 0; i < b.size(); ++i) buckets[i] += b[i].as_integer();
  }
  Json h = Json::object();
  h.set("count", Json::integer(count));
  h.set("sum", Json::integer(sum));
  h.set("max", Json::integer(mx));
  if (count > 0)
    h.set("mean", Json::number(static_cast<double>(sum) / static_cast<double>(count)));
  Json barr = Json::array();
  for (long b : buckets) barr.push(Json::integer(b));
  h.set("pow2_buckets", std::move(barr));
  return h;
}

/// "metrics" section: counters are bare integers (sum), gauges are
/// {"peak": v} objects (max), histograms are count/sum/max objects (add).
Json merge_metrics(const std::vector<const Json*>& docs) {
  return merge_object_fields(docs, [](const std::string& key,
                                      const std::vector<const Json*>& vals) -> Json {
    const Json& probe = *vals[0];
    if (is_int(probe)) return sum_integers(vals, key.c_str());
    if (probe.is_object() && probe.find("peak")) {
      long best = 0;
      for (const Json* v : vals)
        best = std::max(best, int_or_throw(v->at("peak"), "gauge peak"));
      Json g = Json::object();
      g.set("peak", Json::integer(best));
      return g;
    }
    if (probe.is_object() && probe.find("count")) return merge_histogram_objects(vals);
    throw std::invalid_argument("merge: unrecognized metric shape for " + key);
  });
}

/// Profile sections merge like their underlying aggregations: counts and
/// times sum, min/max extremize, trees merge recursively by name.
Json merge_profile_tree(const std::vector<const Json*>& trees);

Json merge_profile_node(const std::vector<const Json*>& nodes) {
  Json out = Json::object();
  out.set("name", nodes[0]->at("name"));
  long count = 0, total = 0, self = 0;
  for (const Json* n : nodes) {
    count += n->at("count").as_integer();
    total += n->at("total_ns").as_integer();
    self += n->at("self_ns").as_integer();
  }
  out.set("count", Json::integer(count));
  out.set("total_ns", Json::integer(total));
  out.set("self_ns", Json::integer(self));
  std::vector<const Json*> kid_arrays;
  for (const Json* n : nodes)
    if (const Json* kids = n->find("children")) kid_arrays.push_back(kids);
  if (!kid_arrays.empty()) {
    Json merged = merge_profile_tree(kid_arrays);
    if (merged.size() > 0) out.set("children", std::move(merged));
  }
  return out;
}

Json merge_profile_tree(const std::vector<const Json*>& trees) {
  // Collect child names in sorted order (each tree is already sorted).
  std::vector<std::string> names;
  for (const Json* t : trees)
    for (const Json& n : t->items()) {
      const std::string& nm = n.at("name").as_string();
      if (std::find(names.begin(), names.end(), nm) == names.end()) names.push_back(nm);
    }
  std::sort(names.begin(), names.end());
  Json out = Json::array();
  for (const std::string& nm : names) {
    std::vector<const Json*> matches;
    for (const Json* t : trees)
      for (const Json& n : t->items())
        if (n.at("name").as_string() == nm) matches.push_back(&n);
    out.push(merge_profile_node(matches));
  }
  return out;
}

Json merge_profiles(const std::vector<const Json*>& docs) {
  return merge_object_fields(docs, [](const std::string& key,
                                      const std::vector<const Json*>& fv) -> Json {
    if (key == "truncated") {
      bool any = false;
      for (const Json* v : fv) any = any || v->as_bool();
      return Json::boolean(any);
    }
    if (key == "dropped_events" || key == "threads" || key == "events" ||
        key == "total_ns")
      return sum_integers(fv, key.c_str());
    if (key == "spans")
      return merge_object_fields(fv, [](const std::string&,
                                        const std::vector<const Json*>& sv) -> Json {
        Json row = Json::object();
        long count = 0, total = 0, self = 0;
        long mn = std::numeric_limits<long>::max(), mx = 0;
        std::vector<long> buckets;
        for (const Json* s : sv) {
          count += s->at("count").as_integer();
          total += s->at("total_ns").as_integer();
          self += s->at("self_ns").as_integer();
          mn = std::min(mn, s->at("min_ns").as_integer());
          mx = std::max(mx, s->at("max_ns").as_integer());
          const Json& b = s->at("pow2_buckets");
          if (b.size() > buckets.size()) buckets.resize(b.size(), 0);
          for (std::size_t i = 0; i < b.size(); ++i) buckets[i] += b[i].as_integer();
        }
        row.set("count", Json::integer(count));
        row.set("total_ns", Json::integer(total));
        row.set("self_ns", Json::integer(self));
        row.set("min_ns", Json::integer(mn));
        row.set("max_ns", Json::integer(mx));
        if (count > 0)
          row.set("mean_ns",
                  Json::number(static_cast<double>(total) / static_cast<double>(count)));
        Json barr = Json::array();
        for (long b : buckets) barr.push(Json::integer(b));
        row.set("pow2_buckets", std::move(barr));
        return row;
      });
    if (key == "tree") return merge_profile_tree(fv);
    return merge_equal_or_list(fv);
  });
}

Json merge_trace(const std::vector<const Json*>& docs) {
  Json out = merge_object_fields(docs, [](const std::string& key,
                                          const std::vector<const Json*>& fv) -> Json {
    if (key == "threads" || key == "events" || key == "dropped_events")
      return sum_integers(fv, key.c_str());
    if (key == "file") {
      Json files = Json::array();
      for (const Json* v : fv) files.push(*v);
      return files;
    }
    return merge_equal_or_list(fv);
  });
  // A merged trace summary names its files in the plural.
  if (Json* f = out.find("file")) {
    Json files = std::move(*f);
    Json renamed = Json::object();
    for (const auto& [key, value] : out.fields())
      if (key != "file") renamed.set(key, value);
    renamed.set("files", std::move(files));
    return renamed;
  }
  return out;
}

Json merge_resources(const std::vector<const Json*>& docs) {
  return merge_object_fields(docs, [](const std::string& key,
                                      const std::vector<const Json*>& fv) -> Json {
    if (key == "samples" || key == "dropped_samples") return sum_integers(fv, key.c_str());
    if (key == "peak_rss_bytes") return max_integers(fv, key.c_str());
    if (key == "cpu_user_s" || key == "cpu_sys_s") {
      double total = 0.0;
      for (const Json* v : fv) total += v->as_double();
      return Json::number(total);
    }
    if (key == "wall_s") {
      double mx = 0.0;
      for (const Json* v : fv) mx = std::max(mx, v->as_double());
      return Json::number(mx);
    }
    if (key == "rss_is_peak_fallback") {
      bool any = false;
      for (const Json* v : fv) any = any || v->as_bool();
      return Json::boolean(any);
    }
    if (key == "rss_series") return Json::array();  // per-process series don't concat meaningfully
    return merge_equal_or_list(fv);
  });
}

Json merge_solver(const std::vector<const Json*>& docs) {
  return merge_object_fields(docs, [](const std::string& key,
                                      const std::vector<const Json*>& fv) -> Json {
    if (key == "kind") {
      const std::string first = fv[0]->as_string();
      for (const Json* v : fv)
        if (v->as_string() != first) return Json::string("mixed");
      return Json::string(first);
    }
    if (is_int(*fv[0])) return sum_integers(fv, key.c_str());
    return merge_equal_or_list(fv);
  });
}

Json merge_workers(const std::vector<const Json*>& docs) {
  return merge_object_fields(docs, [](const std::string&,
                                      const std::vector<const Json*>& fv) -> Json {
    if (fv[0]->is_array()) {
      // Worker rows concatenate in document order; worker ids are
      // re-dealt so the merged pool reads 0..N-1.
      Json rows = Json::array();
      long next = 0;
      for (const Json* arr : fv)
        for (const Json& row : arr->items()) {
          if (row.is_object() && row.find("worker")) {
            Json r = Json::object();
            for (const auto& [k, v] : row.fields())
              r.set(k, k == "worker" ? Json::integer(next) : v);
            rows.push(std::move(r));
            ++next;
          } else {
            rows.push(row);
          }
        }
      return rows;
    }
    return merge_equal_or_list(fv);
  });
}

Json merge_context(const std::vector<const Json*>& docs) {
  return merge_object_fields(docs, [](const std::string&,
                                      const std::vector<const Json*>& fv) -> Json {
    return merge_equal_or_list(fv);
  });
}

// --------------------------------------------------------------- compare

struct ToleranceSpec {
  double rel = 0.25;
  enum Dir { kUpper, kLower, kBoth, kEqual } dir = kBoth;
};

ToleranceSpec::Dir parse_dir(const std::string& s) {
  if (s == "upper") return ToleranceSpec::kUpper;
  if (s == "lower") return ToleranceSpec::kLower;
  if (s == "both") return ToleranceSpec::kBoth;
  if (s == "equal") return ToleranceSpec::kEqual;
  throw std::invalid_argument("baseline: unknown dir \"" + s + "\"");
}

void finish(CompareResult& res) {
  for (const DeltaRow& r : res.rows) {
    if (r.verdict == Verdict::kRegress) ++res.regressed;
    if (r.verdict == Verdict::kImproved) ++res.improved;
    if (r.verdict == Verdict::kMissing) ++res.missing;
  }
  res.pass = res.regressed == 0 && res.missing == 0;
}

DeltaRow check_one(const std::string& path, const Json& expected, const Json* actual,
                   ToleranceSpec tol) {
  DeltaRow row;
  row.path = path;
  row.tol = tol.rel;
  if (!actual) {
    row.verdict = Verdict::kMissing;
    row.note = "path not found in current report";
    return row;
  }
  if (tol.dir == ToleranceSpec::kEqual || !expected.is_number()) {
    const bool eq = expected.dump(0) == actual->dump(0);
    row.verdict = eq ? Verdict::kPass : Verdict::kRegress;
    row.note = "expect " + dump_inline(expected) + ", got " + dump_inline(*actual);
    if (expected.is_number() && actual->is_number()) {
      row.baseline = expected.as_double();
      row.current = actual->as_double();
    }
    return row;
  }
  if (!actual->is_number()) {
    row.verdict = Verdict::kRegress;
    row.note = "expected a number, got " + dump_inline(*actual);
    return row;
  }

  row.baseline = expected.as_double();
  row.current = actual->as_double();
  row.ratio = row.baseline != 0.0 ? row.current / row.baseline : 0.0;

  // Band around the baseline, sized by its magnitude so negative
  // baselines (dB margins, sentinel values) keep hi above lo. Positive
  // baselines with a wide tolerance get the reciprocal lower bound (a
  // "within Nx" band); elsewhere the band is symmetric.
  const double span = std::abs(row.baseline);
  const double hi = row.baseline + span * tol.rel;
  const double lo = tol.rel >= 1.0 && row.baseline > 0.0
                        ? row.baseline / (1.0 + tol.rel)
                        : row.baseline - span * tol.rel;
  const bool over = row.current > hi;
  const bool under = row.current < lo;
  switch (tol.dir) {
    case ToleranceSpec::kUpper:
      row.verdict = over ? Verdict::kRegress : under ? Verdict::kImproved : Verdict::kPass;
      break;
    case ToleranceSpec::kLower:
      row.verdict = under ? Verdict::kRegress : over ? Verdict::kImproved : Verdict::kPass;
      break;
    default:
      row.verdict = (over || under) ? Verdict::kRegress : Verdict::kPass;
      break;
  }
  return row;
}

void walk_leaves(const Json& node, std::string& path, const Json& current,
                 double rel_tol, CompareResult& res) {
  if (node.is_object()) {
    for (const auto& [key, value] : node.fields()) {
      const std::size_t len = path.size();
      if (!path.empty()) path.push_back('.');
      path += key;
      walk_leaves(value, path, current, rel_tol, res);
      path.resize(len);
    }
    return;
  }
  if (node.is_array()) {
    for (std::size_t i = 0; i < node.size(); ++i) {
      const std::size_t len = path.size();
      // Arrays of named objects address by name for stable paths.
      const Json* name = node[i].is_object() ? node[i].find("name") : nullptr;
      if (!name) name = node[i].is_object() ? node[i].find("axis") : nullptr;
      path.push_back('[');
      path += name && name->is_string() ? name->as_string() : std::to_string(i);
      path.push_back(']');
      walk_leaves(node[i], path, current, rel_tol, res);
      path.resize(len);
    }
    return;
  }
  ToleranceSpec tol;
  tol.rel = rel_tol;
  tol.dir = node.is_number() ? ToleranceSpec::kBoth : ToleranceSpec::kEqual;
  res.rows.push_back(check_one(path, node, resolve_path(current, path), tol));
}

}  // namespace

Json merge_run_reports(const std::vector<Json>& reports) {
  if (reports.empty())
    throw std::invalid_argument("merge_run_reports: no reports to merge");
  for (const Json& r : reports)
    if (!r.is_object())
      throw std::invalid_argument("merge_run_reports: report is not a JSON object");

  std::vector<const Json*> docs;
  docs.reserve(reports.size());
  for (const Json& r : reports) docs.push_back(&r);

  Json out = Json::object();
  // Top-level key order: first document's order, then later-only keys.
  std::vector<std::string> order;
  for (const Json* d : docs)
    for (const auto& [key, value] : d->fields()) {
      (void)value;
      if (std::find(order.begin(), order.end(), key) == order.end())
        order.push_back(key);
    }

  for (const std::string& key : order) {
    std::vector<const Json*> secs;
    for (const Json* d : docs)
      if (const Json* s = d->find(key)) secs.push_back(s);
    if (secs.empty()) continue;

    if (key == "report" || key == "schema_version") {
      out.set(key, *secs[0]);
      if (key == "schema_version")
        out.set("merged_from", Json::integer(static_cast<long>(reports.size())));
    } else if (key == "metrics") {
      out.set(key, merge_metrics(secs));
    } else if (key == "trace") {
      out.set(key, merge_trace(secs));
    } else if (key == "workers") {
      out.set(key, merge_workers(secs));
    } else if (key == "solver") {
      out.set(key, merge_solver(secs));
    } else if (key == "profile") {
      out.set(key, merge_profiles(secs));
    } else if (key == "resources") {
      out.set(key, merge_resources(secs));
    } else if (secs[0]->is_object()) {
      // host, config, sweep and any future context section: per-field
      // equal-or-list. Sweep summaries are not re-aggregated here: shards
      // merge by resuming run() over their concatenated journals, so
      // sweep::summarize() stays the one aggregation rule.
      out.set(key, merge_context(secs));
    } else {
      out.set(key, merge_equal_or_list(secs));
    }
  }
  return out;
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kPass: return "PASS";
    case Verdict::kImproved: return "IMPROVED";
    case Verdict::kRegress: return "REGRESS";
    case Verdict::kMissing: return "MISSING";
  }
  return "?";
}

std::string CompareResult::format() const {
  std::string out;
  char line[512];
  for (const DeltaRow& r : rows) {
    if (!r.note.empty()) {
      std::snprintf(line, sizeof line, "  %-8s %-52s %s\n", verdict_name(r.verdict),
                    r.path.c_str(), r.note.c_str());
    } else {
      std::snprintf(line, sizeof line,
                    "  %-8s %-52s base %.6g  now %.6g  (%.2fx, tol %.2gx)\n",
                    verdict_name(r.verdict), r.path.c_str(), r.baseline, r.current,
                    r.ratio, 1.0 + r.tol);
    }
    out += line;
  }
  std::snprintf(line, sizeof line,
                "  %zu checked: %zu regressed, %zu missing, %zu improved -> %s\n",
                rows.size(), regressed, missing, improved, pass ? "PASS" : "REGRESS");
  out += line;
  return out;
}

Json CompareResult::to_json() const {
  Json o = Json::object();
  o.set("pass", Json::boolean(pass));
  o.set("checked", Json::integer(static_cast<long>(rows.size())));
  o.set("regressed", Json::integer(static_cast<long>(regressed)));
  o.set("missing", Json::integer(static_cast<long>(missing)));
  o.set("improved", Json::integer(static_cast<long>(improved)));
  Json arr = Json::array();
  for (const DeltaRow& r : rows) {
    Json row = Json::object();
    row.set("path", Json::string(r.path));
    row.set("verdict", Json::string(verdict_name(r.verdict)));
    row.set("baseline", Json::number(r.baseline));
    row.set("current", Json::number(r.current));
    row.set("ratio", Json::number(r.ratio));
    row.set("rel_tol", Json::number(r.tol));
    if (!r.note.empty()) row.set("note", Json::string(r.note));
    arr.push(std::move(row));
  }
  o.set("rows", std::move(arr));
  return o;
}

CompareResult check_baseline(const Json& baseline_spec, const Json& current,
                             double tol_scale) {
  if (tol_scale <= 0.0)
    throw std::invalid_argument("check_baseline: tol_scale must be positive");
  const Json* metrics = baseline_spec.find("metrics");
  if (!metrics || !metrics->is_array())
    throw std::invalid_argument("check_baseline: spec has no metrics array");

  CompareResult res;
  for (const Json& m : metrics->items()) {
    const Json* path = m.find("path");
    const Json* value = m.find("value");
    if (!path || !path->is_string() || !value)
      throw std::invalid_argument("check_baseline: metric row needs path and value");
    ToleranceSpec tol;
    if (const Json* t = m.find("rel_tol")) tol.rel = t->as_double();
    if (const Json* d = m.find("dir")) tol.dir = parse_dir(d->as_string());
    tol.rel *= tol_scale;
    res.rows.push_back(check_one(path->as_string(), *value,
                                 resolve_path(current, path->as_string()), tol));
  }
  finish(res);
  return res;
}

CompareResult diff_reports(const Json& baseline, const Json& current, double rel_tol) {
  CompareResult res;
  std::string path;
  walk_leaves(baseline, path, current, rel_tol, res);
  finish(res);
  return res;
}

const Json* resolve_path(const Json& doc, std::string_view path) {
  const Json* cur = &doc;
  std::size_t i = 0;
  while (i < path.size()) {
    if (path[i] == '.') {
      ++i;
      continue;
    }
    if (path[i] == '[') {
      const std::size_t close = path.find(']', i);
      if (close == std::string_view::npos || !cur->is_array()) return nullptr;
      const std::string_view sel = path.substr(i + 1, close - i - 1);
      const Json* next = nullptr;
      if (!sel.empty() && sel.find_first_not_of("0123456789") == std::string_view::npos) {
        const std::size_t idx = static_cast<std::size_t>(std::stoul(std::string(sel)));
        if (idx < cur->size()) next = &(*cur)[idx];
      } else {
        for (std::size_t k = 0; k < cur->size() && !next; ++k) {
          const Json& item = (*cur)[k];
          if (!item.is_object()) continue;
          for (const char* key : {"name", "axis", "value"}) {
            const Json* n = item.find(key);
            if (n && n->is_string() && n->as_string() == sel) {
              next = &item;
              break;
            }
          }
        }
      }
      if (!next) return nullptr;
      cur = next;
      i = close + 1;
      continue;
    }
    const std::size_t end = path.find_first_of(".[", i);
    const std::string_view key =
        path.substr(i, (end == std::string_view::npos ? path.size() : end) - i);
    if (!cur->is_object()) return nullptr;
    const Json* next = cur->find(std::string(key));
    if (!next) return nullptr;
    cur = next;
    i = end == std::string_view::npos ? path.size() : end;
  }
  return cur;
}

}  // namespace emc::obs
