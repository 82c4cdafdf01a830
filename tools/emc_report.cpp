// emc_report — operate on obs::RunReport JSON documents from the shell:
//
//   emc_report show REPORT.json
//       Parse and pretty-print (validates the document round-trips).
//   emc_report merge -o OUT.json IN1.json IN2.json ...
//       Deterministic N-way merge of run reports (obs::merge_run_reports;
//       see src/obs/compare.hpp for the rules): counters sum, differing
//       sweep summaries are listed per document. The merged summary of a
//       sharded sweep comes from SweepRunner::run over the concatenated
//       shard journals, not from this command.
//   emc_report diff BASELINE.json CURRENT.json [--rel-tol X]
//       Compare every scalar leaf of BASELINE against CURRENT under one
//       uniform relative tolerance (default 0.25). Exit 1 on regression.
//   emc_report check SPEC.json CURRENT.json [--scale X]
//       Score CURRENT against a committed baseline spec
//       (bench/baselines/*.smoke.json schema). --scale multiplies every
//       row's tolerance — pass > 1 on slow or sanitized runners. Exit 1
//       on regression or missing metric.
//   emc_report flame REPORT.json [-o OUT.folded]
//       Export the report's "profile" section as collapsed-stack
//       ("folded") lines for flamegraph.pl / speedscope; stdout when no
//       -o is given.
//
// All commands exit 0 on success/pass, 1 on failure/regression, 2 on
// usage errors.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "obs/compare.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"

namespace {

using emc::obs::Json;

int usage() {
  std::fprintf(stderr,
               "usage: emc_report show REPORT.json\n"
               "       emc_report merge -o OUT.json IN1.json [IN2.json ...]\n"
               "       emc_report diff BASELINE.json CURRENT.json [--rel-tol X]\n"
               "       emc_report check SPEC.json CURRENT.json [--scale X]\n"
               "       emc_report flame REPORT.json [-o OUT.folded]\n");
  return 2;
}

int cmd_show(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  const Json doc = Json::parse_file(args[0]);
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

int cmd_merge(const std::vector<std::string>& args) {
  std::string out_path;
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o") {
      if (i + 1 >= args.size()) return usage();
      out_path = args[++i];
    } else {
      inputs.push_back(args[i]);
    }
  }
  if (out_path.empty() || inputs.empty()) return usage();

  std::vector<Json> docs;
  docs.reserve(inputs.size());
  for (const std::string& path : inputs) docs.push_back(Json::parse_file(path));
  const Json merged = emc::obs::merge_run_reports(docs);
  if (!merged.write_file(out_path)) return 1;
  std::printf("merged %zu reports -> %s\n", docs.size(), out_path.c_str());
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  double rel_tol = 0.25;
  std::vector<std::string> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--rel-tol") {
      if (i + 1 >= args.size()) return usage();
      rel_tol = std::strtod(args[++i].c_str(), nullptr);
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.size() != 2) return usage();

  const Json base = Json::parse_file(files[0]);
  const Json cur = Json::parse_file(files[1]);
  const emc::obs::CompareResult r = emc::obs::diff_reports(base, cur, rel_tol);
  std::printf("%s", r.format().c_str());
  return r.pass ? 0 : 1;
}

int cmd_check(const std::vector<std::string>& args) {
  double scale = 1.0;
  std::vector<std::string> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--scale") {
      if (i + 1 >= args.size()) return usage();
      scale = std::strtod(args[++i].c_str(), nullptr);
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.size() != 2) return usage();

  const Json spec = Json::parse_file(files[0]);
  const Json cur = Json::parse_file(files[1]);
  const emc::obs::CompareResult r = emc::obs::check_baseline(spec, cur, scale);
  std::printf("%s", r.format().c_str());
  return r.pass ? 0 : 1;
}

int cmd_flame(const std::vector<std::string>& args) {
  std::string out_path;
  std::vector<std::string> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o") {
      if (i + 1 >= args.size()) return usage();
      out_path = args[++i];
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.size() != 1) return usage();

  const Json doc = Json::parse_file(files[0]);
  const Json* profile = doc.find("profile");
  if (!profile) {
    std::fprintf(stderr, "emc_report flame: %s has no \"profile\" section\n",
                 files[0].c_str());
    return 1;
  }
  const std::string folded = emc::obs::collapsed_stacks_from_profile_json(*profile);
  if (out_path.empty()) {
    std::fputs(folded.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "emc_report flame: cannot write %s\n", out_path.c_str());
    return 1;
  }
  const bool ok = std::fwrite(folded.data(), 1, folded.size(), f) == folded.size();
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "emc_report flame: error writing %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "show") return cmd_show(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "diff") return cmd_diff(args);
    if (cmd == "check") return cmd_check(args);
    if (cmd == "flame") return cmd_flame(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emc_report %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
