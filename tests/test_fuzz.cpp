// Seeded mutation fuzzing of the untrusted-input parsers: obs::Json::parse,
// robust::load_journal and sweep::corner_from_journal, fed byte flips,
// truncations and insertions of a real 4-corner checkpoint journal. Every
// mutant must either parse or fail with a structured error
// (obs::JsonParseError, std::invalid_argument or std::runtime_error) —
// never crash, hang or throw anything else. Run under the ASan/UBSan job,
// this also catches out-of-bounds reads and undefined behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "robust/journal.hpp"
#include "sweep/corner_grid.hpp"
#include "sweep/sweep_runner.hpp"
#include "test_temp_path.hpp"

using namespace emc;
using namespace emc::sweep;

namespace {

constexpr std::uint64_t kSeed = 20260418;
constexpr int kMutants = 3000;

/// Four corners with a hand-built report each: margins that need all 17
/// digits, one failing corner, and one uncovered corner with no points.
CornerResult journal_corner(const Scenario& sc, Workspace&) {
  CornerResult r;
  r.report.mask_name = "fuzz-mask";
  r.report.what = sc.label();
  if (sc.index != 3) {
    const double m = (static_cast<double>(sc.index) - 1.0) / 3.0;
    r.report.points.push_back({1e6, 50.0 - m, 50.0, m});
    r.report.points.push_back({2e6, 40.0, 50.0 + m, 10.0 + m});
    r.report.worst_margin_db = m;
    r.report.worst_index = 0;
    r.report.pass = m >= 0.0;
  }
  r.scan_passes = 2;
  r.solve.steps = 100 + static_cast<long>(sc.index);
  return r;
}

CornerGrid fuzz_grid() {
  CornerAxes axes;
  axes.vdd_scale = {0.9, 1.1};
  axes.pattern_seed = {1, 2};
  return CornerGrid(axes);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// The journal of a real 4-corner sweep.
std::string real_journal() {
  const std::string path = test_temp_path("seed_journal.jsonl");
  std::remove(path.c_str());
  RunOptions opt;
  opt.journal_path = path;
  SweepRunner runner(1);
  runner.run(fuzz_grid(), journal_corner, opt);
  std::string text = read_file(path);
  std::remove(path.c_str());
  return text;
}

/// One to three mutations of `text`: flip a bit, overwrite a byte with a
/// JSON-significant or random one, insert a byte, or truncate. Uses the
/// raw engine output only, so the mutant sequence is the same on every
/// standard library.
std::string mutate(std::string text, std::mt19937_64& rng) {
  static const char kSignificant[] = "{}[]\",:.-+eE0123456789 \\nu\n";
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng() % text.size();
    const auto pick = [&] {
      return rng() % 2 ? kSignificant[rng() % (sizeof kSignificant - 1)]
                       : static_cast<char>(rng() % 256);
    };
    switch (rng() % 4) {
      case 0: text[at] = static_cast<char>(text[at] ^ (1 << (rng() % 8))); break;
      case 1: text[at] = pick(); break;
      case 2: text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), pick()); break;
      default: text.resize(at); break;
    }
  }
  return text;
}

/// Run `fn` and report whether it threw one of the allowed structured
/// errors; any other exception fails the test with the mutant attached.
template <class Fn>
bool rejected(Fn&& fn, const std::string& mutant, int i) {
  try {
    fn();
    return false;
  } catch (const obs::JsonParseError&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutant " << i << " threw an unstructured error: " << e.what()
                  << "\n" << mutant;
  }
  return true;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

}  // namespace

TEST(Fuzz, SeedJournalRestoresEveryCorner) {
  const CornerGrid grid = fuzz_grid();
  const std::vector<std::string> lines = lines_of(real_journal());
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& line : lines)
    EXPECT_NO_THROW(corner_from_journal(obs::Json::parse(line), grid)) << line;
}

TEST(Fuzz, JsonParseAcceptsOrRejectsEveryMutant) {
  const std::vector<std::string> lines = lines_of(real_journal());
  ASSERT_FALSE(lines.empty());
  std::mt19937_64 rng(kSeed);
  int rejects = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string m = mutate(lines[rng() % lines.size()], rng);
    rejects += rejected([&] { (void)obs::Json::parse(m); }, m, i);
  }
  // The mutants must reach both outcomes, or the fuzzer tests nothing.
  EXPECT_GT(rejects, 0);
  EXPECT_LT(rejects, kMutants);
}

TEST(Fuzz, LoadJournalAndCornerRestoreSurviveMutants) {
  const CornerGrid grid = fuzz_grid();
  const std::string journal = real_journal();
  const std::string path = test_temp_path("mutant_journal.jsonl");
  std::mt19937_64 rng(kSeed + 1);
  int loaded = 0, restored = 0, refused = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string m = mutate(journal, rng);
    write_file(path, m);
    std::vector<obs::Json> entries;
    if (rejected([&] { entries = robust::load_journal(path); }, m, i)) continue;
    ++loaded;
    for (const obs::Json& entry : entries)
      (rejected([&] { (void)corner_from_journal(entry, grid); }, m, i) ? refused
                                                                        : restored) += 1;
  }
  std::remove(path.c_str());
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutants);
  EXPECT_GT(restored, 0);
  EXPECT_GT(refused, 0);
}

TEST(Fuzz, DeepNestingIsAParseErrorNotAStackOverflow) {
  // One level per recursive call: 100k '[' bytes used to overflow the
  // stack. 512 levels still parse; one more is refused.
  EXPECT_THROW(obs::Json::parse(std::string(100000, '[')), obs::JsonParseError);
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(obs::Json::parse(nested(512)));
  EXPECT_THROW(obs::Json::parse(nested(513)), obs::JsonParseError);
}
