// Append-only JSON-lines checkpoint journal for sharded sweeps.
//
// SweepRunner spools every finished corner as one line; a killed shard
// resumes by loading the journal and skipping the corners already present,
// and the resumed-plus-merged report is byte-identical to an uninterrupted
// run. Byte-identity needs exact double round-trips, which obs::Json
// numbers (%.9g) do not provide — doubles that must survive a resume are
// encoded with exact_double() (%.17g strings) and read back with
// parse_exact().
#pragma once

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace emc::robust {

/// Exact decimal spelling of a double: %.17g round-trips every finite
/// value through strtod bit-for-bit.
std::string exact_double(double v);

/// Read a value written by exact_double (a string) or a plain Json number.
/// Throws std::invalid_argument unless strtod consumes the whole non-empty
/// string ("inf", "-inf" and "nan" parse; "abc", "1.5x" and " 1" do not).
double parse_exact(const obs::Json& j);

/// One-line serialization of a Json tree (dump() pretty-prints; journal
/// entries must be single lines). Safe because the escaper encodes every
/// control character inside strings.
std::string dump_line(const obs::Json& j);

/// Append-only journal writer. Lines are flushed as written, so a killed
/// process loses at most the line being written — which the loader drops.
class JournalWriter {
 public:
  /// Opens `path` in append mode; ok() reports failure (the caller
  /// decides whether journaling is load-bearing).
  explicit JournalWriter(const std::string& path);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  bool ok() const { return f_ != nullptr; }

  /// Serialize + append + flush one entry; thread-safe.
  void append(const obs::Json& entry);

 private:
  std::mutex mu_;
  std::FILE* f_ = nullptr;
};

/// Load every complete entry of a journal; a missing file returns an
/// empty vector (nothing to resume). A truncated or malformed FINAL line
/// — the writer died mid-append — is dropped; a malformed interior line
/// means real corruption and throws std::runtime_error.
std::vector<obs::Json> load_journal(const std::string& path);

}  // namespace emc::robust
