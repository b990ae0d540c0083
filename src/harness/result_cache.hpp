// On-disk result-cache IO shared by Experiment::run (harness/experiment.cpp)
// and the experiment daemon (src/service/): one <fingerprint-hex>.erelres
// text file per cell (format: harness/results.hpp), published atomically so
// concurrent writers — other processes, daemon worker threads — can race on
// the same fingerprint without readers ever seeing a torn entry.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "harness/results.hpp"

namespace erel::harness {

/// "<dir>/<fp_hex>.erelres".
[[nodiscard]] std::string cache_entry_path(const std::string& dir,
                                           std::string_view fp_hex);

/// Loads and validates one cache file. Returns nullopt (with a warning) on
/// a missing, malformed, truncated or mismatching entry — always a cache
/// miss, never a wrong result.
[[nodiscard]] std::optional<ExpEntry> load_cache_entry(const std::string& path,
                                                       std::string_view fp_hex,
                                                       const ExpKey& key);

/// Atomically publishes `content` at `path` via a tmp file + rename. The
/// tmp name is unique per writer — pid *and* a process-wide counter — so
/// two processes or two threads materializing the same cell can never
/// clobber each other's tmp file mid-write; identical fingerprints imply
/// identical contents, so whichever rename lands last is correct. IO
/// failures warn and leave the cache unpopulated (the entry is recomputed
/// next time) rather than aborting a finished sweep.
void save_cache_entry(const std::string& path, const std::string& content);

}  // namespace erel::harness
