// On-disk result-cache IO, the one reader and writer of a cache directory:
// Experiment::run (harness/experiment.cpp) and the experiment daemon
// (src/service/) both go through it. One <fingerprint-hex>.erelres text
// file per cell (format: harness/results.hpp), published atomically so
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

/// Loads and validates one cache file. A missing file is a silent miss. A
/// present but malformed, truncated or mismatching one is quarantined: it
/// is renamed to `<path>.bad` (kept for inspection, and no longer re-read
/// on every lookup) with a warning, and the load is a miss — never a wrong
/// result. On a hit, `raw_text` (optional) receives the verbatim entry
/// text; `quarantined` (optional) tells whether this call moved the file.
[[nodiscard]] std::optional<ExpEntry> load_cache_entry(
    const std::string& path, std::string_view fp_hex, const ExpKey& key,
    std::string* raw_text = nullptr, bool* quarantined = nullptr);

/// Atomically publishes `content` at `path` via a tmp file + rename. The
/// tmp name is unique per writer — pid *and* a process-wide counter — so
/// two processes or two threads materializing the same cell can never
/// clobber each other's tmp file mid-write; identical fingerprints imply
/// identical contents, so whichever rename lands last is correct. IO
/// failures warn and leave the cache unpopulated (the entry is recomputed
/// next time) rather than aborting a finished sweep.
void save_cache_entry(const std::string& path, const std::string& content);

}  // namespace erel::harness
