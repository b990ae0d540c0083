#include "harness/result_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/log.hpp"

namespace erel::harness {

std::string cache_entry_path(const std::string& dir, std::string_view fp_hex) {
  std::string path = dir;
  path += '/';
  path += fp_hex;
  path += ".erelres";
  return path;
}

std::optional<ExpEntry> load_cache_entry(const std::string& path,
                                         std::string_view fp_hex,
                                         const ExpKey& key,
                                         std::string* raw_text,
                                         bool* quarantined) {
  if (quarantined != nullptr) *quarantined = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  std::optional<ExpEntry> entry = parse_entry(text, fp_hex, key);
  if (entry) {
    if (raw_text != nullptr) *raw_text = std::move(text);
    return entry;
  }
  std::error_code ec;
  std::filesystem::rename(path, path + ".bad", ec);
  if (ec) std::filesystem::remove(path, ec);
  if (quarantined != nullptr) *quarantined = true;
  EREL_WARN("quarantined cache entry ", path, " -> ", path,
            ".bad (malformed, stale, or from a different cell; treated as "
            "a miss for ", key.to_string(), ")");
  return std::nullopt;
}

void save_cache_entry(const std::string& path, const std::string& content) {
  // The pid distinguishes processes, the counter distinguishes threads
  // within one process (daemon workers materializing different cells — or
  // even the same cell — concurrently). Without the counter, two in-process
  // writers would share one tmp path and could interleave writes before the
  // rename, publishing a corrupt entry.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      EREL_WARN("cannot write cache entry ", tmp);
      return;
    }
    out << content;
    out.flush();
    if (!out) {
      EREL_WARN("short write to cache entry ", tmp);
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    EREL_WARN("cannot publish cache entry ", path, ": ", ec.message());
    std::filesystem::remove(tmp, ec);
  }
}

}  // namespace erel::harness
