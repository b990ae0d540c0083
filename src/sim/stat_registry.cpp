#include "sim/stat_registry.hpp"

#include <type_traits>

#include "common/log.hpp"
#include "sim/stats.hpp"

namespace erel::sim {

namespace {

const char* kind_name(const StatRegistry::Entry& e) {
  struct Visitor {
    const char* operator()(const StatRegistry::Counter&) { return "counter"; }
    const char* operator()(const StatRegistry::Accum&) { return "accum"; }
    const char* operator()(const StatRegistry::TimeSeries&) {
      return "timeseries";
    }
  };
  return std::visit(Visitor{}, e);
}

}  // namespace

template <class Kind>
Kind& StatRegistry::get_or_create(std::string_view path) {
  EREL_CHECK(!path.empty(), "empty registry path");
  const auto it = entries_.find(path);
  if (it == entries_.end()) {
    auto [inserted, ok] = entries_.emplace(std::string(path), Kind{});
    (void)ok;
    return std::get<Kind>(inserted->second);
  }
  Kind* kind = std::get_if<Kind>(&it->second);
  EREL_CHECK(kind != nullptr, "registry path '", std::string(path),
             "' already registered as ", kind_name(it->second));
  return *kind;
}

StatRegistry::Counter& StatRegistry::counter(std::string_view path) {
  return get_or_create<Counter>(path);
}

StatRegistry::Accum& StatRegistry::accum(std::string_view path) {
  return get_or_create<Accum>(path);
}

StatRegistry::TimeSeries& StatRegistry::channel(std::string_view path,
                                                std::uint64_t stride) {
  EREL_CHECK(stride > 0, "channel '", std::string(path),
             "' needs a positive stride");
  TimeSeries& ts = get_or_create<TimeSeries>(path);
  if (ts.stride == 0) ts.stride = stride;
  EREL_CHECK(ts.stride == stride, "channel '", std::string(path),
             "' stride mismatch: ", ts.stride, " vs ", stride);
  return ts;
}

namespace {

template <class Kind>
const Kind* find_kind(
    const std::map<std::string, StatRegistry::Entry, std::less<>>& entries,
    std::string_view path) {
  const auto it = entries.find(path);
  if (it == entries.end()) return nullptr;
  return std::get_if<Kind>(&it->second);
}

}  // namespace

const StatRegistry::Counter* StatRegistry::find_counter(
    std::string_view path) const {
  return find_kind<Counter>(entries_, path);
}

const StatRegistry::Accum* StatRegistry::find_accum(
    std::string_view path) const {
  return find_kind<Accum>(entries_, path);
}

const StatRegistry::TimeSeries* StatRegistry::find_channel(
    std::string_view path) const {
  return find_kind<TimeSeries>(entries_, path);
}

std::uint64_t StatRegistry::counter_value(std::string_view path) const {
  const Counter* c = find_counter(path);
  return c == nullptr ? 0 : c->value;
}

double StatRegistry::accum_value(std::string_view path) const {
  const Accum* a = find_accum(path);
  return a == nullptr ? 0.0 : a->value;
}

void StatRegistry::merge_from(const StatRegistry& other) {
  for (const auto& [path, entry] : other.entries_) {
    const auto it = entries_.find(path);
    if (it == entries_.end()) {
      entries_.emplace(path, entry);
      continue;
    }
    EREL_CHECK(it->second.index() == entry.index(), "registry merge: '", path,
               "' is ", kind_name(it->second), " here but ", kind_name(entry),
               " in the merged-in registry");
    struct Merger {
      const Entry& theirs;
      void operator()(Counter& mine) {
        mine.value += std::get<Counter>(theirs).value;
      }
      void operator()(Accum& mine) {
        mine.value += std::get<Accum>(theirs).value;
      }
      void operator()(TimeSeries& mine) {
        const auto& ts = std::get<TimeSeries>(theirs);
        if (mine.stride == 0) mine.stride = ts.stride;
        EREL_CHECK(ts.stride == 0 || ts.points.empty() ||
                       mine.stride == ts.stride,
                   "registry merge: channel stride mismatch ", mine.stride,
                   " vs ", ts.stride);
        mine.points.insert(mine.points.end(), ts.points.begin(),
                           ts.points.end());
      }
    };
    std::visit(Merger{entry}, it->second);
  }
}

std::string_view stat_class_name(unsigned cls) {
  return cls == 0 ? "int" : "fp";
}

void publish_sim_stats(const SimStats& counters, StatRegistry& reg) {
  for_each_stat(counters, [&reg](std::string_view, std::string_view path,
                                 const auto& field) {
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>, double>)
      reg.accum(path).value = field;
    else
      reg.counter(path).value = field;
  });
}

SimStats materialize_sim_stats(const StatRegistry& reg) {
  SimStats s;
  for_each_stat(s, [&](std::string_view, std::string_view path, auto& field) {
    using Field = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<Field, double>) {
      // An average: its path holds the integral. Same arithmetic as the
      // tracker's pre-registry averages: integral / double(cycles).
      if (s.cycles != 0)
        field = reg.accum_value(path) / static_cast<double>(s.cycles);
    } else if constexpr (std::is_same_v<Field, bool>) {
      field = reg.counter_value(path) != 0;
    } else {
      field = reg.counter_value(path);
    }
  });
  return s;
}

}  // namespace erel::sim
