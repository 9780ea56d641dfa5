#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "util/csv.h"

namespace hydra::obs {
namespace {

/// Registry identity for thread-local shard caches. An address alone is
/// not enough (a destroyed registry's storage can be reused), so every
/// registry draws a process-unique serial.
std::atomic<std::uint64_t> g_registry_serial{1};

struct TlsShardRef {
  std::uint64_t serial = 0;
  void* shard = nullptr;
};

/// Per-thread map of registry serial -> shard. A plain vector: threads
/// touch one or two registries, so a linear scan beats any map.
thread_local std::vector<TlsShardRef> t_shards;

std::uint32_t find_or_register(std::vector<std::string>& names,
                               std::string_view name, std::size_t capacity,
                               const char* what) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<std::uint32_t>(i);
  }
  if (names.size() >= capacity) {
    throw std::length_error(std::string("obs registry: too many ") + what);
  }
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

}  // namespace

void Counter::add(std::uint64_t n) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  reg_->add_counter(id_, n);
}

void Histogram::record(double v) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  reg_->record_histogram(id_, v);
}

Registry::Registry()
    : serial_(g_registry_serial.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

Registry::Shard& Registry::local_shard() {
  for (const TlsShardRef& ref : t_shards) {
    if (ref.serial == serial_) return *static_cast<Shard*>(ref.shard);
  }
  auto owned = std::make_unique<Shard>();
  Shard* shard = owned.get();
  {
    const util::WriterLock lock(mu_);
    shards_.push_back(std::move(owned));
  }
  t_shards.push_back(TlsShardRef{serial_, shard});
  return *shard;
}

void Registry::add_counter(std::uint32_t id, std::uint64_t n) {
  local_shard().counters[id].fetch_add(n, std::memory_order_relaxed);
}

void Registry::record_histogram(std::uint32_t id, double v) {
  // Bounds are immutable once the handle exists, so this read is safe
  // without the registry mutex.
  const std::size_t n_bounds = hist_bound_count_[id];
  const std::array<double, kMaxBounds>& bounds = hist_bounds_[id];
  std::size_t bucket = n_bounds;  // overflow unless a bound catches it
  for (std::size_t i = 0; i < n_bounds; ++i) {
    if (v <= bounds[i]) {
      bucket = i;
      break;
    }
  }
  Shard& shard = local_shard();
  shard.hist_buckets[id * (kMaxBounds + 1) + bucket].fetch_add(
      1, std::memory_order_relaxed);
  // Owner-thread-only writer, so the CAS loop effectively never retries.
  std::atomic<double>& sum = shard.hist_sums[id];
  double cur = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(cur, cur + v,
                                    std::memory_order_relaxed)) {
  }
}

Counter Registry::counter(std::string_view name) {
  const util::WriterLock lock(mu_);
  return Counter(this,
                 find_or_register(counter_names_, name, kMaxCounters,
                                  "counters"));
}

Histogram Registry::histogram(std::string_view name,
                              std::vector<double> bounds) {
  if (bounds.empty() || bounds.size() > kMaxBounds ||
      !std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::invalid_argument(
        "histogram bounds must be non-empty, sorted and at most " +
        std::to_string(kMaxBounds) + " long");
  }
  const util::WriterLock lock(mu_);
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    if (hist_names_[i] == name) {
      if (hist_bound_count_[i] != bounds.size() ||
          !std::equal(bounds.begin(), bounds.end(),
                      hist_bounds_[i].begin())) {
        throw std::invalid_argument("histogram '" + std::string(name) +
                                    "' re-registered with different bounds");
      }
      return Histogram(this, static_cast<std::uint32_t>(i));
    }
  }
  if (hist_names_.size() >= kMaxHistograms) {
    throw std::length_error("obs registry: too many histograms");
  }
  const std::size_t id = hist_names_.size();
  hist_names_.emplace_back(name);
  hist_bound_count_[id] = bounds.size();
  std::copy(bounds.begin(), bounds.end(), hist_bounds_[id].begin());
  return Histogram(this, static_cast<std::uint32_t>(id));
}

MetricsSnapshot Registry::scrape() const {
  const util::ReaderLock lock(mu_);
  MetricsSnapshot snap;

  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.emplace_back(counter_names_[i], total);
  }

  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    HistogramSnapshot h;
    h.name = hist_names_[i];
    const std::size_t n_bounds = hist_bound_count_[i];
    h.bounds.assign(hist_bounds_[i].begin(),
                    hist_bounds_[i].begin() + n_bounds);
    h.buckets.assign(n_bounds + 1, 0);
    for (const auto& shard : shards_) {
      for (std::size_t b = 0; b <= n_bounds; ++b) {
        h.buckets[b] +=
            shard->hist_buckets[i * (kMaxBounds + 1) + b].load(
                std::memory_order_relaxed);
      }
      h.sum += shard->hist_sums[i].load(std::memory_order_relaxed);
    }
    for (const std::uint64_t b : h.buckets) h.count += b;
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void Registry::write_csv(std::ostream& out) const {
  const MetricsSnapshot snap = scrape();
  util::CsvWriter csv(out);
  csv.row({"kind", "name", "field", "value"});
  for (const auto& [name, value] : snap.counters) {
    csv.row({"counter", name, "total", std::to_string(value)});
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      const std::string field =
          b < h.bounds.size()
              ? "le_" + util::CsvWriter::format_double(h.bounds[b])
              : std::string("le_inf");
      csv.row({"histogram", h.name, field, std::to_string(h.buckets[b])});
    }
    csv.row({"histogram", h.name, "count", std::to_string(h.count)});
    csv.row({"histogram", h.name, "sum",
             util::CsvWriter::format_double(h.sum)});
  }
}

void Registry::reset() {
  const util::WriterLock lock(mu_);
  for (const auto& shard : shards_) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& b : shard->hist_buckets) b.store(0, std::memory_order_relaxed);
    for (auto& s : shard->hist_sums) s.store(0.0, std::memory_order_relaxed);
  }
}

}  // namespace hydra::obs
