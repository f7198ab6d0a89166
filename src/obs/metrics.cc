#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

namespace lncl::obs {

std::atomic<bool> Metrics::enabled_{false};

namespace {

// Registry storage. Metric objects are never destroyed (pointers handed to
// call-site statics must stay valid for the process lifetime); the deques
// grow under the mutex, lookups copy nothing.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Counter>> counters;
  std::vector<std::unique_ptr<Gauge>> gauges;
  std::vector<std::unique_ptr<Histogram>> histograms;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();
  return *r;
}

std::atomic<int> g_next_shard{0};

// Compact JSON number formatting: integers stay integers, doubles keep full
// round-trip precision.
std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

template <typename T>
T* FindByName(const std::vector<std::unique_ptr<T>>& pool,
              const std::string& name) {
  for (const auto& m : pool) {
    if (m->name() == name) return m.get();
  }
  return nullptr;
}

}  // namespace

int Metrics::ThreadShard() {
  thread_local const int shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kMaxShards;
  return shard;
}

void Counter::Add(uint64_t n) {
  if (!Metrics::enabled()) return;
  shards_[Metrics::ThreadShard()].fetch_add(n, std::memory_order_relaxed);
}

uint64_t Counter::Total() const {
  uint64_t total = 0;
  for (int s = 0; s < kMaxShards; ++s) {
    total += shards_[s].load(std::memory_order_relaxed);
  }
  return total;
}

void Gauge::Update(int64_t v) {
  if (!Metrics::enabled()) return;
  std::atomic<int64_t>& shard = shards_[Metrics::ThreadShard()];
  int64_t cur = shard.load(std::memory_order_relaxed);
  while (v > cur &&
         !shard.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

int64_t Gauge::Value() const {
  int64_t value = 0;
  for (int s = 0; s < kMaxShards; ++s) {
    value = std::max(value, shards_[s].load(std::memory_order_relaxed));
  }
  return value;
}

Histogram::Histogram(std::string name, std::vector<double> edges)
    : name_(std::move(name)), edges_(std::move(edges)), shards_(kMaxShards) {
  std::sort(edges_.begin(), edges_.end());
  for (Shard& s : shards_) {
    s.buckets = std::vector<std::atomic<uint64_t>>(edges_.size() + 1);
  }
}

void Histogram::Observe(double v) {
  if (!Metrics::enabled()) return;
  Shard& shard = shards_[Metrics::ThreadShard()];
  size_t b = 0;
  while (b < edges_.size() && v > edges_[b]) ++b;
  shard.buckets[b].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  // Single writer per shard in the common case; CAS keeps shared-shard
  // threads (> kMaxShards of them) from losing updates.
  double sum = shard.sum.load(std::memory_order_relaxed);
  while (!shard.sum.compare_exchange_weak(sum, sum + v,
                                          std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::TotalSum() const {
  double total = 0.0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(edges_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (size_t b = 0; b < counts.size(); ++b) {
      counts[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

void Metrics::Enable(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

Counter* Metrics::GetCounter(const std::string& name) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (Counter* c = FindByName(r.counters, name)) return c;
  r.counters.push_back(std::unique_ptr<Counter>(new Counter(name)));
  return r.counters.back().get();
}

Gauge* Metrics::GetGauge(const std::string& name) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (Gauge* g = FindByName(r.gauges, name)) return g;
  r.gauges.push_back(std::unique_ptr<Gauge>(new Gauge(name)));
  return r.gauges.back().get();
}

Histogram* Metrics::GetHistogram(const std::string& name,
                                 std::vector<double> edges) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (Histogram* h = FindByName(r.histograms, name)) return h;
  r.histograms.push_back(
      std::unique_ptr<Histogram>(new Histogram(name, std::move(edges))));
  return r.histograms.back().get();
}

std::vector<std::pair<std::string, uint64_t>> Metrics::CounterTotals() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::pair<std::string, uint64_t>> totals;
  totals.reserve(r.counters.size());
  for (const auto& c : r.counters) {
    totals.emplace_back(c->name(), c->Total());
  }
  std::sort(totals.begin(), totals.end());
  return totals;
}

std::string Metrics::SnapshotJson() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto by_name = [](const auto& a, const auto& b) {
    return a->name() < b->name();
  };
  std::vector<const Counter*> counters;
  for (const auto& c : r.counters) counters.push_back(c.get());
  std::vector<const Gauge*> gauges;
  for (const auto& g : r.gauges) gauges.push_back(g.get());
  std::vector<const Histogram*> histograms;
  for (const auto& h : r.histograms) histograms.push_back(h.get());
  std::sort(counters.begin(), counters.end(),
            [&](const Counter* a, const Counter* b) { return by_name(a, b); });
  std::sort(gauges.begin(), gauges.end(),
            [&](const Gauge* a, const Gauge* b) { return by_name(a, b); });
  std::sort(
      histograms.begin(), histograms.end(),
      [&](const Histogram* a, const Histogram* b) { return by_name(a, b); });

  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    os << (i ? ", " : "") << "\"" << EscapeJson(counters[i]->name())
       << "\": " << counters[i]->Total();
  }
  os << "},\n  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? ", " : "") << "\"" << EscapeJson(gauges[i]->name())
       << "\": " << gauges[i]->Value();
  }
  os << "},\n  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const Histogram* h = histograms[i];
    os << (i ? ",\n    " : "") << "\"" << EscapeJson(h->name())
       << "\": {\"edges\": [";
    for (size_t e = 0; e < h->edges().size(); ++e) {
      os << (e ? ", " : "") << FormatDouble(h->edges()[e]);
    }
    os << "], \"counts\": [";
    const std::vector<uint64_t> counts = h->BucketCounts();
    for (size_t b = 0; b < counts.size(); ++b) {
      os << (b ? ", " : "") << counts[b];
    }
    os << "], \"count\": " << h->TotalCount()
       << ", \"sum\": " << FormatDouble(h->TotalSum()) << "}";
  }
  os << "}\n}\n";
  return os.str();
}

bool Metrics::WriteSnapshotJson(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << SnapshotJson();
  return static_cast<bool>(os);
}

void Metrics::Reset() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& c : r.counters) {
    for (int s = 0; s < kMaxShards; ++s) {
      c->shards_[s].store(0, std::memory_order_relaxed);
    }
  }
  for (auto& g : r.gauges) {
    for (int s = 0; s < kMaxShards; ++s) {
      g->shards_[s].store(0, std::memory_order_relaxed);
    }
  }
  for (auto& h : r.histograms) {
    for (Histogram::Shard& s : h->shards_) {
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0.0, std::memory_order_relaxed);
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace lncl::obs
