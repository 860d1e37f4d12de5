// ondwin::obs metrics — counters, gauges and histograms with Prometheus
// text exposition and a JSON mirror.
//
// Two usage modes:
//
//   * Registry-owned: long-lived process-wide instruments registered by
//     name + labels (graph compiles, wisdom loads, tuner candidates).
//     Registration takes a mutex once; the returned reference is then
//     updated lock-free from any thread.
//
//       obs::Counter& compiles = obs::MetricsRegistry::global().counter(
//           "ondwin_graph_compiles_total", "Graph executors compiled");
//       compiles.inc();
//
//   * Standalone: instruments embedded in an owning object (a model's
//     batch-occupancy histogram) and rendered into a MetricsPage at
//     scrape time alongside snapshot-derived values. MetricsPage is the
//     shared renderer: both the registry export and serve::Server's
//     /metrics-style dump go through it, so the two expositions agree on
//     format and escaping.
//
// All instruments are safe for concurrent update; snapshots are
// monotonic-consistent per field (relaxed atomics), which is what scrape
// endpoints need.
#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/common.h"

namespace ondwin::obs {

/// Monotonically increasing counter.
class Counter {
 public:
  void inc(u64 n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  u64 value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0};
};

/// Settable instantaneous value (doubles, stored as bit-cast atomics).
class Gauge {
 public:
  void set(double v) { bits_.store(to_bits(v), std::memory_order_relaxed); }
  void add(double d) {
    u64 old = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(old, to_bits(from_bits(old) + d),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return from_bits(bits_.load(std::memory_order_relaxed));
  }

 private:
  static u64 to_bits(double v) {
    u64 b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  }
  static double from_bits(u64 b) {
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
  }
  std::atomic<u64> bits_{0};
};

/// Fixed-bucket histogram (Prometheus semantics: `bounds` are ascending
/// inclusive upper bounds, a +Inf bucket is implicit).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;  // finite upper bounds
    std::vector<u64> counts;     // per-bucket (bounds.size() + 1, last=+Inf)
    u64 count = 0;
    double sum = 0;
  };
  Snapshot snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<u64>[]> counts_;  // bounds_.size() + 1
  std::atomic<u64> count_{0};
  Gauge sum_;  // CAS-add accumulator
};

using Labels = std::vector<std::pair<std::string, std::string>>;

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string prometheus_escape(const std::string& v);

/// An exposition under construction: add samples, then render. Families
/// (same metric name) keep one # HELP/# TYPE header across label sets.
class MetricsPage {
 public:
  void add_counter(const std::string& name, const std::string& help,
                   const Labels& labels, double value);
  void add_gauge(const std::string& name, const std::string& help,
                 const Labels& labels, double value);
  void add_histogram(const std::string& name, const std::string& help,
                     const Labels& labels, const Histogram::Snapshot& snap);

  /// Prometheus text exposition format (version 0.0.4).
  std::string prometheus() const;
  /// The same samples as a JSON document {"metrics": [...]}.
  std::string json() const;

 private:
  struct Sample {
    std::string name, help;
    enum Kind { kCounter, kGauge, kHistogram } kind;
    Labels labels;
    double value = 0;
    Histogram::Snapshot hist;
  };
  std::vector<Sample> samples_;
};

/// Named instrument registry. counter()/gauge()/histogram() get-or-create
/// by (name, labels); the same identity always returns the same
/// instrument (the help string and histogram bounds of the first call
/// win).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, const Labels& labels = {});

  /// Renders every registered instrument into `page` (appended after
  /// whatever the caller already added).
  void emit_to(MetricsPage& page) const;

  std::string prometheus_text() const;
  std::string json() const;

  /// The shared process-wide registry (graph compiles, wisdom, tuner, ...).
  static MetricsRegistry& global();

 private:
  struct Instrument {
    std::string name, help;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Instrument& find_or_add(const std::string& name, const std::string& help,
                          const Labels& labels);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Instrument>> instruments_;
};

}  // namespace ondwin::obs
