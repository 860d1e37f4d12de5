// Schema-2 bench report: the schema-1 document of bench/report.h (bench,
// schema, precision, rows — same fields, same meaning) plus a run
// envelope and summarized metrics:
//
//   {"bench": "e2e", "schema": 2, "precision": "fp32",
//    "host": {"cpu_model": ..., "nproc": 4, "isa": ..., "l2_bytes": ...,
//             "llc_bytes": ...},
//    "git_sha": ..., "seed": 1, "workload": "vgg2d_offline",
//    "repetitions": 212,
//    "calibration": {"stream_gbps": ..., "llc_bytes": ...,
//                    "gemm_gflops": ...},
//    "metrics": {"<name>": {"unit": "ms", "median": ..., "q1": ...,
//                           "q3": ..., "n": 212}},
//    "rows": [...]}
//
// metric(name, unit, samples) stores the median and quartiles of the
// samples, so a consumer sees the spread of a run, not one best time.
// Schema-1 benches keep writing schema 1 through bench/report.h.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "report.h"

namespace ondwin::bench {

/// Linear-interpolation quantile (Hyndman–Fan type 7) of `v`, q in [0, 1].
/// Empty input yields 0.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// A JSON number with every significant digit; null when not finite.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct HostFingerprint {
  std::string cpu_model;
  int nproc = 0;
  std::string isa;
  long l2_bytes = 0;
  long llc_bytes = 0;
};

/// The MachineProfile values the wisdom file's "!cal" line persists.
struct Calibration {
  double stream_gbps = 0;
  double llc_bytes = 0;
  double gemm_gflops = 0;
};

class BenchReportV2 {
 public:
  explicit BenchReportV2(std::string name) : name_(std::move(name)) {}

  BenchReportV2& set_host(const HostFingerprint& h) {
    host_ = h;
    return *this;
  }
  BenchReportV2& set_run(const std::string& git_sha, unsigned long long seed,
                         const std::string& workload, long repetitions) {
    git_sha_ = git_sha;
    seed_ = seed;
    workload_ = workload;
    repetitions_ = repetitions;
    return *this;
  }
  BenchReportV2& set_calibration(const Calibration& c) {
    cal_ = c;
    return *this;
  }

  /// Summarizes `samples` as median, q1, q3 and n.
  BenchReportV2& metric(const std::string& name, const std::string& unit,
                        const std::vector<double>& samples) {
    metrics_.push_back({name, unit, quantile(samples, 0.5),
                        quantile(samples, 0.25), quantile(samples, 0.75),
                        samples.size()});
    return *this;
  }

  /// Appends an empty schema-1 row; the reference stays valid until the
  /// next row() call.
  BenchReport::Row& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  std::string json() const {
    // Storage is fp32 throughout: run.py clears ONDWIN_PREC for the run.
    std::string out = "{\"bench\":" + quoted(name_) +
                      ",\"schema\":2,\"precision\":\"fp32\"";
    out += ",\"host\":{\"cpu_model\":" + quoted(host_.cpu_model) +
           ",\"nproc\":" + std::to_string(host_.nproc) +
           ",\"isa\":" + quoted(host_.isa) +
           ",\"l2_bytes\":" + std::to_string(host_.l2_bytes) +
           ",\"llc_bytes\":" + std::to_string(host_.llc_bytes) + "}";
    out += ",\"git_sha\":" + quoted(git_sha_) +
           ",\"seed\":" + std::to_string(seed_) +
           ",\"workload\":" + quoted(workload_) +
           ",\"repetitions\":" + std::to_string(repetitions_);
    out += ",\"calibration\":{\"stream_gbps\":" + json_number(cal_.stream_gbps) +
           ",\"llc_bytes\":" + json_number(cal_.llc_bytes) +
           ",\"gemm_gflops\":" + json_number(cal_.gemm_gflops) + "}";
    out += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Summary& m = metrics_[i];
      if (i) out += ",";
      out += quoted(m.name) + ":{\"unit\":" + quoted(m.unit) +
             ",\"median\":" + json_number(m.median) +
             ",\"q1\":" + json_number(m.q1) + ",\"q3\":" + json_number(m.q3) +
             ",\"n\":" + std::to_string(m.n) + "}";
    }
    out += "},\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i) out += ",";
      out += rows_[i].json();
    }
    return out + "]}";
  }

  bool write_json(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << json() << "\n";
    out.flush();
    return static_cast<bool>(out);
  }

 private:
  struct Summary {
    std::string name;
    std::string unit;
    double median, q1, q3;
    std::size_t n;
  };

  static std::string quoted(const std::string& s) {
    return "\"" + json_escape(s) + "\"";
  }

  std::string name_;
  std::vector<BenchReport::Row> rows_;
  HostFingerprint host_;
  std::string git_sha_ = "unknown";
  unsigned long long seed_ = 0;
  std::string workload_;
  long repetitions_ = 0;
  Calibration cal_;
  std::vector<Summary> metrics_;
};

}  // namespace ondwin::bench
