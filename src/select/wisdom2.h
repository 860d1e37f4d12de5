// Wisdom: the selection planner's persistent memory (paper §4.3.2's
// FFTW-style strategy, widened from blocking to the whole decision:
// algorithm + tile sizes + blocking per layer shape and precision). This
// is the only wisdom store and select_config its only writer; ConvPlan
// and auto_tune never open the file.
//
// One line-oriented file holds three kinds of line:
//
//   v2 line:  !v2 <shape_key> <algorithm> <mspec> <n_blk> <c_blk> <cp_blk>
//             [f_blk] [prec=<fp32|bf16|fp16>]
//   cal line: !cal 1 <stream_gbps> <llc_bytes> <gemm_gflops>
//   v1 line:  <problem_key> <n_blk> <c_blk> <cp_blk>   (legacy, read-only)
//
// <mspec> is "4x4" style per-dimension tile sizes for Winograd and "-" for
// the non-Winograd classes. The trailing prec= token records the storage
// precision the selection was *requested* under (absent = fp32, so fp32
// lines stay byte-identical to pre-precision builds); a record is keyed by
// (shape key, requested precision), so one file serves fp32 and reduced
// requests side by side.
//
// The "!cal" line (at most one) persists the machine calibration the
// bandwidth-aware cost model runs on (select/machine_profile.h), so the
// one-time microbenchmark is paid once per wisdom file, not once per
// process.
//
// v1 lines are the blocking-only records older builds' auto_tune wrote,
// keyed by wisdom_key(problem). They still load, survive every rewrite,
// and let select_config skip the blocking search for that tile on fp32
// requests (they record no precision) — but nothing writes them any more.
//
// Wisdom is a cache, never a correctness dependency: unreadable files
// behave as empty, unparsable lines are skipped, and select_config treats
// a record a plan would reject (ConvPlan::choose_blocking) as a miss.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "core/conv_plan.h"
#include "select/cost_model.h"
#include "select/machine_profile.h"

namespace ondwin {

/// Stable identity of a Winograd problem (shape and tile sizes): the key
/// of the legacy v1 lines.
std::string wisdom_key(const ConvProblem& p);

namespace select {

/// Stable identity of a layer shape for selection: everything the
/// decision depends on (batch included — it moves the crossover) except
/// the tile sizes, which are part of the *decision*, not the key.
std::string shape_key(const ConvShape& shape);

/// One persisted selection decision.
struct SelectionRecord {
  Algorithm algorithm = Algorithm::kWinograd;
  Dims tile_m;        // empty (rank 0) for non-Winograd algorithms
  Blocking blocking;  // zeros = heuristic (non-Winograd records)
  /// Storage precision the selection was requested under — part of the
  /// key, not the decision: timings measured under another precision are
  /// stale, so each precision keeps its own record. The *executed*
  /// precision is re-derived from the request and the tile's
  /// storage-error budget at lookup time, never persisted.
  Precision precision = Precision::kFp32;
};

class WisdomV2Store {
 public:
  explicit WisdomV2Store(std::string path);

  /// The selection recorded for `key` under requested `precision`.
  std::optional<SelectionRecord> lookup(
      const std::string& key, Precision precision = Precision::kFp32) const;

  /// Legacy v1 blocking by problem key (wisdom_key(problem)).
  std::optional<Blocking> lookup_v1(const std::string& problem_key) const;

  /// Inserts/overwrites the selection for (`key`, record.precision) and
  /// atomically rewrites the file, preserving every other record, v1
  /// line and the calibration. Returns false (without throwing) when the
  /// file cannot be written.
  bool store(const std::string& key, const SelectionRecord& record);

  /// The persisted machine calibration ("!cal" line), if any.
  std::optional<MachineProfile> calibration() const { return cal_; }

  /// Sets the calibration and atomically rewrites the file.
  bool store_calibration(const MachineProfile& profile);

  std::size_t size() const { return v2_.size(); }
  std::size_t v1_size() const { return v1_.size(); }
  const std::string& path() const { return path_; }

 private:
  void load();
  bool rewrite();

  std::string path_;
  std::map<std::pair<std::string, Precision>, SelectionRecord> v2_;
  std::map<std::string, Blocking> v1_;
  std::optional<MachineProfile> cal_;
};

}  // namespace select
}  // namespace ondwin
