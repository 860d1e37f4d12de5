#include "select/wisdom2.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "obs/metrics.h"

namespace ondwin {
namespace {

// "r<rank>_b<batch>_c<C>_o<C'>_i<image>_k<kernel>[_m<tile>]_p<padding>",
// extents joined by 'x'. Both keys are on disk: the format is frozen.
std::string layer_key(const ConvShape& shape, const Dims* tile_m) {
  const auto dims = [&](std::ostringstream& os, const char* tag,
                        const Dims& v) {
    os << tag;
    for (int d = 0; d < shape.image.rank(); ++d) {
      os << (d ? "x" : "") << v[d];
    }
  };
  std::ostringstream os;
  os << "r" << shape.image.rank() << "_b" << shape.batch << "_c"
     << shape.in_channels << "_o" << shape.out_channels;
  dims(os, "_i", shape.image);
  dims(os, "_k", shape.kernel);
  if (tile_m != nullptr) dims(os, "_m", *tile_m);
  dims(os, "_p", shape.padding);
  return os.str();
}

}  // namespace

std::string wisdom_key(const ConvProblem& p) {
  return layer_key(p.shape, &p.tile_m);
}

namespace select {
namespace {

constexpr const char* kV2Tag = "!v2";
constexpr const char* kCalTag = "!cal";
constexpr int kCalVersion = 1;

std::string mspec(const Dims& tile_m) {
  if (tile_m.rank() == 0) return "-";
  std::ostringstream os;
  for (int d = 0; d < tile_m.rank(); ++d) os << (d ? "x" : "") << tile_m[d];
  return os.str();
}

bool parse_mspec(const std::string& s, Dims* out) {
  if (s == "-") {
    *out = Dims{};
    return true;
  }
  std::vector<i64> vals;
  std::istringstream is(s);
  std::string part;
  while (std::getline(is, part, 'x')) {
    try {
      const i64 v = std::stoll(part);
      if (v < 1 || v > 16) return false;
      vals.push_back(v);
    } catch (...) {
      return false;
    }
  }
  if (vals.empty() || vals.size() > static_cast<std::size_t>(kMaxNd)) {
    return false;
  }
  Dims d;
  for (i64 v : vals) d.push_back(v);
  *out = d;
  return true;
}

// Parse-level sanity only: the fields a tuner could have written. Whether
// a plan can run the blocking is ConvPlan::choose_blocking's call, made
// at lookup time (a failing record is a miss there, and is overwritten).
bool positive_blocking(int n, int c, int cp) {
  return n > 0 && c > 0 && cp > 0;
}

}  // namespace

std::string shape_key(const ConvShape& shape) {
  return layer_key(shape, nullptr);
}

WisdomV2Store::WisdomV2Store(std::string path) : path_(std::move(path)) {
  load();
}

void WisdomV2Store::load() {
  std::ifstream in(path_);
  if (!in) return;
  static obs::Counter& loads = obs::MetricsRegistry::global().counter(
      "ondwin_wisdom_v2_loads_total",
      "Wisdom v2 (selection) files opened and parsed");
  loads.inc();
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string first;
    if (!(ls >> first)) continue;  // blank: skip
    if (first == kV2Tag) {
      std::string key, algo_s, m_s;
      int n = 0, c = 0, cp = 0;
      if (!(ls >> key >> algo_s >> m_s >> n >> c >> cp)) continue;
      // Optional 7th token: the fused-execution block size. Lines written
      // by builds that predate fusion have six tokens; they parse with
      // f_blk = 0 (heuristic), so old wisdom files keep working verbatim.
      int f = 0;
      if (ls >> f) {
        if (f < 0) continue;  // malformed: negative block size
      }
      // Optional trailing token: the requested storage precision
      // ("prec=bf16"). Absent = fp32. ls may sit in a fail state when the
      // f_blk extraction above consumed nothing — clear before retrying
      // so "prec=" directly after six tokens still parses.
      ls.clear();
      Precision prec = Precision::kFp32;
      std::string tok;
      if (ls >> tok) {
        constexpr const char* kPrecTag = "prec=";
        if (tok.rfind(kPrecTag, 0) != 0 ||
            !parse_precision(tok.substr(5), &prec)) {
          continue;  // malformed: unknown trailing token
        }
      }
      SelectionRecord rec;
      rec.precision = prec;
      if (!parse_algorithm(algo_s, &rec.algorithm)) continue;
      if (!parse_mspec(m_s, &rec.tile_m)) continue;
      if (rec.algorithm == Algorithm::kWinograd) {
        if (rec.tile_m.rank() == 0) continue;  // Winograd needs tiles
        if (!positive_blocking(n, c, cp)) continue;
      }
      rec.blocking = {n, c, cp, f};
      v2_[{key, prec}] = rec;
      continue;
    }
    if (first == kCalTag) {
      // !cal <version> <stream_gbps> <llc_bytes> <gemm_gflops> — a future
      // version or implausible numbers just mean "re-measure".
      int ver = 0;
      double bw = 0, llc = 0, gf = 0;
      if ((ls >> ver >> bw >> llc >> gf) && ver == kCalVersion && bw > 0 &&
          llc > 0 && gf > 0) {
        MachineProfile p;
        p.stream_gbps = bw;
        p.llc_bytes = llc;
        p.gemm_gflops = gf;
        p.measured = true;
        cal_ = p;
      }
      continue;
    }
    // Legacy v1 line: <problem_key> <n> <c> <cp>.
    int n = 0, c = 0, cp = 0;
    if (!(ls >> n >> c >> cp)) continue;  // malformed: skip
    if (!positive_blocking(n, c, cp)) continue;
    v1_[first] = {n, c, cp};
  }
}

std::optional<SelectionRecord> WisdomV2Store::lookup(
    const std::string& key, Precision precision) const {
  const auto it = v2_.find({key, precision});
  if (it == v2_.end()) return std::nullopt;
  return it->second;
}

std::optional<Blocking> WisdomV2Store::lookup_v1(
    const std::string& problem_key) const {
  const auto it = v1_.find(problem_key);
  if (it == v1_.end()) return std::nullopt;
  return it->second;
}

bool WisdomV2Store::store(const std::string& key,
                          const SelectionRecord& record) {
  v2_[{key, record.precision}] = record;
  return rewrite();
}

bool WisdomV2Store::store_calibration(const MachineProfile& profile) {
  cal_ = profile;
  return rewrite();
}

bool WisdomV2Store::rewrite() {
  // Write-then-rename so concurrent readers never see a half-written file.
  // The temp file lives next to the target so rename() stays atomic.
  // Legacy v1 entries and the calibration line are rewritten alongside
  // the v2 ones.
  static std::atomic<u64> serial{0};
  u64 uniq = serial.fetch_add(1);
#if defined(__linux__)
  uniq = uniq * 1000003 + static_cast<u64>(::getpid());
#endif
  const std::string tmp = path_ + ".tmp." + std::to_string(uniq);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    if (cal_) {
      out.precision(6);
      out << kCalTag << " " << kCalVersion << " " << cal_->stream_gbps << " "
          << cal_->llc_bytes << " " << cal_->gemm_gflops << "\n";
    }
    for (const auto& [k, b] : v1_) {
      out << k << " " << b.n_blk << " " << b.c_blk << " " << b.cp_blk
          << "\n";
    }
    for (const auto& [k, r] : v2_) {
      out << kV2Tag << " " << k.first << " " << algorithm_name(r.algorithm)
          << " " << mspec(r.tile_m) << " " << r.blocking.n_blk << " "
          << r.blocking.c_blk << " " << r.blocking.cp_blk << " "
          << r.blocking.f_blk;
      // fp32 lines stay byte-identical to pre-precision builds; older
      // readers ignore trailing tokens, so a reduced line degrades to
      // its blocking for them (a perf-only, never correctness, hazard).
      if (r.precision != Precision::kFp32) {
        out << " prec=" << precision_name(r.precision);
      }
      out << "\n";
    }
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace select
}  // namespace ondwin
