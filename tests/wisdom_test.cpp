// Tests for the wisdom store (select/wisdom2.h): keys, the line format
// across generations (legacy v1 lines, 6/7-token !v2 lines, prec= and
// !cal lines), atomic rewrites under concurrent writers, and the tuner,
// which measures and persists nothing.
#include "select/wisdom2.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/tuner.h"

namespace ondwin {
namespace {

ConvProblem small_problem() {
  ConvProblem p;
  p.shape.batch = 1;
  p.shape.in_channels = 32;
  p.shape.out_channels = 32;
  p.shape.image = {10, 10};
  p.shape.kernel = {3, 3};
  p.shape.padding = {1, 1};
  p.tile_m = {2, 2};
  return p;
}

select::SelectionRecord winograd_record(const Blocking& blocking) {
  select::SelectionRecord r;
  r.algorithm = select::Algorithm::kWinograd;
  r.tile_m = {4, 4};
  r.blocking = blocking;
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class TempFile {
 public:
  TempFile() {
    char tmpl[] = "/tmp/ondwin_wisdom_XXXXXX";
    const int fd = mkstemp(tmpl);
    if (fd >= 0) close(fd);
    path_ = tmpl;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Wisdom, KeyIsStableAndShapeSensitive) {
  const ConvProblem p = small_problem();
  // Both keys are on disk in existing wisdom files: pinned byte for byte.
  EXPECT_EQ(wisdom_key(p), "r2_b1_c32_o32_i10x10_k3x3_m2x2_p1x1");
  EXPECT_EQ(select::shape_key(p.shape), "r2_b1_c32_o32_i10x10_k3x3_p1x1");
  ConvProblem q = p;
  q.tile_m = {4, 4};
  EXPECT_NE(wisdom_key(p), wisdom_key(q));
  ConvProblem r = p;
  r.shape.batch = 2;
  EXPECT_NE(wisdom_key(p), wisdom_key(r));
}

TEST(Wisdom, StoreAndLookupRoundTrip) {
  TempFile f;
  select::WisdomV2Store store(f.path());
  EXPECT_FALSE(store.lookup("k").has_value());
  EXPECT_TRUE(store.store("k", winograd_record({14, 32, 64})));

  select::WisdomV2Store reloaded(f.path());
  const auto hit = reloaded.lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->blocking.n_blk, 14);
  EXPECT_EQ(hit->blocking.c_blk, 32);
  EXPECT_EQ(hit->blocking.cp_blk, 64);
}

TEST(Wisdom, MissingFileActsEmpty) {
  select::WisdomV2Store store("/tmp/ondwin_nonexistent_wisdom_file_xyz");
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.v1_size(), 0u);
  EXPECT_FALSE(store.lookup("anything").has_value());
  EXPECT_FALSE(store.lookup_v1("anything").has_value());
}

TEST(Wisdom, CorruptLinesAreSkipped) {
  // Legacy v1 lines parse on shape alone; whether a plan can run the
  // blocking is decided at lookup time (see select_test's hostile-record
  // test), so only unparsable or non-positive lines are skipped here.
  TempFile f;
  {
    std::ofstream out(f.path());
    out << "valid_key 10 32 32\n";
    out << "garbage line without numbers\n";
    out << "zero_nblk 0 32 32\n";
    out << "short_line 5\n";            // missing fields
    out << "negative -3 32 32\n";
    out << "another_valid 6 16 16\n";
  }
  select::WisdomV2Store store(f.path());
  EXPECT_EQ(store.v1_size(), 2u);
  EXPECT_TRUE(store.lookup_v1("valid_key").has_value());
  EXPECT_TRUE(store.lookup_v1("another_valid").has_value());
  EXPECT_FALSE(store.lookup_v1("zero_nblk").has_value());
  EXPECT_FALSE(store.lookup_v1("negative").has_value());
}

TEST(Wisdom, ConcurrentStoresNeverTearTheFile) {
  // store() writes a temp file and rename()s it into place, so racing
  // writers may overwrite each other (last one wins) but a reader can
  // never observe a half-written file: every record it sees is whole.
  TempFile f;
  constexpr int kWriters = 8;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      select::WisdomV2Store store(f.path());
      EXPECT_TRUE(store.store(str_cat("key", t), winograd_record({6, 16, 16})));
    });
  }
  // A reader racing the writers sees either no file yet or whole lines.
  for (int i = 0; i < 50; ++i) {
    select::WisdomV2Store racing(f.path());
    for (int t = 0; t < kWriters; ++t) {
      const auto hit = racing.lookup(str_cat("key", t));
      if (hit.has_value()) {
        EXPECT_EQ(hit->blocking.cp_blk, 16);
      }
    }
  }
  for (auto& w : writers) w.join();

  select::WisdomV2Store reloaded(f.path());
  EXPECT_GE(reloaded.size(), 1u);  // at least the last writer's entry
  bool found_any = false;
  for (int t = 0; t < kWriters; ++t) {
    const auto hit = reloaded.lookup(str_cat("key", t));
    if (!hit.has_value()) continue;
    found_any = true;
    EXPECT_EQ(hit->tile_m, Dims({4, 4}));
    EXPECT_EQ(hit->blocking.n_blk, 6);
    EXPECT_EQ(hit->blocking.c_blk, 16);
    EXPECT_EQ(hit->blocking.cp_blk, 16);
  }
  EXPECT_TRUE(found_any);
}

TEST(Wisdom, UnwritablePathReturnsFalse) {
  select::WisdomV2Store store("/nonexistent_dir_xyz/wisdom");
  EXPECT_FALSE(store.store("k", winograd_record({10, 32, 32})));
  EXPECT_FALSE(store.store_calibration(select::MachineProfile{}));
}

// ------------------------------------------------------------- tuner ------

TEST(Tuner, CandidatesRespectConstraints) {
  const ConvProblem p = small_problem();
  const auto cands = tuning_candidates(p);
  ASSERT_FALSE(cands.empty());
  for (const auto& c : cands) {
    EXPECT_GE(c.n_blk, 1);
    EXPECT_LE(c.n_blk, 30);
    EXPECT_EQ(c.c_blk % 16, 0);
    EXPECT_EQ(32 % c.c_blk, 0);
    EXPECT_EQ(c.cp_blk % 16, 0);
    EXPECT_EQ(32 % c.cp_blk, 0);
    EXPECT_LE(static_cast<i64>(c.c_blk) * c.cp_blk, 128 * 128);
  }
}

TEST(Tuner, WideChannelCandidatesStayLegal) {
  // 1024 channels: blocks must divide the channel count, stay multiples
  // of 16, cap at 512, and keep the c×c' working-set product ≤ 128².
  ConvProblem p = small_problem();
  p.shape.in_channels = 1024;
  p.shape.out_channels = 1024;
  const auto cands = tuning_candidates(p);
  ASSERT_FALSE(cands.empty());
  for (const auto& c : cands) {
    EXPECT_EQ(c.c_blk % 16, 0);
    EXPECT_EQ(1024 % c.c_blk, 0);
    EXPECT_LE(c.c_blk, 512);
    EXPECT_EQ(c.cp_blk % 16, 0);
    EXPECT_EQ(1024 % c.cp_blk, 0);
    EXPECT_LE(c.cp_blk, 512);
    EXPECT_LE(static_cast<i64>(c.c_blk) * c.cp_blk, 128 * 128);
    EXPECT_GE(c.n_blk, 1);
    EXPECT_LE(c.n_blk, 30);
  }
}

TEST(Tuner, ZeroBudgetStopsAfterFirstCandidate) {
  // The budget is checked inside the repetition loop and between
  // candidates: an exhausted budget still yields a usable result (the
  // screening repetition of the first candidate), but nothing more.
  const ConvProblem p = small_problem();
  PlanOptions base;
  base.threads = 1;
  const TuneResult r = auto_tune(p, base, /*budget_seconds=*/0.0);
  EXPECT_EQ(r.all.size(), 1u);
  EXPECT_GT(r.best_seconds, 0.0);
}

TEST(Tuner, FindsABlockingAndWritesNothing) {
  // auto_tune only measures: its winner is a blocking every plan accepts,
  // it reaches a plan through PlanOptions, and a wisdom_path in the base
  // options is neither read nor written.
  TempFile f;
  const ConvProblem p = small_problem();
  PlanOptions base;
  base.threads = 1;
  base.wisdom_path = f.path();
  const TuneResult r = auto_tune(p, base, /*budget_seconds=*/2.0);
  EXPECT_GT(r.best_seconds, 0.0);
  EXPECT_FALSE(r.all.empty());
  // sorted ascending by time
  for (std::size_t i = 1; i < r.all.size(); ++i) {
    EXPECT_LE(r.all[i - 1].seconds, r.all[i].seconds);
  }
  EXPECT_TRUE(slurp(f.path()).empty());

  ASSERT_TRUE(
      ConvPlan::choose_blocking(p, r.best, Precision::kFp32).has_value());
  PlanOptions tuned;
  tuned.threads = 1;
  tuned.n_blk = r.best.n_blk;
  tuned.c_blk = r.best.c_blk;
  tuned.cp_blk = r.best.cp_blk;
  ConvPlan plan(p, tuned);
  EXPECT_EQ(plan.blocking().n_blk, r.best.n_blk);
  EXPECT_EQ(plan.blocking().c_blk, r.best.c_blk);
  EXPECT_EQ(plan.blocking().cp_blk, r.best.cp_blk);
}

TEST(Tuner, BlockingRuleIsTheOnePlansEnforce) {
  // ConvPlan::choose_blocking is the single legality rule: what it
  // rejects the constructor throws on, what it accepts a plan runs.
  const ConvProblem p = small_problem();  // C = C' = 32
  std::string why;
  EXPECT_FALSE(ConvPlan::choose_blocking(p, {6, 17, 16}, Precision::kFp32,
                                         &why).has_value());
  EXPECT_NE(why.find("c_blk (17)"), std::string::npos) << why;
  EXPECT_FALSE(
      ConvPlan::choose_blocking(p, {6, 16, 48}, Precision::kFp32).has_value());
  EXPECT_FALSE(
      ConvPlan::choose_blocking(p, {31, 16, 16}, Precision::kFp32).has_value());
  // fp16 clamps an explicit n_blk to its 29 accumulators instead.
  const auto fp16 = ConvPlan::choose_blocking(p, {30, 16, 16},
                                              Precision::kFp16);
  ASSERT_TRUE(fp16.has_value());
  EXPECT_EQ(fp16->n_blk, 29);
  // Zero fields take the heuristic.
  const auto heuristic = ConvPlan::choose_blocking(p, {}, Precision::kFp32);
  ASSERT_TRUE(heuristic.has_value());
  PlanOptions o;
  o.threads = 1;
  ConvPlan plan(p, o);
  EXPECT_EQ(plan.blocking().n_blk, heuristic->n_blk);
  EXPECT_EQ(plan.blocking().c_blk, heuristic->c_blk);
  EXPECT_EQ(plan.blocking().cp_blk, heuristic->cp_blk);

  o.c_blk = 17;
  EXPECT_THROW(ConvPlan(p, o), Error);
}

// --------------------------------------------------------- wisdom v2 -----

TEST(WisdomV2, RoundTripBothAlgorithmClasses) {
  TempFile f;
  {
    select::WisdomV2Store store(f.path());
    select::SelectionRecord wino;
    wino.algorithm = select::Algorithm::kWinograd;
    wino.tile_m = {4, 6};
    wino.blocking = {14, 32, 64};
    EXPECT_TRUE(store.store("shapeA", wino));

    select::SelectionRecord fft;
    fft.algorithm = select::Algorithm::kFft;  // rank-0 tile_m, zero blocking
    EXPECT_TRUE(store.store("shapeB", fft));
  }
  select::WisdomV2Store reloaded(f.path());
  EXPECT_EQ(reloaded.size(), 2u);
  const auto a = reloaded.lookup("shapeA");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->algorithm, select::Algorithm::kWinograd);
  EXPECT_EQ(a->tile_m, Dims({4, 6}));
  EXPECT_EQ(a->blocking.n_blk, 14);
  EXPECT_EQ(a->blocking.c_blk, 32);
  EXPECT_EQ(a->blocking.cp_blk, 64);
  const auto b = reloaded.lookup("shapeB");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->algorithm, select::Algorithm::kFft);
  EXPECT_EQ(b->tile_m.rank(), 0);
}

TEST(WisdomV2, FusedBlockFieldRoundTripsAndCoexistsWithOlderLines) {
  TempFile f;
  {
    // Mixed-generation file, as left behind by older builds: a v1 blocking
    // line, a six-token v2 line (pre-fusion format), and a blank line.
    std::ofstream out(f.path());
    out << "legacy_key 7 16 32\n";
    out << "!v2 old_sel winograd 4x4 14 32 64\n";
    out << "\n";
  }
  {
    select::WisdomV2Store store(f.path());
    // Pre-fusion v2 lines parse with f_blk = 0 (heuristic).
    const auto old_sel = store.lookup("old_sel");
    ASSERT_TRUE(old_sel.has_value());
    EXPECT_EQ(old_sel->blocking.f_blk, 0);

    // A new record carrying a tuned fused block size.
    select::SelectionRecord rec;
    rec.algorithm = select::Algorithm::kWinograd;
    rec.tile_m = {4, 4};
    rec.blocking = {14, 32, 64, 6};
    EXPECT_TRUE(store.store("new_sel", rec));
  }
  // Reload: the f_blk field round-trips, the pre-fusion v2 line and the
  // v1 line both survive the rewrite unchanged.
  select::WisdomV2Store reloaded(f.path());
  const auto new_sel = reloaded.lookup("new_sel");
  ASSERT_TRUE(new_sel.has_value());
  EXPECT_EQ(new_sel->blocking.n_blk, 14);
  EXPECT_EQ(new_sel->blocking.f_blk, 6);
  const auto old_sel = reloaded.lookup("old_sel");
  ASSERT_TRUE(old_sel.has_value());
  EXPECT_EQ(old_sel->blocking.f_blk, 0);
  const auto v1_hit = reloaded.lookup_v1("legacy_key");
  ASSERT_TRUE(v1_hit.has_value());
  EXPECT_EQ(v1_hit->n_blk, 7);
  // The legacy line is written back byte-identical.
  EXPECT_NE(slurp(f.path()).find("legacy_key 7 16 32\n"), std::string::npos);
}

TEST(WisdomV2, NegativeFusedBlockIsSkipped) {
  TempFile f;
  {
    std::ofstream out(f.path());
    out << "!v2 bad_fblk winograd 4x4 6 32 32 -3\n";
    out << "!v2 good winograd 4x4 6 32 32 2\n";
  }
  select::WisdomV2Store store(f.path());
  EXPECT_FALSE(store.lookup("bad_fblk").has_value());
  const auto good = store.lookup("good");
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->blocking.f_blk, 2);
}

TEST(WisdomV2, ReadsLegacyV1LinesTransparently) {
  TempFile f;
  {
    std::ofstream out(f.path());
    out << "legacy_key 7 16 32\n";  // as older builds' auto_tune wrote it
  }
  select::WisdomV2Store store(f.path());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.v1_size(), 1u);
  const auto hit = store.lookup_v1("legacy_key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->n_blk, 7);
  EXPECT_EQ(hit->c_blk, 16);
  EXPECT_EQ(hit->cp_blk, 32);
  EXPECT_FALSE(store.lookup("legacy_key").has_value());
}

TEST(WisdomV2, MalformedLinesAreSkipped) {
  TempFile f;
  {
    std::ofstream out(f.path());
    out << "!v2 good winograd 4x4 6 32 32\n";
    out << "!v2 bad_algo warp 4x4 6 32 32\n";
    out << "!v2 bad_mspec winograd 4xq 6 32 32\n";
    out << "!v2 short winograd 4x4 6\n";
    out << "!v2 bad_blocking winograd 4x4 0 32 32\n";
    out << "!v2\n";
    out << "legacy 6 16 16\n";
  }
  select::WisdomV2Store store(f.path());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.v1_size(), 1u);
  EXPECT_TRUE(store.lookup("good").has_value());
  EXPECT_FALSE(store.lookup("bad_algo").has_value());
  EXPECT_FALSE(store.lookup("bad_mspec").has_value());
  EXPECT_FALSE(store.lookup("short").has_value());
  EXPECT_FALSE(store.lookup("bad_blocking").has_value());
}

TEST(WisdomV2, LegacyFileLoadsAndRoundTrips) {
  // A file as older builds left it: a calibration line, v1 blocking lines
  // (auto_tune wrote one per measured tile), a six-token !v2 line from
  // before fusion, a seven-token one, and a reduced-precision one.
  const std::string fixture =
      "!cal 1 12.5 3.3554e+07 95.25\n"
      "r2_b1_c32_o32_i10x10_k3x3_m2x2_p1x1 6 16 32\n"
      "r2_b1_c32_o32_i10x10_k3x3_m4x4_p1x1 14 32 32\n"
      "!v2 six_tok winograd 4x4 14 32 64\n"
      "!v2 seven_tok winograd 2x2 6 16 16 2\n"
      "!v2 seven_tok winograd 4x4 22 16 16 0 prec=bf16\n"
      "!v2 fft_tok fft - 0 0 0 0\n";
  TempFile f;
  {
    std::ofstream out(f.path());
    out << fixture;
  }
  const auto check = [](const select::WisdomV2Store& store,
                         std::size_t records) {
    ASSERT_TRUE(store.calibration().has_value());
    EXPECT_DOUBLE_EQ(store.calibration()->stream_gbps, 12.5);
    EXPECT_DOUBLE_EQ(store.calibration()->gemm_gflops, 95.25);
    EXPECT_EQ(store.v1_size(), 2u);
    const auto v1 = store.lookup_v1("r2_b1_c32_o32_i10x10_k3x3_m2x2_p1x1");
    ASSERT_TRUE(v1.has_value());
    EXPECT_EQ(v1->n_blk, 6);
    EXPECT_EQ(v1->cp_blk, 32);
    EXPECT_EQ(store.size(), records);
    const auto six = store.lookup("six_tok");
    ASSERT_TRUE(six.has_value());
    EXPECT_EQ(six->blocking.cp_blk, 64);
    EXPECT_EQ(six->blocking.f_blk, 0);
    const auto seven = store.lookup("seven_tok");
    ASSERT_TRUE(seven.has_value());
    EXPECT_EQ(seven->tile_m, Dims({2, 2}));
    EXPECT_EQ(seven->blocking.f_blk, 2);
    // Same shape key, other precision: a record of its own.
    const auto bf16 = store.lookup("seven_tok", Precision::kBf16);
    ASSERT_TRUE(bf16.has_value());
    EXPECT_EQ(bf16->tile_m, Dims({4, 4}));
    EXPECT_EQ(bf16->blocking.n_blk, 22);
    EXPECT_FALSE(store.lookup("six_tok", Precision::kBf16).has_value());
    const auto fft = store.lookup("fft_tok");
    ASSERT_TRUE(fft.has_value());
    EXPECT_EQ(fft->algorithm, select::Algorithm::kFft);
  };
  {
    select::WisdomV2Store store(f.path());
    check(store, 4);
    // Rewrite through a new record and through the calibration.
    ASSERT_TRUE(store.store("fresh", winograd_record({6, 16, 16})));
    ASSERT_TRUE(store.store_calibration(*store.calibration()));
  }
  select::WisdomV2Store reloaded(f.path());
  check(reloaded, 5);  // the fixture's four plus "fresh"
  EXPECT_TRUE(reloaded.lookup("fresh").has_value());
  // Every fixture line survives the rewrite verbatim, except that the
  // six-token line gains its explicit f_blk of 0.
  const std::string text = slurp(f.path());
  std::istringstream lines(fixture);
  std::string line;
  while (std::getline(lines, line)) {
    if (line == "!v2 six_tok winograd 4x4 14 32 64") line += " 0";
    EXPECT_NE(text.find(line + "\n"), std::string::npos) << line;
  }
}

TEST(WisdomV2, RecordsAreKeyedByRequestedPrecision) {
  // One shape, two precisions: storing the second keeps the first.
  TempFile f;
  {
    select::WisdomV2Store store(f.path());
    select::SelectionRecord bf16 = winograd_record({14, 16, 16});
    bf16.precision = Precision::kBf16;
    ASSERT_TRUE(store.store("shape", bf16));
    ASSERT_TRUE(store.store("shape", winograd_record({6, 32, 32})));
  }
  select::WisdomV2Store reloaded(f.path());
  EXPECT_EQ(reloaded.size(), 2u);
  ASSERT_TRUE(reloaded.lookup("shape").has_value());
  EXPECT_EQ(reloaded.lookup("shape")->blocking.n_blk, 6);
  ASSERT_TRUE(reloaded.lookup("shape", Precision::kBf16).has_value());
  EXPECT_EQ(reloaded.lookup("shape", Precision::kBf16)->blocking.n_blk, 14);
  EXPECT_FALSE(reloaded.lookup("shape", Precision::kFp16).has_value());
}

TEST(WisdomV2, UnreadablePathActsEmptyAndUnwritableReturnsFalse) {
  select::WisdomV2Store missing("/tmp/ondwin_nonexistent_wisdom2_xyz");
  EXPECT_EQ(missing.size(), 0u);
  EXPECT_FALSE(missing.lookup("anything").has_value());

  select::WisdomV2Store unwritable("/nonexistent_dir_xyz/wisdom");
  EXPECT_FALSE(unwritable.store("k", {}));
}

}  // namespace
}  // namespace ondwin
