// Unit tests for src/util: RNG, bit and lane-word helpers, statistics,
// tables, parallel_for and contract macros.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/lanes.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"

namespace vosim {
namespace {

// ---------------------------------------------------------------- contracts
TEST(Contracts, ExpectsThrowsOnViolation) {
  EXPECT_THROW(VOSIM_EXPECTS(1 == 2), ContractViolation);
  EXPECT_NO_THROW(VOSIM_EXPECTS(1 == 1));
}

TEST(Contracts, MessageNamesLocation) {
  try {
    VOSIM_EXPECTS(false);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"), std::string::npos);
  }
}

// ---------------------------------------------------------------------- rng
TEST(Rng, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 2000; ++i) EXPECT_LT(r.below(13), 13u);
  EXPECT_THROW(r.below(0), ContractViolation);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng r(17);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, BitsMasksWidth) {
  Rng r(9);
  for (int w : {0, 1, 8, 16, 33, 64}) {
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t v = r.bits(w);
      if (w < 64) {
        EXPECT_EQ(v >> w, 0u) << "width " << w;
      }
    }
  }
  EXPECT_THROW(r.bits(65), ContractViolation);
  EXPECT_THROW(r.bits(-1), ContractViolation);
}

TEST(Rng, FlipProbability) {
  Rng r(21);
  int heads = 0;
  for (int i = 0; i < 20000; ++i)
    if (r.flip(0.3)) ++heads;
  EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
  EXPECT_FALSE(Rng(1).flip(0.0));
}

// --------------------------------------------------------------------- bits
TEST(Bits, MaskN) {
  EXPECT_EQ(mask_n(0), 0u);
  EXPECT_EQ(mask_n(1), 1u);
  EXPECT_EQ(mask_n(8), 0xFFu);
  EXPECT_EQ(mask_n(63), 0x7FFFFFFFFFFFFFFFull);
  EXPECT_EQ(mask_n(64), ~0ull);
}

TEST(Bits, BitOf) {
  EXPECT_EQ(bit_of(0b1010, 1), 1);
  EXPECT_EQ(bit_of(0b1010, 0), 0);
}

TEST(Bits, HammingDistanceRespectsWidth) {
  EXPECT_EQ(hamming_distance(0xFF, 0x00, 8), 8);
  EXPECT_EQ(hamming_distance(0xFF, 0x00, 4), 4);
  EXPECT_EQ(hamming_distance(0b101, 0b100, 3), 1);
  EXPECT_EQ(hamming_distance(~0ull, 0, 64), 64);
}

TEST(Bits, ExactAddMatchesArithmetic) {
  EXPECT_EQ(exact_add(200, 100, 8), 300u);       // carry-out present
  EXPECT_EQ(exact_add(0xFF, 0xFF, 8), 0x1FEu);
  EXPECT_EQ(exact_add(5, 6, 8, true), 12u);
  EXPECT_THROW(exact_add(0x100, 0, 8), ContractViolation);
  EXPECT_THROW(exact_add(0, 0, 0), ContractViolation);
}

// ---------------------------------------------------------------- lanes
// The lane-word helpers against a per-lane reference: lane k is bit k
// of the uint64_t.
TEST(Lanes, HelpersMatchPerLaneReference) {
  constexpr std::size_t n = lanes::kWordLanes;
  Rng rng(12345);
  const lanes::Word a = rng.bits(64);

  int pop = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto want = static_cast<std::uint8_t>((a >> k) & 1u);
    ASSERT_EQ(want, lanes::lane_bit(a, k)) << k;
    pop += want;
  }
  EXPECT_EQ(pop, lanes::popcount(a));

  // bit / mask shapes.
  for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                              std::size_t{62}, std::size_t{63}}) {
    const lanes::Word one = lanes::bit(k);
    EXPECT_EQ(1, lanes::popcount(one)) << k;
    EXPECT_EQ(1, lanes::lane_bit(one, k)) << k;
  }
  for (const std::size_t c : {std::size_t{0}, std::size_t{1},
                              std::size_t{63}, std::size_t{64}}) {
    const lanes::Word lo = lanes::mask(c);
    EXPECT_EQ(static_cast<int>(c), lanes::popcount(lo)) << c;
    for (std::size_t k = 0; k < n; ++k)
      ASSERT_EQ(k < c ? 1 : 0, lanes::lane_bit(lo, k)) << c << " " << k;
  }

  // shift1_in is the streaming stale recurrence: out(k) = in(k-1),
  // out(0) = low.
  for (const std::uint8_t low : {std::uint8_t{0}, std::uint8_t{1}}) {
    const lanes::Word sh = lanes::shift1_in(a, low);
    ASSERT_EQ(low, lanes::lane_bit(sh, 0));
    for (std::size_t k = 1; k < n; ++k)
      ASSERT_EQ(lanes::lane_bit(a, k - 1), lanes::lane_bit(sh, k)) << k;
  }

  // toggle/set/assign touch exactly one lane.
  lanes::Word t = a;
  lanes::toggle_lane(t, 63);
  lanes::toggle_lane(t, 5);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint8_t flip = (k == 63 || k == 5) ? 1 : 0;
    ASSERT_EQ(lanes::lane_bit(a, k) ^ flip, lanes::lane_bit(t, k)) << k;
  }
  lanes::Word st = a;
  lanes::set_lane(st, 60);
  lanes::assign_lane(st, 61, false);
  lanes::assign_lane(st, 62, true);
  for (std::size_t k = 0; k < n; ++k) {
    std::uint8_t want = lanes::lane_bit(a, k);
    if (k == 60 || k == 62) want = 1;
    if (k == 61) want = 0;
    ASSERT_EQ(want, lanes::lane_bit(st, k)) << k;
  }

  // for_each_lane visits exactly the set lanes, in ascending order (the
  // cycle-batch path depends on it).
  std::vector<std::size_t> seen;
  lanes::for_each_lane(a, [&](std::size_t k) { seen.push_back(k); });
  ASSERT_EQ(static_cast<std::size_t>(lanes::popcount(a)), seen.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(1, lanes::lane_bit(a, seen[i]));
    if (i > 0) {
      ASSERT_LT(seen[i - 1], seen[i]);
    }
  }
  EXPECT_TRUE(lanes::any(a));
  EXPECT_FALSE(lanes::any(lanes::Word{0}));

  // unpack_lane: lane k of every word as one byte per word; the output
  // is resized from whatever it held.
  const std::vector<lanes::Word> words = {a, ~a, 0, ~lanes::Word{0}};
  std::vector<std::uint8_t> bytes(7, 9);
  for (std::size_t k = 0; k < n; ++k) {
    lanes::unpack_lane(words, k, bytes);
    ASSERT_EQ(bytes.size(), words.size());
    for (std::size_t i = 0; i < words.size(); ++i)
      ASSERT_EQ(bytes[i], lanes::lane_bit(words[i], k)) << k << " " << i;
  }
}

// The transposition pair against per-bit loops: every lane count the
// simulators issue (1, 2, 63, 64), every operand width 1..63 with
// seeded random and all-ones words, slot maps that permute positions
// and skip some, and operation words read and written with a stride.
TEST(Lanes, ScatterAndGatherMatchPerBitLoops) {
  Rng rng(91);
  constexpr std::size_t stride = 3;  // op k's word at [k * stride + 1]
  for (const std::size_t count : {1u, 2u, 63u, 64u}) {
    for (int width = 1; width <= 63; ++width) {
      const auto w = static_cast<std::size_t>(width);
      // `width` distinct positions out of 2·width + 3, shuffled: a
      // permutation that skips some positions.
      const std::size_t nwords = 2 * w + 3;
      std::vector<std::size_t> slots(nwords);
      for (std::size_t i = 0; i < nwords; ++i) slots[i] = i;
      for (std::size_t i = nwords; i > 1; --i)
        std::swap(slots[i - 1], slots[rng.below(i)]);
      slots.resize(w);
      for (const bool all_ones : {false, true}) {
        std::vector<std::uint64_t> ops(count * stride, 0xDEAD);
        for (std::size_t k = 0; k < count; ++k)
          ops[k * stride + 1] = all_ones ? mask_n(width) : rng.bits(width);

        // scatter: lane k of word slots[i] is bit i of op k; it only
        // ORs bits in, so preset words keep theirs.
        std::vector<lanes::Word> preset(nwords);
        for (lanes::Word& x : preset) x = rng();
        std::vector<lanes::Word> got = preset;
        lanes::scatter(ops.data() + 1, stride, count, slots, got.data());
        std::vector<lanes::Word> want = preset;
        for (std::size_t k = 0; k < count; ++k)
          for (std::size_t i = 0; i < w; ++i)
            if ((ops[k * stride + 1] >> i) & 1u)
              want[slots[i]] |= lanes::Word{1} << k;
        ASSERT_EQ(got, want) << count << " lanes, width " << width;

        // Bits at or above the slot count are ignored.
        std::vector<lanes::Word> clean(nwords, 0);
        std::vector<lanes::Word> noisy(nwords, 0);
        lanes::scatter(ops.data() + 1, stride, count, slots, clean.data());
        std::vector<std::uint64_t> high = ops;
        for (std::size_t k = 0; k < count; ++k)
          high[k * stride + 1] |= ~mask_n(width) & rng();
        lanes::scatter(high.data() + 1, stride, count, slots, noisy.data());
        ASSERT_EQ(noisy, clean) << count << " lanes, width " << width;

        // gather: op k's bit i is lane k of word slots[i]; entries
        // outside the stride and lanes >= count are not touched.
        std::vector<lanes::Word> words(nwords);
        for (lanes::Word& x : words) x = rng();
        std::vector<std::uint64_t> out(count * stride, 0xBEEF);
        lanes::gather(words.data(), slots, count, out.data() + 1, stride);
        for (std::size_t k = 0; k < count; ++k) {
          std::uint64_t ref = 0;
          for (std::size_t i = 0; i < w; ++i)
            ref |= ((words[slots[i]] >> k) & 1u) << i;
          ASSERT_EQ(out[k * stride + 1], ref) << count << " " << width;
          ASSERT_EQ(out[k * stride], 0xBEEFu);
          ASSERT_EQ(out[k * stride + 2], 0xBEEFu);
        }

        // gather(scatter(x)) == x.
        std::vector<std::uint64_t> back(count * stride, 0xDEAD);
        lanes::gather(clean.data(), slots, count, back.data() + 1, stride);
        ASSERT_EQ(back, ops) << count << " lanes, width " << width;
      }
    }
  }
}

// -------------------------------------------------------------------- stats
TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  Rng r(33);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform() * 10.0;
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Quantile, InterpolatesOrderStatistics) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_THROW(quantile({}, 0.5), ContractViolation);
}

TEST(HistogramTest, ClampsAndCounts) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps into bucket 0
  h.add(0.5);
  h.add(9.9);
  h.add(42.0);   // clamps into last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.center(0), 1.0);
}

TEST(HistogramTest, QuantilesWithOneSortMatchSingleCalls) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  const auto qs = quantiles(v, {0.0, 0.25, 0.5, 0.75, 1.0});
  ASSERT_EQ(qs.size(), 5u);
  for (std::size_t i = 0; i < qs.size(); ++i)
    EXPECT_DOUBLE_EQ(qs[i], quantile(v, 0.25 * static_cast<double>(i)));
  EXPECT_THROW(quantiles({}, {0.5}), ContractViolation);
  EXPECT_THROW(quantiles(v, {1.5}), ContractViolation);
}

TEST(HistogramTest, MergeAddsBucketCounts) {
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 5);
  a.add(0.5);
  a.add(9.9);
  b.add(0.5);
  b.add(4.5);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_EQ(a.count(2), 1u);
  EXPECT_EQ(a.count(4), 1u);
  // Shape mismatches (range or bucket count) are contract violations.
  Histogram narrow(0.0, 5.0, 5);
  EXPECT_THROW(a.merge(narrow), ContractViolation);
  Histogram coarse(0.0, 10.0, 4);
  EXPECT_THROW(a.merge(coarse), ContractViolation);
}

TEST(HistogramTest, BucketQuantileInterpolates) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty -> lo()
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i) + 0.5);
  // Uniform fill: the q-th quantile walks q of the way up the range.
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
  EXPECT_NEAR(h.quantile(0.1), 1.0, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 10.0, 1.0);
  EXPECT_THROW(h.quantile(-0.1), ContractViolation);
}

TEST(HistogramTest, QuantileSingleSampleSpansItsBucket) {
  // One sample lands in bucket 3 ([3,4)): every quantile interpolates
  // within that bucket — q=0 its left edge, q=1 its right edge — and
  // never escapes to lo()/hi().
  Histogram h(0.0, 10.0, 10);
  h.add(3.7);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(HistogramTest, QuantileAllMassInOneBucketInterpolatesInside) {
  // 50 identical samples in bucket 2 ([20,30)): bucket resolution
  // means every quantile is a linear walk across that one bucket —
  // the estimate degrades to bucket width, not to lo()/hi().
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 50; ++i) h.add(25.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 25.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 29.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);
}

TEST(HistogramTest, QuantileAfterMergingDisjointRanges) {
  // Two same-shape histograms whose samples occupy disjoint value
  // ranges (low half vs high half). After the merge, the extremes
  // stay put and the median falls between the clusters — the merged
  // distribution is the union, not either input.
  Histogram lo_half(0.0, 100.0, 20);
  Histogram hi_half(0.0, 100.0, 20);
  for (int i = 0; i < 10; ++i) lo_half.add(10.0 + static_cast<double>(i));
  for (int i = 0; i < 10; ++i) hi_half.add(80.0 + static_cast<double>(i));
  const double lo_p50 = lo_half.quantile(0.5);
  const double hi_p50 = hi_half.quantile(0.5);
  lo_half.merge(hi_half);
  EXPECT_EQ(lo_half.total(), 20u);
  EXPECT_NEAR(lo_half.quantile(0.05), 10.0, 5.0);
  EXPECT_NEAR(lo_half.quantile(0.95), 90.0, 5.0);
  const double merged_p50 = lo_half.quantile(0.5);
  EXPECT_GT(merged_p50, lo_p50);
  EXPECT_LT(merged_p50, hi_p50);
  // The middle of the merged mass is exactly the seam between the
  // clusters: 10 low samples then 10 high ones.
  EXPECT_NEAR(merged_p50, 50.0, 40.0);
}

// -------------------------------------------------------------------- table
TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(1.5, 3), "1.5");
  EXPECT_EQ(format_double(2.0, 2), "2.0");
  EXPECT_EQ(format_double(0.126, 2), "0.13");  // rounded
  EXPECT_EQ(format_double(0.1, 3), "0.1");     // trailing zeros trimmed
}

TEST(Table, PrintAlignsColumns) {
  TextTable t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name   | v  |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22 |"), std::string::npos);
}

TEST(Table, CsvRoundTripShape) {
  TextTable t({"a", "b"});
  t.add_row({format_double(1.25), format_double(2.0)});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1.25,2.0\n");
}

TEST(Table, RowArityEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

// ----------------------------------------------------------------- parallel
TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(64,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, CancelsPendingWorkAfterException) {
  // A failure early in a large sweep must cancel the not-yet-claimed
  // indices rather than letting the surviving workers drain all of them.
  constexpr std::size_t count = 10000;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      parallel_for(
          count,
          [&](std::size_t i) {
            if (i == 3) throw std::runtime_error("contract violation");
            ++executed;
            std::this_thread::sleep_for(std::chrono::microseconds(10));
          },
          4),
      std::runtime_error);
  EXPECT_LT(executed.load(), count / 2);
}

TEST(ParallelFor, HardwareParallelismNonzero) {
  EXPECT_GE(hardware_parallelism(), 1u);
}

// ---------------------------------------------------------------- ThreadPool
TEST(ThreadPool, ReusedAcrossJobs) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<int>> hits(257);
    pool.parallel(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SharedPoolIsPersistent) {
  ThreadPool& a = shared_thread_pool();
  ThreadPool& b = shared_thread_pool();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel(64,
                    [](std::size_t i) {
                      if (i == 7) throw std::runtime_error("boom");
                    }),
      std::runtime_error);
  // The pool survives a failed job.
  std::atomic<int> n{0};
  pool.parallel(10, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, ReentrantBodiesRunInline) {
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.parallel(4, [&](std::size_t) {
    // A body dispatching into the pool again must not deadlock on the
    // busy workers; reentrant calls run inline on the calling thread.
    shared_thread_pool().parallel(8, [&](std::size_t) { ++inner; });
  });
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, MaxThreadsOneIsOrdered) {
  ThreadPool pool(4);
  std::vector<int> order;
  pool.parallel(
      6, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace vosim
