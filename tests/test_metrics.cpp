// Error-metric accumulator tests with hand-computed values, and the
// accumulator held bit for bit to its reference (tests/metrics_reference.hpp).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "src/characterize/metrics.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"
#include "tests/metrics_reference.hpp"

namespace vosim {
namespace {

TEST(Metrics, PerfectRunIsErrorFree) {
  ErrorAccumulator acc(9);
  for (std::uint64_t v : {0ull, 1ull, 255ull, 511ull}) acc.add(v, v);
  EXPECT_EQ(acc.ops(), 4u);
  EXPECT_EQ(acc.ber(), 0.0);
  EXPECT_EQ(acc.op_error_rate(), 0.0);
  EXPECT_EQ(acc.mse(), 0.0);
  EXPECT_TRUE(std::isinf(acc.snr_db()));
  EXPECT_EQ(acc.mean_hamming(), 0.0);
}

TEST(Metrics, HandComputedBer) {
  ErrorAccumulator acc(8);
  acc.add(0b00000000, 0b00000011);  // 2 bit errors
  acc.add(0b11111111, 0b11111111);  // 0
  acc.add(0b10101010, 0b10101000);  // 1
  acc.add(0b00001111, 0b11110000);  // 8
  // BER = 11 / (4 ops * 8 bits)
  EXPECT_DOUBLE_EQ(acc.ber(), 11.0 / 32.0);
  EXPECT_DOUBLE_EQ(acc.op_error_rate(), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(acc.mean_hamming(), 11.0 / 4.0);
  EXPECT_DOUBLE_EQ(acc.normalized_hamming(), 11.0 / 32.0);
}

TEST(Metrics, BitwiseErrorProbability) {
  ErrorAccumulator acc(4);
  acc.add(0b0000, 0b0001);  // bit0 err
  acc.add(0b0000, 0b0001);  // bit0 err
  acc.add(0b0000, 0b1000);  // bit3 err
  acc.add(0b0000, 0b0000);
  const auto bw = acc.bitwise_error_probability();
  ASSERT_EQ(bw.size(), 4u);
  EXPECT_DOUBLE_EQ(bw[0], 0.5);
  EXPECT_DOUBLE_EQ(bw[1], 0.0);
  EXPECT_DOUBLE_EQ(bw[2], 0.0);
  EXPECT_DOUBLE_EQ(bw[3], 0.25);
}

TEST(Metrics, MseAndSnr) {
  ErrorAccumulator acc(16);
  acc.add(100, 90);   // err -10
  acc.add(200, 220);  // err +20
  EXPECT_DOUBLE_EQ(acc.mse(), (100.0 + 400.0) / 2.0);
  const double snr = 10.0 * std::log10((100.0 * 100 + 200.0 * 200) /
                                       (100.0 + 400.0));
  EXPECT_NEAR(acc.snr_db(), snr, 1e-12);
}

TEST(Metrics, MergeMatchesSequential) {
  ErrorAccumulator a(8);
  ErrorAccumulator b(8);
  ErrorAccumulator all(8);
  for (int i = 0; i < 50; ++i) {
    const auto ref = static_cast<std::uint64_t>(i * 3 % 256);
    const auto act = static_cast<std::uint64_t>((i * 3 + (i % 4)) % 256);
    all.add(ref, act);
    (i % 2 ? a : b).add(ref, act);
  }
  a.merge(b);
  EXPECT_EQ(a.ops(), all.ops());
  EXPECT_DOUBLE_EQ(a.ber(), all.ber());
  EXPECT_DOUBLE_EQ(a.mse(), all.mse());
  EXPECT_DOUBLE_EQ(a.mean_hamming(), all.mean_hamming());
}

TEST(Metrics, WidthLimitsDifferences) {
  ErrorAccumulator acc(4);
  // Bits above the configured width must be ignored.
  acc.add(0b10000, 0b00000);
  EXPECT_EQ(acc.ber(), 0.0);
}

TEST(Metrics, MergeRequiresSameWidth) {
  ErrorAccumulator a(8);
  ErrorAccumulator b(9);
  EXPECT_THROW(a.merge(b), ContractViolation);
}

TEST(Metrics, WidthValidated) {
  EXPECT_THROW(ErrorAccumulator(0), ContractViolation);
  EXPECT_THROW(ErrorAccumulator(65), ContractViolation);
  EXPECT_NO_THROW(ErrorAccumulator(64));
}

// Same bits, not just the same value: the fast paths must not move a
// single ulp, and snr_db's +infinity must stay +infinity.
void expect_same_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_matches_reference(const ErrorAccumulator& acc,
                              const reference::ErrorAccumulator& ref) {
  EXPECT_EQ(acc.ops(), ref.ops);
  expect_same_bits(acc.ber(), ref.ber(), "ber");
  const std::vector<double> pb = acc.bitwise_error_probability();
  const std::vector<double> rb = ref.bitwise_error_probability();
  ASSERT_EQ(pb.size(), rb.size());
  for (std::size_t i = 0; i < pb.size(); ++i)
    expect_same_bits(pb[i], rb[i], "bitwise_error_probability");
  expect_same_bits(acc.op_error_rate(), ref.op_error_rate(), "op_error_rate");
  expect_same_bits(acc.mse(), ref.mse(), "mse");
  expect_same_bits(acc.snr_db(), ref.snr_db(), "snr_db");
  expect_same_bits(acc.mean_hamming(), ref.mean_hamming(), "mean_hamming");
  expect_same_bits(acc.mred(), ref.mred(), "mred");
}

TEST(Metrics, ScoringMatchesReferenceBitForBit) {
  for (const int nbits : {1, 8, 16, 63, 64}) {
    SCOPED_TRACE(nbits);
    Rng rng(0x5eed0000u + static_cast<unsigned>(nbits));
    ErrorAccumulator acc(nbits);
    reference::ErrorAccumulator ref(nbits);
    const auto add = [&](std::uint64_t r, std::uint64_t a) {
      acc.add(r, a);
      ref.add(r, a);
    };
    // A word that may carry bits above nbits, as a golden function can.
    const auto word = [&] {
      return rng.flip(0.5) ? rng() : rng() & mask_n(nbits);
    };
    // Only above nbits: scored as error-free bits with a numeric error.
    const auto above = [&] {
      return nbits == 64 ? std::uint64_t{0} : (rng() | 1u) << nbits;
    };

    for (int i = 0; i < 200; ++i) {  // equal pairs only
      const std::uint64_t r = word();
      add(r, r);
    }
    expect_matches_reference(acc, ref);

    for (int i = 0; i < 200; ++i) {  // differ only above nbits
      const std::uint64_t r = word();
      add(r, r ^ above());
    }
    expect_matches_reference(acc, ref);

    // Mostly equal pairs with errors between them, as a sweep scores.
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t r = word();
      const double u = rng.uniform();
      if (u < 0.6)
        add(r, r);
      else if (u < 0.7)
        add(r, r ^ above());
      else if (u < 0.9)
        add(r, r ^ (std::uint64_t{1} << rng.below(64)));
      else
        add(r, word());
    }
    expect_matches_reference(acc, ref);
  }
}

TEST(Metrics, EmptyAccumulatorSafe) {
  ErrorAccumulator acc(8);
  EXPECT_EQ(acc.ber(), 0.0);
  EXPECT_EQ(acc.mse(), 0.0);
  EXPECT_EQ(acc.op_error_rate(), 0.0);
}

}  // namespace
}  // namespace vosim
