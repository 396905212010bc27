// Application-kernel tests: routed arithmetic helpers, image pipeline,
// FIR filtering and dot kernels, with exact and degraded adders.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/apps/dot.hpp"
#include "src/apps/fir.hpp"
#include "src/apps/image.hpp"
#include "src/model/prob_table.hpp"
#include "src/util/bits.hpp"
#include "src/util/rng.hpp"

namespace vosim {
namespace {

/// A deliberately degraded model: every chain longer than `window`
/// truncates to it (deterministic worst case of a VOS table).
VosAdderModel truncating_model(int width, int window) {
  const auto n = static_cast<std::size_t>(width) + 1;
  std::vector<std::vector<std::uint64_t>> counts(
      n, std::vector<std::uint64_t>(n, 0));
  for (int l = 0; l <= width; ++l)
    counts[static_cast<std::size_t>(l)]
          [static_cast<std::size_t>(std::min(l, window))] = 1;
  return VosAdderModel(width, {0.3, 0.5, 0.0}, DistanceMetric::kMse,
                       CarryChainProbTable::from_counts(width, counts));
}

/// One addition through a batch adder.
std::uint64_t add1(const BatchAdderFn& add, std::uint64_t a,
                   std::uint64_t b) {
  std::uint64_t out = 0;
  add({&a, 1}, {&b, 1}, {&out, 1});
  return out;
}

std::uint64_t sub1(const BatchAdderFn& add, int width, std::uint64_t a,
                   std::uint64_t b) {
  std::uint64_t out = 0;
  approx_sub(add, width, {&a, 1}, {&b, 1}, {&out, 1});
  return out;
}

std::uint64_t mul1(const BatchAdderFn& add, int width, std::uint64_t x,
                   std::uint64_t y) {
  std::uint64_t out = 0;
  approx_mul(add, width, {&x, 1}, {&y, 1}, {&out, 1});
  return out;
}

// ------------------------------------------------------------ arith helpers
TEST(ApproxArith, ExactAdderFnIsPlus) {
  const BatchAdderFn add = exact_adder_fn(16);
  Rng rng(1);
  std::vector<std::uint64_t> a(500);
  std::vector<std::uint64_t> b(500);
  for (std::size_t t = 0; t < a.size(); ++t) {
    a[t] = rng.bits(16);
    b[t] = rng.bits(16);
  }
  std::vector<std::uint64_t> sum(a.size());
  add(a, b, sum);
  for (std::size_t t = 0; t < a.size(); ++t) ASSERT_EQ(sum[t], a[t] + b[t]);
  // The output may alias an operand.
  add(a, b, a);
  EXPECT_EQ(a, sum);
}

TEST(ApproxArith, SubViaTwosComplement) {
  const BatchAdderFn add = exact_adder_fn(16);
  Rng rng(2);
  std::vector<std::uint64_t> a(500);
  std::vector<std::uint64_t> b(500);
  for (std::size_t t = 0; t < a.size(); ++t) {
    a[t] = rng.bits(16);
    b[t] = rng.bits(16);
  }
  std::vector<std::uint64_t> diff(a.size());
  approx_sub(add, 16, a, b, diff);
  for (std::size_t t = 0; t < a.size(); ++t)
    ASSERT_EQ(diff[t], (a[t] - b[t]) & mask_n(16));
}

TEST(ApproxArith, MulViaShiftAdd) {
  const BatchAdderFn add = exact_adder_fn(16);
  Rng rng(3);
  std::vector<std::uint64_t> a(500);
  std::vector<std::uint64_t> b(500);
  for (std::size_t t = 0; t < a.size(); ++t) {
    a[t] = rng.bits(8);
    b[t] = rng.bits(8);
  }
  std::vector<std::uint64_t> prod(a.size());
  approx_mul(add, 16, a, b, prod);
  for (std::size_t t = 0; t < a.size(); ++t)
    ASSERT_EQ(prod[t], (a[t] * b[t]) & mask_n(16));
}

TEST(ApproxArith, MulAddsOncePerMultiplierBit) {
  // Shift-and-add issues one routed addition per set multiplier bit,
  // whatever the other elements of the batch hold.
  std::size_t adds = 0;
  const BatchAdderFn exact = exact_adder_fn(16);
  const BatchAdderFn counting = [&](std::span<const std::uint64_t> a,
                                    std::span<const std::uint64_t> b,
                                    std::span<std::uint64_t> out) {
    adds += a.size();
    exact(a, b, out);
  };
  const std::vector<std::uint64_t> x = {7, 200, 3, 0};
  const std::vector<std::uint64_t> y = {0, 0b1011, 0b1, 0xff};
  std::vector<std::uint64_t> prod(x.size());
  approx_mul(counting, 16, x, y, prod);
  EXPECT_EQ(adds, 0u + 3u + 1u + 8u);
  EXPECT_EQ(prod, (std::vector<std::uint64_t>{0, 200 * 0b1011, 3, 0}));
}

// Width 63 is the widest the (width+1)-bit adder contract supports
// (max_word_bits); width 64 still works for the masking-only helpers
// when the adder itself wraps. Pin both boundaries.
TEST(ApproxArith, Width63MaskingAndCarryOut) {
  const BatchAdderFn add = exact_adder_fn(63);
  const std::uint64_t m = mask_n(63);
  // The adder's sum keeps the carry-out bit.
  EXPECT_EQ(add1(add, m, m), 2 * m);
  EXPECT_EQ(add1(add, m, 1), m + 1);
  // Subtraction wraps within the 63-bit mask.
  EXPECT_EQ(sub1(add, 63, 0, 1), m);
  EXPECT_EQ(sub1(add, 63, m, m), 0u);
  EXPECT_EQ(sub1(add, 63, 1, m), 2u);
  // Operands above the mask are masked before use, not trusted.
  EXPECT_EQ(add1(add, ~0ULL, 0), m);
  EXPECT_EQ(sub1(add, 63, ~0ULL, 0), m);
  Rng rng(17);
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t a = rng.bits(63);
    const std::uint64_t b = rng.bits(63);
    EXPECT_EQ(sub1(add, 63, a, b), (a - b) & m);
  }
}

TEST(ApproxArith, Width63MulMasksPartialProducts) {
  const BatchAdderFn add = exact_adder_fn(63);
  const std::uint64_t m = mask_n(63);
  // Max x max: the helper must mask every shifted partial product into
  // the 63-bit accumulator (native 64-bit wrap would differ).
  std::uint64_t expect = 0;
  for (int i = 0; i < 63; ++i) expect = (expect + ((m << i) & m)) & m;
  EXPECT_EQ(mul1(add, 63, m, m), expect);
  EXPECT_EQ(mul1(add, 63, m, 0), 0u);
  EXPECT_EQ(mul1(add, 63, m, 1), m);
  Rng rng(18);
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t a = rng.bits(32);
    const std::uint64_t b = rng.bits(31);
    EXPECT_EQ(mul1(add, 63, a, b), (a * b) & m);
  }
}

TEST(ApproxArith, Width64HelpersWrapWithAWrappingAdder) {
  // exact_adder_fn stops at max_word_bits = 63; a plain wrapping adder
  // stands in at 64, where mask_n(64) must behave as ~0 (no UB shift).
  const BatchAdderFn wrap = [](std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b,
                               std::span<std::uint64_t> out) {
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  };
  EXPECT_EQ(mask_n(64), ~0ULL);
  EXPECT_EQ(sub1(wrap, 64, 0, 1), ~0ULL);
  EXPECT_EQ(sub1(wrap, 64, 5, ~0ULL), 6u);
  EXPECT_EQ(mul1(wrap, 64, ~0ULL, ~0ULL), 1u);  // (-1)^2 mod 2^64
  Rng rng(19);
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    EXPECT_EQ(sub1(wrap, 64, a, b), a - b);
    EXPECT_EQ(mul1(wrap, 64, a, b), a * b);
  }
}

TEST(ApproxArith, ExactAdderFnRejectsOutOfRangeWidths) {
  EXPECT_THROW(exact_adder_fn(64), ContractViolation);
  EXPECT_THROW(exact_adder_fn(0), ContractViolation);
}

TEST(ApproxArith, AdderRejectsMismatchedLengths) {
  const BatchAdderFn add = exact_adder_fn(16);
  std::vector<std::uint64_t> a(3);
  std::vector<std::uint64_t> b(2);
  std::vector<std::uint64_t> out(3);
  EXPECT_THROW(add(a, b, out), ContractViolation);
}

TEST(ApproxArith, ModelAdderFnUsesModel) {
  const VosAdderModel model = truncating_model(16, 0);  // adds become XOR
  Rng rng(4);
  const BatchAdderFn add = model_adder_fn(model, rng);
  EXPECT_EQ(add1(add, 0b1100, 0b1010), 0b1100ull ^ 0b1010ull);
}

// ------------------------------------------------------------------- image
TEST(ImageKernels, SceneIsDeterministic) {
  const GrayImage a = make_synthetic_scene(64, 48, 5);
  const GrayImage b = make_synthetic_scene(64, 48, 5);
  EXPECT_EQ(a.pixels, b.pixels);
  const GrayImage c = make_synthetic_scene(64, 48, 6);
  EXPECT_NE(a.pixels, c.pixels);
}

TEST(ImageKernels, PsnrIdentityIsInfinite) {
  const GrayImage img = make_synthetic_scene(32, 32, 1);
  EXPECT_TRUE(std::isinf(psnr_db(img, img)));
}

TEST(ImageKernels, BlurWithExactAdderMatchesReference) {
  const GrayImage img = make_synthetic_scene(48, 40, 7);
  const GrayImage blurred = gaussian_blur3(img, exact_adder_fn(16));
  // Integer reference straight from the kernel definition.
  for (int y = 1; y + 1 < img.height; ++y) {
    for (int x = 1; x + 1 < img.width; ++x) {
      int acc = 0;
      const int w[3] = {1, 2, 1};
      for (int ky = -1; ky <= 1; ++ky)
        for (int kx = -1; kx <= 1; ++kx)
          acc += w[ky + 1] * w[kx + 1] * img.at(x + kx, y + ky);
      ASSERT_EQ(blurred.at(x, y), std::min(255, acc / 16))
          << "(" << x << "," << y << ")";
    }
  }
  // Borders pass through.
  EXPECT_EQ(blurred.at(0, 0), img.at(0, 0));
}

TEST(ImageKernels, BandsCoverTinyImages) {
  // One interior pixel: a single one-pixel band.
  GrayImage img;
  img.width = 3;
  img.height = 3;
  img.pixels = {10, 20, 30, 40, 50, 60, 70, 80, 90};
  const GrayImage blurred = gaussian_blur3(img, exact_adder_fn(16));
  EXPECT_EQ(blurred.at(1, 1), (10 + 2 * 20 + 30 + 2 * 40 + 4 * 50 + 2 * 60 +
                               70 + 2 * 80 + 90) / 16);
  EXPECT_EQ(blurred.at(0, 0), img.at(0, 0));
  // No interior at all: everything is border and passes through.
  GrayImage thin;
  thin.width = 2;
  thin.height = 12;
  thin.pixels.assign(24, 77);
  EXPECT_EQ(gaussian_blur3(thin, exact_adder_fn(16)).pixels, thin.pixels);
  EXPECT_EQ(sobel_magnitude(thin, exact_adder_fn(16)).pixels, thin.pixels);
}

TEST(ImageKernels, BlurSmoothsNoise) {
  const GrayImage img = make_synthetic_scene(64, 64, 8);
  const GrayImage blurred = gaussian_blur3(img, exact_adder_fn(16));
  // Blur must reduce local variance (crude smoothness check).
  auto variance = [](const GrayImage& im) {
    double mean = 0.0;
    for (auto p : im.pixels) mean += p;
    mean /= static_cast<double>(im.pixels.size());
    double var = 0.0;
    for (auto p : im.pixels) var += (p - mean) * (p - mean);
    return var / static_cast<double>(im.pixels.size());
  };
  EXPECT_LT(variance(blurred), variance(img) * 1.01);
}

TEST(ImageKernels, SobelFindsVerticalEdges) {
  // A hard vertical step: Sobel magnitude must peak on the edge column.
  GrayImage img;
  img.width = 16;
  img.height = 16;
  img.pixels.assign(16 * 16, 0);
  for (int y = 0; y < 16; ++y)
    for (int x = 8; x < 16; ++x) img.set(x, y, 200);
  const GrayImage edges = sobel_magnitude(img, exact_adder_fn(16));
  EXPECT_GE(edges.at(8, 8), 200);  // saturated response on the step
  EXPECT_EQ(edges.at(3, 8), 0);    // flat region
  EXPECT_EQ(edges.at(13, 8), 0);
}

TEST(ImageKernels, QualityDegradesGracefullyWithWindow) {
  // Tighter carry windows (deeper VOS) must monotonically reduce PSNR,
  // and mild truncation should still be usable (paper's thesis).
  const GrayImage img = make_synthetic_scene(64, 64, 9);
  const GrayImage ref = gaussian_blur3(img, exact_adder_fn(16));
  double prev_psnr = std::numeric_limits<double>::infinity();
  for (const int window : {12, 8, 6, 4}) {
    const VosAdderModel model = truncating_model(16, window);
    Rng rng(10);
    const BatchAdderFn add = model_adder_fn(model, rng);
    const GrayImage out = gaussian_blur3(img, add);
    const double p = psnr_db(ref, out);
    EXPECT_LE(p, prev_psnr) << "window " << window;
    prev_psnr = p;
  }
  // A 12-bit window on 16-bit accumulators barely hurts.
  const VosAdderModel mild = truncating_model(16, 12);
  Rng rng(11);
  const GrayImage out = gaussian_blur3(img, model_adder_fn(mild, rng));
  EXPECT_GT(psnr_db(ref, out), 30.0);
}

// --------------------------------------------------------------------- fir
TEST(FirKernels, SignalGeneratorBounds) {
  const FixedSignal s = make_test_signal(512, 12, 3);
  EXPECT_EQ(s.samples.size(), 512u);
  for (const auto v : s.samples) EXPECT_LE(v, mask_n(12));
}

TEST(FirKernels, ExactFilterMatchesReference) {
  const FixedSignal sig = make_test_signal(256, 12, 4);
  const FixedSignal out = fir_lowpass5(sig, exact_adder_fn(16));
  for (std::size_t i = 0; i < sig.samples.size(); ++i) {
    auto sample = [&](long k) {
      const long idx = std::min<long>(
          std::max<long>(k, 0), static_cast<long>(sig.samples.size()) - 1);
      return static_cast<long>(sig.samples[static_cast<std::size_t>(idx)]);
    };
    const auto si = static_cast<long>(i);
    const long acc = sample(si - 2) + 4 * sample(si - 1) + 6 * sample(si) +
                     4 * sample(si + 1) + sample(si + 2);
    ASSERT_EQ(out.samples[i], static_cast<std::uint64_t>(acc / 16)) << i;
  }
}

TEST(FirKernels, FilterAttenuatesNoise) {
  const FixedSignal sig = make_test_signal(1024, 12, 5);
  const FixedSignal out = fir_lowpass5(sig, exact_adder_fn(16));
  // The low-pass must track the signal (SNR well above 10 dB).
  EXPECT_GT(signal_snr_db(sig, out), 10.0);
}

TEST(FirKernels, SnrDegradesWithWindow) {
  const FixedSignal sig = make_test_signal(1024, 12, 6);
  const FixedSignal ref = fir_lowpass5(sig, exact_adder_fn(16));
  double prev = std::numeric_limits<double>::infinity();
  for (const int window : {12, 8, 5, 3}) {
    const VosAdderModel model = truncating_model(16, window);
    Rng rng(12);
    const FixedSignal out = fir_lowpass5(sig, model_adder_fn(model, rng));
    const double snr = signal_snr_db(ref, out);
    EXPECT_LE(snr, prev) << "window " << window;
    prev = snr;
  }
}

// --------------------------------------------------------------------- dot
TEST(DotKernels, ExactDotMatchesInteger) {
  Rng rng(13);
  std::vector<std::vector<std::uint8_t>> x(5, std::vector<std::uint8_t>(64));
  std::vector<std::vector<std::uint8_t>> y(5, std::vector<std::uint8_t>(64));
  for (std::size_t p = 0; p < x.size(); ++p) {
    for (auto& v : x[p]) v = static_cast<std::uint8_t>(rng.below(256));
    for (auto& v : y[p]) v = static_cast<std::uint8_t>(rng.below(256));
  }
  const std::vector<std::uint64_t> dots =
      approx_dot(exact_adder_fn(24), x, y, 24);
  ASSERT_EQ(dots.size(), x.size());
  for (std::size_t p = 0; p < x.size(); ++p) {
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < x[p].size(); ++i)
      expect += static_cast<std::uint64_t>(x[p][i]) * y[p][i];
    EXPECT_EQ(dots[p], expect & mask_n(24)) << "pair " << p;
  }
}

TEST(DotKernels, RejectsRaggedPairs) {
  const std::vector<std::vector<std::uint8_t>> x = {{1, 2}, {3}};
  const std::vector<std::vector<std::uint8_t>> y = {{1, 2}, {3, 4}};
  EXPECT_THROW(approx_dot(exact_adder_fn(24), x, y, 24), ContractViolation);
}

}  // namespace
}  // namespace vosim
