#include "src/apps/image.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/rng.hpp"

namespace vosim {

namespace {

constexpr int kernel_width = 16;  // accumulator word width for 3x3 kernels
/// Interior rows per band. A band's pixels form each pass's batch, so
/// a kernel's scratch is bounded by the band, not by the image.
constexpr int band_rows = 8;

/// Interior rows [y0, y0 + rows) × interior columns [1, cols]; its
/// pixels, in row-major order, are the elements of each pass.
struct Band {
  int y0 = 1;
  int rows = 0;
  int cols = 0;

  std::size_t size() const {
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }
  /// Calls f(i, x, y) for every pixel, i being its element index.
  template <typename F>
  void for_each(F&& f) const {
    std::size_t i = 0;
    for (int y = y0; y < y0 + rows; ++y)
      for (int x = 1; x <= cols; ++x) f(i++, x, y);
  }
};

/// Calls f(band) for the image's interior, top to bottom, in bands of
/// band_rows rows (the last one may be shorter).
template <typename F>
void for_each_band(const GrayImage& img, F&& f) {
  const int cols = img.width - 2;
  if (cols <= 0) return;
  for (int y0 = 1; y0 + 1 < img.height; y0 += band_rows)
    f(Band{y0, std::min(band_rows, img.height - 1 - y0), cols});
}

}  // namespace

GrayImage make_synthetic_scene(int width, int height, std::uint64_t seed) {
  VOSIM_EXPECTS(width >= 8 && height >= 8);
  GrayImage img;
  img.width = width;
  img.height = height;
  img.pixels.resize(static_cast<std::size_t>(width) *
                    static_cast<std::size_t>(height));
  Rng rng(seed);

  const double cx = 0.35 * width;
  const double cy = 0.40 * height;
  const double r = 0.18 * std::min(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      // Diagonal gradient base.
      double v = 40.0 + 120.0 * (static_cast<double>(x + y) /
                                 static_cast<double>(width + height));
      // Bright disk.
      const double dx = x - cx;
      const double dy = y - cy;
      if (dx * dx + dy * dy < r * r) v += 80.0;
      // Vertical bars in the right third (edge content for Sobel).
      if (x > 2 * width / 3 && ((x / 4) % 2 == 0)) v += 60.0;
      // Mild sensor noise.
      v += 4.0 * rng.gaussian();
      img.set(x, y,
              static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)));
    }
  }
  return img;
}

double psnr_db(const GrayImage& reference, const GrayImage& test) {
  VOSIM_EXPECTS(reference.width == test.width &&
                reference.height == test.height);
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < reference.pixels.size(); ++i) {
    const double d = static_cast<double>(reference.pixels[i]) -
                     static_cast<double>(test.pixels[i]);
    sum_sq += d * d;
  }
  if (sum_sq == 0.0) return std::numeric_limits<double>::infinity();
  const double mse = sum_sq / static_cast<double>(reference.pixels.size());
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

GrayImage gaussian_blur3(const GrayImage& src, const BatchAdderFn& add) {
  GrayImage out = src;  // borders keep their source values
  const std::uint64_t m = mask_n(kernel_width);
  std::vector<std::uint64_t> acc;
  std::vector<std::uint64_t> term;
  for_each_band(src, [&](const Band& band) {
    acc.assign(band.size(), 0);
    term.resize(band.size());
    // Σ w_ij · p_ij with w ∈ {1,2,4}: weights are shifts, and each tap
    // is one pass of routed 16-bit additions over the band.
    for (int ky = -1; ky <= 1; ++ky) {
      for (int kx = -1; kx <= 1; ++kx) {
        const int shift = 2 - std::abs(kx) - std::abs(ky);  // log2 w
        band.for_each([&](std::size_t i, int x, int y) {
          term[i] =
              (static_cast<std::uint64_t>(src.at(x + kx, y + ky)) << shift) &
              m;
        });
        add(acc, term, acc);
        for (std::uint64_t& v : acc) v &= m;
      }
    }
    band.for_each([&](std::size_t i, int x, int y) {
      out.set(x, y, static_cast<std::uint8_t>(
                        std::min<std::uint64_t>(255, acc[i] >> 4)));
    });
  });
  return out;
}

GrayImage sobel_magnitude(const GrayImage& src, const BatchAdderFn& add) {
  GrayImage out = src;
  const std::uint64_t m = mask_n(kernel_width);
  // gx = (p(+1,·) weighted) − (p(−1,·) weighted); likewise gy. Each
  // lobe is a + 2b + c over three pixel offsets, accumulated in two
  // passes; |gx| and |gy| subtract the smaller lobe from the larger
  // through the routed adder.
  struct Offset {
    int dx;
    int dy;
  };
  static constexpr Offset lobes[4][3] = {
      {{+1, -1}, {+1, 0}, {+1, +1}},  // gx+
      {{-1, -1}, {-1, 0}, {-1, +1}},  // gx-
      {{-1, +1}, {0, +1}, {+1, +1}},  // gy+
      {{-1, -1}, {0, -1}, {+1, -1}},  // gy-
  };
  std::vector<std::uint64_t> lobe[4];
  std::vector<std::uint64_t> term;
  std::vector<std::uint64_t> hi;
  std::vector<std::uint64_t> lo;
  std::vector<std::uint64_t> gx;
  std::vector<std::uint64_t> gy;
  const auto px = [&src](int x, int y, Offset o) {
    return static_cast<std::uint64_t>(src.at(x + o.dx, y + o.dy));
  };
  for_each_band(src, [&](const Band& band) {
    const std::size_t n = band.size();
    term.resize(n);
    for (int l = 0; l < 4; ++l) {
      const Offset* o = lobes[l];
      std::vector<std::uint64_t>& acc = lobe[l];
      acc.resize(n);
      band.for_each([&](std::size_t i, int x, int y) {
        acc[i] = px(x, y, o[0]);
        term[i] = (px(x, y, o[1]) << 1) & m;
      });
      add(acc, term, acc);
      for (std::uint64_t& v : acc) v &= m;
      band.for_each(
          [&](std::size_t i, int x, int y) { term[i] = px(x, y, o[2]); });
      add(acc, term, acc);
      for (std::uint64_t& v : acc) v &= m;
    }
    const auto abs_diff = [&](const std::vector<std::uint64_t>& p,
                              const std::vector<std::uint64_t>& q,
                              std::vector<std::uint64_t>& d) {
      hi.resize(n);
      lo.resize(n);
      d.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        hi[i] = std::max(p[i], q[i]);
        lo[i] = std::min(p[i], q[i]);
      }
      approx_sub(add, kernel_width, hi, lo, d);
    };
    abs_diff(lobe[0], lobe[1], gx);
    abs_diff(lobe[2], lobe[3], gy);
    add(gx, gy, gx);  // |gx| + |gy|
    band.for_each([&](std::size_t i, int x, int y) {
      out.set(x, y, static_cast<std::uint8_t>(
                        std::min<std::uint64_t>(255, gx[i] & m)));
    });
  });
  return out;
}

}  // namespace vosim
