// Grayscale image kernels (Gaussian blur, Sobel) with routed arithmetic —
// the video/image-processing class of error-resilient applications the
// paper's introduction motivates.
#ifndef VOSIM_APPS_IMAGE_HPP
#define VOSIM_APPS_IMAGE_HPP

#include <cstdint>
#include <vector>

#include "src/apps/approx_arith.hpp"

namespace vosim {

/// Row-major 8-bit grayscale image.
struct GrayImage {
  int width = 0;
  int height = 0;
  std::vector<std::uint8_t> pixels;

  std::uint8_t at(int x, int y) const {
    return pixels[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
                  static_cast<std::size_t>(x)];
  }
  void set(int x, int y, std::uint8_t v) {
    pixels[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
           static_cast<std::size_t>(x)] = v;
  }
};

/// Deterministic synthetic test scene: gradients, disks, bars and mild
/// noise — enough structure for blur/edge quality to be meaningful.
GrayImage make_synthetic_scene(int width, int height, std::uint64_t seed);

/// Peak signal-to-noise ratio between two same-sized images (dB);
/// +infinity for identical images.
double psnr_db(const GrayImage& reference, const GrayImage& test);

/// 3x3 Gaussian blur (kernel 1-2-1 / 2-4-2 / 1-2-1, /16). Interior
/// rows are processed in bands of a few rows; within a band, one pass
/// per kernel tap adds that tap's weighted pixel into every band
/// pixel's 16-bit accumulator through `add` (nine passes, in
/// row-major tap order). Border pixels are copied through.
GrayImage gaussian_blur3(const GrayImage& src, const BatchAdderFn& add);

/// Sobel gradient magnitude (|gx| + |gy|, saturated to 255), all
/// additions and subtractions routed through `add` at 16-bit width, in
/// the same bands. Per band: two passes for each of the four lobes
/// (gx+, gx-, gy+, gy-), two for |gx|, two for |gy|, one for the sum.
GrayImage sobel_magnitude(const GrayImage& src, const BatchAdderFn& add);

}  // namespace vosim

#endif  // VOSIM_APPS_IMAGE_HPP
