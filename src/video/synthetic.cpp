#include "video/synthetic.hpp"

#include <algorithm>
#include <cmath>

namespace dsra::video {

namespace {

/// Bilinear value noise: random lattice values interpolated smoothly.
class ValueNoise {
 public:
  ValueNoise(int lattice_w, int lattice_h, Rng& rng)
      : w_(lattice_w), h_(lattice_h), values_(static_cast<std::size_t>(lattice_w * lattice_h)) {
    for (auto& v : values_) v = rng.next_double();
  }

  [[nodiscard]] double sample(double x, double y) const {
    const int x0 = static_cast<int>(std::floor(x));
    const int y0 = static_cast<int>(std::floor(y));
    const double fx = x - x0, fy = y - y0;
    auto lat = [this](int ix, int iy) {
      ix = ((ix % w_) + w_) % w_;
      iy = ((iy % h_) + h_) % h_;
      return values_[static_cast<std::size_t>(iy * w_ + ix)];
    };
    auto smooth = [](double t) { return t * t * (3.0 - 2.0 * t); };
    const double sx = smooth(fx), sy = smooth(fy);
    const double top = lat(x0, y0) * (1 - sx) + lat(x0 + 1, y0) * sx;
    const double bot = lat(x0, y0 + 1) * (1 - sx) + lat(x0 + 1, y0 + 1) * sx;
    return top * (1 - sy) + bot * sy;
  }

 private:
  int w_, h_;
  std::vector<double> values_;
};

std::uint8_t clamp_pixel(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

/// Pixel (x, y) of the smooth texture @p noise spans at feature size
/// @p scale.
std::uint8_t texel(const ValueNoise& noise, int scale, int x, int y) {
  return clamp_pixel(64.0 + 128.0 * noise.sample(static_cast<double>(x) / scale,
                                                  static_cast<double>(y) / scale));
}

}  // namespace

Frame textured_frame(int width, int height, int scale, Rng& rng) {
  const ValueNoise noise(std::max(2, width / scale), std::max(2, height / scale), rng);
  Frame f(width, height);
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x) f.set(x, y, texel(noise, scale, x, y));
  return f;
}

std::vector<Frame> generate_sequence(const SyntheticConfig& config) {
  Rng rng(config.seed);
  // Background larger than the frame so panning never runs out of
  // texture: every pixel a frame reads lies inside it. It is sampled only
  // where a frame reads it.
  const int margin = (std::max(std::abs(config.pan_x), std::abs(config.pan_y)) + 1) *
                     (config.frames + 1);
  const int scale = config.texture_scale;
  Rng bg_rng(config.seed ^ 0xb6cull);
  const ValueNoise background(std::max(2, (config.width + 2 * margin) / scale),
                              std::max(2, (config.height + 2 * margin) / scale), bg_rng);
  Rng obj_rng(config.seed ^ 0x0b1ull);
  std::vector<ValueNoise> obj_noise;
  obj_noise.reserve(config.objects.size());
  for (std::size_t i = 0; i < config.objects.size(); ++i)
    obj_noise.emplace_back(4, 4, obj_rng);

  std::vector<Frame> frames;
  frames.reserve(static_cast<std::size_t>(config.frames));
  for (int k = 0; k < config.frames; ++k) {
    Frame f(config.width, config.height);
    const int ox = margin + k * config.pan_x;
    const int oy = margin + k * config.pan_y;
    for (int y = 0; y < config.height; ++y)
      for (int x = 0; x < config.width; ++x)
        f.set(x, y, texel(background, scale, x + ox, y + oy));

    for (std::size_t i = 0; i < config.objects.size(); ++i) {
      const MovingObject& obj = config.objects[i];
      const int px = obj.x + k * obj.vx;
      const int py = obj.y + k * obj.vy;
      for (int y = 0; y < obj.height; ++y) {
        for (int x = 0; x < obj.width; ++x) {
          const int fx = px + x, fy = py + y;
          if (fx < 0 || fx >= config.width || fy < 0 || fy >= config.height) continue;
          const double tex = 20.0 * obj_noise[i].sample(x / 4.0, y / 4.0);
          f.set(fx, fy, clamp_pixel(f.at(fx, fy) + obj.brightness + tex));
        }
      }
    }

    if (config.noise_sigma > 0.0)
      for (auto& px : f.data())
        px = clamp_pixel(px + config.noise_sigma * rng.next_gaussian());
    frames.push_back(std::move(f));
  }
  return frames;
}

}  // namespace dsra::video
