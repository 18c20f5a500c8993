// Luminance frame container.
//
// Motion estimation and the DCT pipeline in the paper operate on 8-bit
// luma; this container provides edge-clamped access (block matching close
// to frame borders reads clamped pixels, the usual convention).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace dsra::video {

class Frame {
 public:
  Frame() = default;
  Frame(int width, int height, std::uint8_t fill = 0);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }

  [[nodiscard]] std::uint8_t at(int x, int y) const {
    return data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(x)];
  }
  void set(int x, int y, std::uint8_t v) {
    data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
          static_cast<std::size_t>(x)] = v;
  }

  /// Row @p y's pixels, contiguous from x = 0.
  [[nodiscard]] const std::uint8_t* row(int y) const {
    return data_.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(width_);
  }
  [[nodiscard]] std::uint8_t* row(int y) {
    return data_.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(width_);
  }

  /// Edge-clamped read (coordinates outside the frame clamp to the border).
  [[nodiscard]] std::uint8_t clamped_at(int x, int y) const {
    return at(std::clamp(x, 0, width_ - 1), std::clamp(y, 0, height_ - 1));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return data_; }
  [[nodiscard]] std::vector<std::uint8_t>& data() { return data_; }

  /// Binary PGM (P5) round-trip, for inspecting generated sequences.
  void save_pgm(const std::string& path) const;
  [[nodiscard]] static Frame load_pgm(const std::string& path);

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> data_;
};

}  // namespace dsra::video
