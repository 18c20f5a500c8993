#include "video/frame.hpp"

#include <fstream>
#include <stdexcept>

namespace dsra::video {

Frame::Frame(int width, int height, std::uint8_t fill)
    : width_(width), height_(height),
      data_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), fill) {
  if (width <= 0 || height <= 0) throw std::invalid_argument("frame dimensions must be positive");
}

void Frame::save_pgm(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open '" + path + "' for writing");
  f << "P5\n" << width_ << " " << height_ << "\n255\n";
  f.write(reinterpret_cast<const char*>(data_.data()), static_cast<std::streamsize>(data_.size()));
}

Frame Frame::load_pgm(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open '" + path + "'");
  std::string magic;
  int w = 0, h = 0, maxval = 0;
  f >> magic >> w >> h >> maxval;
  if (magic != "P5" || maxval != 255) throw std::runtime_error("unsupported PGM: " + path);
  f.get();  // single whitespace after header
  Frame frame(w, h);
  f.read(reinterpret_cast<char*>(frame.data().data()),
         static_cast<std::streamsize>(frame.data().size()));
  if (!f) throw std::runtime_error("truncated PGM: " + path);
  return frame;
}

}  // namespace dsra::video
