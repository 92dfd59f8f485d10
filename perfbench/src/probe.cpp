#include "probe.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "arith.hpp"

namespace perfbench {

namespace {

constexpr int kWidth = 176;
constexpr int kHeight = 144;
constexpr int kBlock = 16;
constexpr int kRange = 7;
constexpr int kTransformBlocks = 300;
constexpr int kPackedValues = 60000;

// Keeps the probe's results observable so the compiler cannot drop them.
volatile std::uint64_t probe_sink = 0;

std::uint64_t sad_search(const std::vector<std::uint8_t>& cur,
                         const std::vector<std::uint8_t>& ref) {
  std::uint64_t total = 0;
  for (int by = kBlock; by + 2 * kBlock <= kHeight; by += 2 * kBlock) {
    for (int bx = kBlock; bx + 2 * kBlock <= kWidth; bx += 2 * kBlock) {
      std::uint32_t best = ~0u;
      for (int dy = -kRange; dy <= kRange; ++dy) {
        for (int dx = -kRange; dx <= kRange; ++dx) {
          std::uint32_t sad = 0;
          for (int y = 0; y < kBlock; ++y) {
            const std::uint8_t* a = &cur[(by + y) * kWidth + bx];
            const std::uint8_t* b = &ref[(by + y + dy) * kWidth + bx + dx];
            for (int x = 0; x < kBlock; ++x) {
              sad += static_cast<std::uint32_t>(std::abs(a[x] - b[x]));
            }
          }
          best = std::min(best, sad);
        }
      }
      total += best;
    }
  }
  return total;
}

double transforms(const std::vector<std::uint8_t>& cur) {
  double basis[8][8];
  for (int u = 0; u < 8; ++u) {
    for (int x = 0; x < 8; ++x) {
      basis[u][x] = std::cos((2 * x + 1) * u * 3.14159265358979 / 16.0) *
                    (u == 0 ? std::sqrt(0.125) : 0.5);
    }
  }
  double total = 0.0;
  for (int blk = 0; blk < kTransformBlocks; ++blk) {
    double in[8][8];
    double mid[8][8];
    const std::size_t base = static_cast<std::size_t>(blk) * 64 % cur.size();
    for (int i = 0; i < 64; ++i) {
      in[i / 8][i % 8] = cur[(base + i) % cur.size()] - 128.0;
    }
    for (int u = 0; u < 8; ++u) {
      for (int y = 0; y < 8; ++y) {
        double s = 0.0;
        for (int x = 0; x < 8; ++x) {
          s += basis[u][x] * in[x][y];
        }
        mid[u][y] = s;
      }
    }
    for (int u = 0; u < 8; ++u) {
      for (int v = 0; v < 8; ++v) {
        double s = 0.0;
        for (int y = 0; y < 8; ++y) {
          s += basis[v][y] * mid[u][y];
        }
        total += std::fabs(s);
      }
    }
  }
  return total;
}

std::uint64_t pack_bits(const std::vector<std::uint8_t>& cur) {
  std::uint64_t word = 0;
  std::uint64_t written = 0;
  for (int i = 0; i < kPackedValues; ++i) {
    // Exp-Golomb-like: a prefix of zeros as long as the value's bit length.
    std::uint32_t value = cur[static_cast<std::size_t>(i) % cur.size()] + 1u;
    int length = 0;
    while ((value >> length) > 1) {
      ++length;
    }
    for (int b = 2 * length; b >= 0; --b) {
      word = (word << 1) | ((b <= length) ? (value >> b) & 1u : 0u);
      ++written;
    }
  }
  return word ^ written;
}

}  // namespace

SpeedProbe::SpeedProbe()
    : cur_(static_cast<std::size_t>(kWidth) * kHeight),
      ref_(static_cast<std::size_t>(kWidth) * kHeight) {
  std::uint32_t state = 2005;
  for (std::uint8_t& sample : cur_) {
    state = state * 1664525u + 1013904223u;
    sample = static_cast<std::uint8_t>(state >> 24);
  }
  for (std::size_t i = 0; i < ref_.size(); ++i) {
    ref_[i] = static_cast<std::uint8_t>(cur_[(i + 3) % cur_.size()] ^ (i & 7));
  }
}

double SpeedProbe::sample() {
  const auto begin = std::chrono::steady_clock::now();
  const std::uint64_t sad = sad_search(cur_, ref_);
  const double energy = transforms(cur_);
  const std::uint64_t bits = pack_bits(cur_);
  const auto end = std::chrono::steady_clock::now();
  probe_sink = sad + static_cast<std::uint64_t>(energy) + bits;
  const double ms =
      std::chrono::duration<double, std::milli>(end - begin).count();
  samples_.push_back(ms);
  return ms;
}

double SpeedProbe::scale(std::size_t window) {
  if (samples_.empty()) {
    sample();
  }
  const std::size_t n = std::min(window, samples_.size());
  return kReferenceProbeMs /
         median(std::vector<double>(samples_.end() - static_cast<long>(n),
                                    samples_.end()));
}

}  // namespace perfbench
