// Golden byte pins: a fixed grid of encodes whose stream bytes and decoded
// samples are pinned to checked-in digests (tests/data/golden/digests.txt).
//
// Each cell is encoded and decoded under every kernel variant this
// build/CPU offers (scalar, SSE2, AVX2), and each must reproduce the pinned
// digests exactly: a kernel change, an arithmetic-flag change or a compiler
// that contracts the transforms' multiply-adds shows up here as a byte
// difference, not as a drift in PSNR.
//
// Regenerate the digests (only for an intentional bitstream change) with
//
//   ACBM_GOLDEN_REGEN=1 ./build/golden_digest_test
//
// which rewrites the file from the scalar kernels; see docs/TESTING.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/builtin_estimators.hpp"
#include "simd/dispatch.hpp"
#include "synth/sequences.hpp"

namespace acbm::codec {
namespace {

const char* const kDigestFile = ACBM_TEST_DIR "/data/golden/digests.txt";

struct Cell {
  std::string name;
  std::string clip;
  std::string algorithm;
  EncoderConfig config;
};

struct Digests {
  std::uint64_t stream = 0;   ///< FNV-1a over the stream bytes
  std::uint64_t samples = 0;  ///< DecodeReport::sample_digest
};

EncoderConfig base_config(int qp) {
  EncoderConfig config;
  config.qp = qp;
  return config;
}

std::vector<Cell> cells() {
  std::vector<Cell> grid;
  for (const char* algorithm : {"ACBM", "FSBM", "PBM"}) {
    grid.push_back({std::string("heuristic-") + algorithm + "-qp16",
                    "foreman", algorithm, base_config(16)});
  }
  EncoderConfig rd = base_config(16);
  rd.mode_decision = ModeDecision::kRateDistortion;
  rd.deblock = true;
  rd.slices = 4;
  grid.push_back({"rd-deblock-slices4-ACBM-qp16", "foreman", "ACBM", rd});
  grid.push_back({"heuristic-ACBM-qp1", "carphone", "ACBM", base_config(1)});
  grid.push_back({"heuristic-ACBM-qp31", "carphone", "ACBM", base_config(31)});
  rd.qp = 31;
  grid.push_back({"rd-deblock-slices4-ACBM-qp31", "table", "ACBM", rd});
  EncoderConfig intra = base_config(12);
  intra.intra_period = 1;
  grid.push_back({"intra-only-qp12", "miss_america", "ACBM", intra});
  return grid;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

Digests encode_and_decode(const Cell& cell) {
  synth::SequenceRequest req;
  req.name = cell.clip;
  req.size = video::kQcif;
  req.frame_count = 8;
  req.fps = 30;
  const std::vector<video::Frame> frames = synth::make_sequence(req);
  const auto estimator = core::builtin_estimators().create(cell.algorithm);
  Encoder encoder(req.size, cell.config, *estimator);
  for (const video::Frame& frame : frames) {
    (void)encoder.encode_frame(frame);
  }
  const std::vector<std::uint8_t> stream = encoder.finish();
  Decoder decoder(stream, DecoderConfig{});
  const DecodeReport report = decoder.decode_stream();
  EXPECT_EQ(report.frames, frames.size()) << cell.name;
  EXPECT_EQ(report.error_class, DecodeErrorClass::kNone) << cell.name;
  return {fnv1a(stream), report.sample_digest};
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Parses "<cell> <stream hex> <samples hex>" lines; '#' starts a comment.
std::map<std::string, Digests> load_pins() {
  std::map<std::string, Digests> pins;
  std::ifstream in(kDigestFile);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string name;
    std::string stream;
    std::string samples;
    if (fields >> name >> stream >> samples) {
      pins[name] = {std::stoull(stream, nullptr, 16),
                    std::stoull(samples, nullptr, 16)};
    }
  }
  return pins;
}

bool regenerating() { return std::getenv("ACBM_GOLDEN_REGEN") != nullptr; }

/// Restores the default (auto) selection when a test that pins the global
/// table exits, so test order never matters.
struct KernelSelectionGuard {
  ~KernelSelectionGuard() { simd::select_kernels(simd::KernelIsa::kAuto); }
};

TEST(GoldenDigest, EveryCellMatchesPinsUnderEveryKernel) {
  if (regenerating()) {
    GTEST_SKIP() << "ACBM_GOLDEN_REGEN set: pins are being rewritten";
  }
  const std::map<std::string, Digests> pins = load_pins();
  ASSERT_FALSE(pins.empty()) << "no pins read from " << kDigestFile;
  KernelSelectionGuard guard;
  for (simd::KernelIsa isa : {simd::KernelIsa::kScalar, simd::KernelIsa::kSse2,
                              simd::KernelIsa::kAvx2}) {
    if (simd::kernels_for(isa) == nullptr) {
      continue;  // compiled out or unsupported by this CPU
    }
    ASSERT_TRUE(simd::select_kernels(isa));
    for (const Cell& cell : cells()) {
      SCOPED_TRACE(cell.name + " under " +
                   std::string(simd::active_kernel_name()));
      const auto pin = pins.find(cell.name);
      ASSERT_NE(pin, pins.end()) << "cell has no pin in " << kDigestFile;
      const Digests got = encode_and_decode(cell);
      EXPECT_EQ(hex(got.stream), hex(pin->second.stream));
      EXPECT_EQ(hex(got.samples), hex(pin->second.samples));
    }
  }
}

TEST(GoldenDigest, Regenerate) {
  if (!regenerating()) {
    GTEST_SKIP() << "set ACBM_GOLDEN_REGEN=1 to rewrite " << kDigestFile;
  }
  KernelSelectionGuard guard;
  ASSERT_TRUE(simd::select_kernels(simd::KernelIsa::kScalar));
  std::ofstream out(kDigestFile);
  ASSERT_TRUE(out) << "cannot write " << kDigestFile;
  out << "# Golden digests for tests/golden_digest_test.cpp: one line per\n"
         "# cell, <cell> <FNV-1a of the stream bytes> <decoder sample "
         "digest>.\n"
         "# Regenerate with ACBM_GOLDEN_REGEN=1 ./build/golden_digest_test\n";
  for (const Cell& cell : cells()) {
    const Digests got = encode_and_decode(cell);
    out << cell.name << ' ' << hex(got.stream) << ' ' << hex(got.samples)
        << '\n';
  }
}

}  // namespace
}  // namespace acbm::codec
