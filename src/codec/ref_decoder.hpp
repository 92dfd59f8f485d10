#pragma once
// Deliberately naive reference decoder for ACV1/ACV2 bitstreams.
//
// This is the cross-validation layer of the verification pyramid
// (docs/TESTING.md): a second, independent implementation of the decoder
// written directly from the wire format documented in encoder.hpp and
// docs/ARCHITECTURE.md. It shares no code with codec::Decoder — it has its
// own bit reader, its own exp-Golomb codes, derives the zig-zag scan
// algorithmically instead of importing the table, samples the reference
// picture with coordinate clamping instead of replicated borders, and is
// single-threaded, scalar, and allocation-happy throughout. Anything the two
// decoders agree on is therefore attested by two codebases, which is what
// lets SIMD kernels, slice-parallel decoding, and pipelining changes in the
// optimized decoder be tested differentially instead of trusted.
//
// Sample-exactness contract: the wire format pins not just bit layout but
// reconstruction arithmetic. Two points are normative beyond the obvious
// integer formulas:
//   * the inverse DCT is computed in doubles over the orthonormal basis
//     b[u][x] = 0.5·C(u)·cos((2x+1)uπ/16), accumulated columns-first then
//     rows, and rounded with lround — both decoders follow that exact
//     evaluation order so they produce identical IEEE-754 doubles. Every
//     product is rounded to double before it is added: no fused
//     multiply-add. The library is built with -ffp-contract=off
//     (CMakeLists.txt) because compilers otherwise contract a*b+c into an
//     FMA wherever the target has one (GCC does on arm64), which changes
//     reconstructed samples. The same rule binds the encoder's forward DCT,
//     whose coefficients decide the quantized levels, and every SIMD
//     variant of both transforms (simd/sad_kernels.hpp);
//   * motion vectors are valid when the compensated 16×16 read stays within
//     23 samples of the picture edge (the optimized decoder's 24-sample
//     replicated border minus the one sample reserved for the half-pel
//     overread). Out-of-range vectors are stream corruption.
// Corruption behaviour is mirrored too: directory-level damage throws,
// per-slice payload damage conceals, so the pair can be used as a
// differential oracle on corrupt inputs as well as clean ones.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

namespace acbm::codec {

/// Raised on malformed bitstreams (the reference decoder's analogue of
/// DecodeError; a distinct type so the two implementations stay disjoint).
class RefDecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A decoded picture: tightly packed row-major planes, no border padding.
struct RefPicture {
  int width = 0;   ///< luma width
  int height = 0;  ///< luma height
  std::vector<std::uint8_t> y;   ///< width × height
  std::vector<std::uint8_t> cb;  ///< (width/2) × (height/2)
  std::vector<std::uint8_t> cr;  ///< (width/2) × (height/2)
};

class RefDecoder {
 public:
  /// Parses the sequence header; throws RefDecodeError when `data` is not an
  /// ACV1/ACV2 stream. The buffer is copied. `conceal_resync` mirrors the
  /// optimized decoder's conceal=resync policy: an independent
  /// implementation of the normative recovery rules in docs/RESILIENCE.md
  /// (directory damage conceals the frame's unreachable rows, frame-header
  /// damage scans forward for the next validating frame header), so the
  /// decoder pair stays a differential oracle under channel damage.
  explicit RefDecoder(std::span<const std::uint8_t> data,
                      bool conceal_resync = false);

  /// Decodes the next frame; std::nullopt at clean end-of-stream. Throws
  /// RefDecodeError on unconcealable corruption (same conditions as the
  /// optimized decoder: anything before the slice payloads; for V2 streams
  /// under conceal_resync, never).
  std::optional<RefPicture> decode_frame();

  /// Decodes every remaining frame.
  std::vector<RefPicture> decode_all();

  [[nodiscard]] int version() const { return version_; }
  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] int fps_num() const { return fps_num_; }
  [[nodiscard]] int fps_den() const { return fps_den_; }

  /// Slice count of the most recently decoded frame (1 before any frame and
  /// for every ACV1 frame).
  [[nodiscard]] int last_frame_slices() const { return last_frame_slices_; }

  /// Total slices concealed so far.
  [[nodiscard]] std::uint64_t concealed_slices() const {
    return concealed_slices_;
  }

  /// conceal_resync recovery events so far (damaged directories or frame
  /// headers skipped over; the optimized decoder's resync_skips analogue).
  [[nodiscard]] std::uint64_t resync_skips() const { return resync_skips_; }

  /// MSB-first bit cursor with the wire format's exhaustion semantics:
  /// reads past the end deliver zero bits and latch `exhausted`. Public so
  /// the file-local entropy helpers in ref_decoder.cpp can take one.
  struct BitCursor {
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;       ///< bytes
    std::size_t bit_pos = 0;
    bool exhausted = false;

    std::uint64_t get_bits(int count);
    bool get_bit() { return get_bits(1) != 0; }
    void align();
    void skip_bits(std::size_t count);
    [[nodiscard]] std::size_t bit_size() const { return size * 8; }
    [[nodiscard]] std::size_t bits_left() const {
      return bit_size() - bit_pos;
    }
  };

 private:
  std::optional<RefPicture> decode_frame_strict();
  std::optional<RefPicture> decode_frame_resync();
  RefPicture fresh_picture();
  void finish_frame(RefPicture& out, int qp, bool deblock);
  void decode_frame_v1(RefPicture& out, int qp, bool inter_frame);
  void decode_frame_slices(RefPicture& out, int qp, bool inter_frame);
  void decode_frame_slices_resync(RefPicture& out, int qp, bool inter_frame);
  /// Scans data_ from `from_byte` for the next byte offset validating as a
  /// complete frame header + slice directory and repositions the cursor
  /// there; false (cursor at end) when none does.
  bool find_restart(std::size_t from_byte);
  bool decode_rows(BitCursor& bc, RefPicture& out, int qp, bool inter_frame,
                   int row_begin, int row_end, int first_row);
  void conceal_rows(RefPicture& out, int row_begin, int row_end);
  bool decode_intra_mb(BitCursor& bc, RefPicture& out, int bx, int by, int qp);
  bool decode_inter_mb(BitCursor& bc, RefPicture& out, int bx, int by, int qp,
                       int mvx, int mvy);
  void copy_skip_mb(RefPicture& out, int bx, int by);
  [[nodiscard]] bool mv_in_reference(int mvx, int mvy, int x, int y) const;
  void predicted_mv(int bx, int by, int first_row, int& px, int& py) const;

  std::vector<std::uint8_t> data_;
  BitCursor reader_;
  int version_ = 1;
  int width_ = 0;
  int height_ = 0;
  int fps_num_ = 0;
  int fps_den_ = 0;
  int mbs_x_ = 0;
  int mbs_y_ = 0;
  bool first_frame_ = true;
  bool conceal_resync_ = false;
  int last_frame_slices_ = 1;
  std::uint64_t concealed_slices_ = 0;
  std::uint64_t resync_skips_ = 0;
  RefPicture ref_;              ///< previous reconstruction
  std::vector<int> coded_mvx_;  ///< per-MB coded vectors of the current frame
  std::vector<int> coded_mvy_;
};

}  // namespace acbm::codec
