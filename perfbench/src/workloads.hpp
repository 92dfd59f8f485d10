#pragma once
// The benchmark's workloads and what one measured phase of them yields.
//
//   acbm-qcif       closed-loop batch: ACBM at the paper's defaults, QCIF,
//                   30 and 10 fps, QP 16..30, heuristic modes, one thread,
//                   one slice; each frame goes to Encoder::encode_frame as
//                   soon as the previous call returns.
//   fsbm-qcif       the same inputs and settings with FSBM at p = 15.
//   rd-cif-service  open loop: one EncoderService (one pool worker), four
//                   EncodeSessions (one clip each) at CIF, ACBM, RD modes,
//                   deblocking, 4 slices, a fixed intra period; one
//                   generator thread submits 10 frames/s per session on a
//                   fixed schedule.
//
// Every workload uses the synthetic carphone, foreman, miss_america and
// table clips; the seed reaches the library only as SequenceRequest::seed.

#include <cstdint>
#include <string>
#include <vector>

#include "arith.hpp"
#include "codec/service_stats.hpp"
#include "probe.hpp"
#include "spans.hpp"
#include "video/frame.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  bool service = false;   ///< open-loop EncoderService workload
  std::string estimator;  ///< registry spec the encoders run
};

/// acbm-qcif, fsbm-qcif, rd-cif-service.
[[nodiscard]] const std::vector<Workload>& workloads();

/// The workload called `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// One synthesized clip at the rate it is encoded at.
struct Clip {
  std::string name;
  int fps = 30;
  std::vector<acbm::video::Frame> frames;
};

struct Inputs {
  std::vector<Clip> clips;
  double synth_seconds = 0.0;  ///< time spent in synth::make_sequence
};

/// Synthesizes the workload's clips from `seed` (timed per make_sequence
/// call into Inputs::synth_seconds).
[[nodiscard]] Inputs make_inputs(const Workload& workload,
                                 std::uint64_t seed);

/// Builds and tears down the encoders (batch) or the service and its
/// sessions (open loop) one phase of the workload starts from; the other
/// half of set-up time.
void construct_encoders(const Workload& workload);

/// The counts that must repeat exactly for a seed: the paper's quality and
/// load figures, ACBM's decisions and the encoder's bit and mode tallies.
/// A traced phase that changes any of them measures a different program.
struct Pin {
  double psnr_y_db = 0.0;
  double kbps = 0.0;
  double positions_per_mb = 0.0;
  std::uint64_t blocks = 0;  ///< ACBM blocks decided (0 for FSBM)
  std::uint64_t t1_accepts = 0;
  std::uint64_t t2_accepts = 0;
  std::uint64_t critical_blocks = 0;
  std::uint64_t mv_bits = 0;
  std::uint64_t coeff_bits = 0;
  std::uint64_t header_bits = 0;
  std::uint64_t intra_mbs = 0;
  std::uint64_t inter_mbs = 0;
  std::uint64_t skip_mbs = 0;
  std::uint64_t stream_digest = 0;  ///< FNV-1a over every distinct stream

  friend bool operator==(const Pin&, const Pin&) = default;
  [[nodiscard]] std::string to_json() const;
};

/// Everything one measured phase (untraced or traced) produced.
struct Phase {
  Pin pin;
  // The figures behind encode_fps and decode_fps: frames over seconds, in
  // reference time. The open loop counts completed frames over the
  // schedule's wall time.
  std::uint64_t frames_encoded = 0;
  double encode_s = 0.0;
  std::uint64_t decode_frames = 0;
  double decode_s = 0.0;  ///< decoder construction plus decoding
  /// Latency samples: each batch frame's median encode_frame time over the
  /// passes; every open-loop frame's due-to-resolved time.
  std::vector<double> frame_ms;
  /// Mean encode time per frame (open loop: FrameReport frame wall) — what
  /// trace.overhead_pct compares.
  double frame_cost_ms = 0.0;
  std::vector<double> encode_ms;  ///< every encode: call time or frame wall
  std::vector<FrameOutcome> outcomes;  ///< one per offered frame
  std::vector<double> decode_ms;       ///< per decode_frame call
  std::vector<double> me_ms, plan_ms, entropy_ms, other_ms;  ///< per frame
  // Open loop only.
  std::vector<double> submit_us;      ///< EncodeSession::submit duration
  std::vector<double> queue_wait_ms;  ///< latency minus frame wall
  std::vector<double> gen_lag_ms;     ///< submit start minus due time
  acbm::codec::ServiceStats svc;
  /// Raw-to-reference time scale of each stream (indexed by Span::stream);
  /// every timing above is already scaled, spans keep raw timestamps.
  std::vector<double> stream_scale;
  // Traced phases only.
  std::vector<Span> spans;
  std::uint64_t me_calls = 0;
  std::uint64_t me_positions = 0;
  /// Output-check and determinism failures, one line each.
  std::vector<std::string> errors;
};

/// Runs one phase for `seconds`: encodes, decodes and checks every stream
/// (the batch workloads decode each stream right after encoding it and
/// always finish their first pass over the input grid; the open loop
/// decodes after its schedule ends). `traced` wraps each estimator in a
/// TimedEstimator and records frame and decode spans. Timings are scaled
/// to reference time with `probe` (see probe.hpp).
[[nodiscard]] Phase run_phase(const Workload& workload, const Inputs& inputs,
                              double seconds, bool traced, SpeedProbe& probe);

/// Frames per second each open-loop session is offered.
inline constexpr int kSessionFps = 10;

/// Latency limit of the open-loop workload: one frame interval.
inline constexpr double kServiceLimitMs = 1000.0 / kSessionFps;

}  // namespace perfbench
