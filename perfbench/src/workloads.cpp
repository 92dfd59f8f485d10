#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "codec/service.hpp"
#include "core/acbm.hpp"
#include "core/builtin_estimators.hpp"
#include "probe.hpp"
#include "synth/sequences.hpp"
#include "video/psnr.hpp"

namespace perfbench {

namespace codec = acbm::codec;
namespace core = acbm::core;
namespace video = acbm::video;

namespace {

// Batch grid: every clip at 30 and 10 fps, at the paper's QPs 16..30 — 64
// streams of 20 frames, 1280 frames a pass. The loop repeats whole passes
// until the run's seconds are spent, and the encoded bytes of every repeat
// must equal the first pass's. A frame's latency sample is its median
// encode_frame time over the passes, so a frame that a host stall hit once
// does not make the tail.
constexpr int kBatchFps[] = {30, 10};
constexpr int kBatchQps[] = {16, 18, 20, 22, 24, 26, 28, 30};
constexpr int kBatchFrames = 20;

// Open loop: four sessions at kSessionFps each, staggered so the generator
// submits one frame every 1/40 s. Each clip is 15 frames long and the intra
// period is the same, so looping a clip restarts it on an intra frame.
//
// The pool has one worker (the least of the nproc - 1 the service may use).
// On a shared virtual machine the host varies how much parallel capacity
// the guest's cores get from second to second, and with several workers
// neither the frame latencies nor any probe of that capacity repeated from
// run to run; one worker at 10 fps per session keeps the service about
// two-thirds busy.
//
// The schedule runs in bursts of kBurstRounds rounds (one frame per session
// each), each followed by a kQuietNs window in which nothing is due. Once
// the service has drained, the window runs the speed probe; the timings of
// a burst are scaled by the probes on either side of it. Probing during a
// burst would compete with the service for the same core. Due times stay
// fixed whatever the service does: a burst starts on time even when the
// previous one has not drained (the window then goes unprobed).
constexpr int kServiceWorkers = 1;
constexpr int kBurstRounds = 10;
constexpr std::int64_t kQuietNs = 100'000'000;
constexpr int kSessions = 4;
constexpr int kServiceClipFrames = 15;
constexpr int kServiceQp = 16;
constexpr int kServiceSlices = 4;
constexpr std::int64_t kStartGraceNs = 20'000'000;
constexpr int kServiceProbes = 5;  ///< speed probes per quiet window
constexpr std::int64_t kIdlePollNs = 200'000;

// The open loop decodes its streams after the run (decoding beside it would
// steal the cores the service is measured on): at least twice and for at
// least this share of the run's seconds.
constexpr int kServiceDecodeReps = 2;
constexpr double kServiceDecodeShare = 0.2;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes,
                    std::uint64_t hash = kFnvOffset) {
  for (std::uint8_t b : bytes) {
    hash = (hash ^ b) * 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t hash) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return hash;
}

video::PictureSize picture_size(const Workload& workload) {
  return workload.service ? video::kCif : video::kQcif;
}

int mbs_per_frame(video::PictureSize size) {
  return (size.width / 16) * (size.height / 16);
}

codec::EncoderConfig batch_config(int qp, int fps) {
  codec::EncoderConfig config;
  config.qp = qp;
  config.fps_num = fps;
  return config;  // heuristic modes, one thread, one slice, p = 15
}

codec::EncoderConfig service_config() {
  codec::EncoderConfig config;
  config.qp = kServiceQp;
  config.mode_decision = codec::ModeDecision::kRateDistortion;
  config.deblock = true;
  config.slices = kServiceSlices;
  config.intra_period = kServiceClipFrames;
  config.fps_num = kSessionFps;
  return config;
}

/// The ACBM statistics behind `estimator` (through a TimedEstimator), or
/// nullptr for any other algorithm.
const core::Acbm* acbm_of(acbm::me::MotionEstimator& estimator) {
  if (auto* timed = dynamic_cast<TimedEstimator*>(&estimator)) {
    return dynamic_cast<const core::Acbm*>(&timed->inner());
  }
  return dynamic_cast<const core::Acbm*>(&estimator);
}

std::unique_ptr<acbm::me::MotionEstimator> make_estimator(
    const Workload& workload, bool traced, std::uint32_t stream) {
  auto estimator = core::builtin_estimators().create(workload.estimator);
  if (traced) {
    return std::make_unique<TimedEstimator>(std::move(estimator), stream);
  }
  return estimator;
}

/// Folds a traced estimator's spans and counts into the phase.
void collect_estimator(acbm::me::MotionEstimator& estimator, Phase& phase) {
  if (auto* timed = dynamic_cast<TimedEstimator*>(&estimator)) {
    phase.spans.insert(phase.spans.end(), timed->spans().begin(),
                       timed->spans().end());
    phase.me_calls += timed->spans().size();
    phase.me_positions += timed->positions();
  }
}

double ms_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

/// Running sums behind a Pin.
struct PinAccumulator {
  double psnr_sum = 0.0;
  std::uint64_t frames = 0;
  double kbps_sum = 0.0;
  std::uint64_t streams = 0;
  std::uint64_t p_positions = 0;
  std::uint64_t p_mbs = 0;
  Pin pin;

  void add_stream(const std::vector<codec::FrameReport>& reports, int fps,
                  int mbs, const core::Acbm* acbm,
                  const std::vector<std::uint8_t>& bytes) {
    std::uint64_t bits = 0;
    for (const codec::FrameReport& report : reports) {
      psnr_sum += report.psnr_y;
      ++frames;
      bits += report.bits;
      if (!report.intra) {
        p_positions += report.me_positions;
        p_mbs += static_cast<std::uint64_t>(mbs);
      }
      pin.mv_bits += report.mv_bits;
      pin.coeff_bits += report.coeff_bits;
      pin.header_bits += report.header_bits;
      pin.intra_mbs += static_cast<std::uint64_t>(report.intra_mbs);
      pin.inter_mbs += static_cast<std::uint64_t>(report.inter_mbs);
      pin.skip_mbs += static_cast<std::uint64_t>(report.skip_mbs);
    }
    if (!reports.empty()) {
      kbps_sum += static_cast<double>(bits) * fps /
                  static_cast<double>(reports.size()) / 1000.0;
      ++streams;
    }
    if (acbm != nullptr) {
      const core::AcbmStats& stats = acbm->stats();
      pin.blocks += stats.blocks;
      pin.t1_accepts += stats.accepted_low_activity;
      pin.t2_accepts += stats.accepted_good_match;
      pin.critical_blocks += stats.critical;
    }
    pin.stream_digest = fnv1a_u64(fnv1a(bytes), pin.stream_digest);
  }

  Pin finish() {
    pin.psnr_y_db = frames > 0 ? psnr_sum / static_cast<double>(frames) : 0;
    pin.kbps = streams > 0 ? kbps_sum / static_cast<double>(streams) : 0;
    pin.positions_per_mb =
        p_mbs > 0 ? static_cast<double>(p_positions) /
                        static_cast<double>(p_mbs)
                  : 0.0;
    return pin;
  }
};

/// Records a frame's stage timings (scaled to reference time) and the part
/// of `frame_ms` (already scaled) they do not cover.
void add_stage_samples(const codec::FrameReport& report, double frame_ms,
                       double scale, Phase& phase) {
  const double me = report.me_stage_seconds * 1e3 * scale;
  const double plan = report.plan_stage_seconds * 1e3 * scale;
  const double entropy = report.entropy_stage_seconds * 1e3 * scale;
  phase.me_ms.push_back(me);
  phase.plan_ms.push_back(plan);
  phase.entropy_ms.push_back(entropy);
  phase.other_ms.push_back(frame_ms - me - plan - entropy);
}

/// One stream to decode and check: its bytes, the reports the encoder gave
/// for its frames, the source frames (looped), and where its frames sit in
/// Phase::outcomes.
struct CheckedStream {
  std::string label;
  std::uint32_t id = 0;
  const Clip* clip = nullptr;
  std::vector<std::uint8_t> bytes;
  std::vector<codec::FrameReport> reports;
  std::size_t first_outcome = 0;
};

void mark_mismatch(const CheckedStream& stream, std::size_t frame,
                   Phase& phase) {
  const std::size_t index = stream.first_outcome + frame;
  if (frame < stream.reports.size() && index < phase.outcomes.size()) {
    phase.outcomes[index].outcome = Outcome::kMismatch;
  }
}

struct DecodeTiming {
  std::uint64_t frames = 0;
  double seconds = 0.0;  ///< decoder construction plus decoding
};

/// Decodes `stream` with a single-threaded Decoder, timing every
/// decode_frame call into the phase (scaled to reference time). With
/// `check` it also verifies the output: the decoded frame count, a clean
/// DecodeReport, and each frame's PSNR-Y against its source equal to the
/// encoder's report.
DecodeTiming decode_stream(const CheckedStream& stream, bool check,
                           bool traced, double scale, Phase& phase) {
  const std::int64_t stream_begin = now_ns();
  std::size_t index = 0;
  try {
    codec::Decoder decoder(stream.bytes, codec::DecoderConfig{});
    for (;; ++index) {
      const std::int64_t begin = now_ns();
      std::optional<video::Frame> frame = decoder.decode_frame();
      const std::int64_t end = now_ns();
      if (!frame) {
        break;
      }
      phase.decode_ms.push_back(ms_between(begin, end) * scale);
      if (traced) {
        phase.spans.push_back(Span{SpanKind::kDecode, thread_slot(),
                                   stream.id,
                                   static_cast<std::int32_t>(index), begin,
                                   end});
      }
      if (!check || index >= stream.reports.size()) {
        continue;  // a count mismatch is reported below
      }
      const video::Frame& source =
          stream.clip->frames[index % stream.clip->frames.size()];
      if (video::psnr_luma(source, *frame) != stream.reports[index].psnr_y) {
        mark_mismatch(stream, index, phase);
        phase.errors.push_back(stream.label + " frame " +
                               std::to_string(index) +
                               ": decoded PSNR-Y differs from the encoder's "
                               "report");
      }
    }
    if (check &&
        decoder.report().error_class != codec::DecodeErrorClass::kNone) {
      phase.errors.push_back(stream.label + ": decode report error: " +
                             decoder.report().error_message);
    }
  } catch (const std::exception& e) {
    if (check) {
      phase.errors.push_back(stream.label + ": decode failed: " + e.what());
    }
  }
  const DecodeTiming timing{
      index, static_cast<double>(now_ns() - stream_begin) / 1e9 * scale};
  if (check && index != stream.reports.size()) {
    for (std::size_t f = index; f < stream.reports.size(); ++f) {
      mark_mismatch(stream, f, phase);
    }
    phase.errors.push_back(stream.label + ": decoded " +
                           std::to_string(index) + " frames, encoded " +
                           std::to_string(stream.reports.size()));
  }
  return timing;
}

// ------------------------------------------------------------ batch loop

Phase run_batch(const Workload& workload, const Inputs& inputs,
                double seconds, bool traced, SpeedProbe& probe) {
  Phase phase;
  struct Cell {
    const Clip* clip;
    int qp;
    std::vector<std::vector<double>> frame_ms;  ///< per frame, per pass
  };
  std::vector<Cell> cells;
  for (const Clip& clip : inputs.clips) {
    for (int qp : kBatchQps) {
      cells.push_back(Cell{&clip, qp, std::vector<std::vector<double>>(
                                          clip.frames.size())});
    }
  }
  const int mbs = mbs_per_frame(video::kQcif);
  std::vector<std::uint64_t> first_digests;
  PinAccumulator pin;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::uint32_t stream_id = 0;
  bool done = false;
  for (std::size_t pass = 0; !done; ++pass) {
    for (std::size_t c = 0; c < cells.size() && !done; ++c, ++stream_id) {
      Cell& cell = cells[c];
      // The machine's speed right now: this stream's timings are scaled by
      // the median of this and the last four probes.
      probe.sample();
      const double scale = probe.scale();
      phase.stream_scale.push_back(scale);
      const std::int64_t stream_begin = now_ns();
      auto estimator = make_estimator(workload, traced, stream_id);
      codec::Encoder encoder(video::kQcif,
                             batch_config(cell.qp, cell.clip->fps),
                             *estimator);
      CheckedStream stream;
      stream.label = cell.clip->name + "@" +
                     std::to_string(cell.clip->fps) + "fps/qp" +
                     std::to_string(cell.qp);
      stream.id = stream_id;
      stream.clip = cell.clip;
      stream.first_outcome = phase.outcomes.size();
      const double limit_ms = 1000.0 / cell.clip->fps;
      for (std::size_t i = 0; i < cell.clip->frames.size(); ++i) {
        const std::int64_t begin = now_ns();
        codec::FrameReport report = encoder.encode_frame(cell.clip->frames[i]);
        const std::int64_t end = now_ns();
        const double raw_ms = ms_between(begin, end);
        const double ms = raw_ms * scale;
        cell.frame_ms[i].push_back(ms);
        phase.encode_ms.push_back(ms);
        // The deadline is real time: it is checked against the raw time.
        phase.outcomes.push_back(FrameOutcome{Outcome::kOk, raw_ms, limit_ms});
        add_stage_samples(report, ms, scale, phase);
        if (traced) {
          phase.spans.push_back(Span{SpanKind::kFrame, thread_slot(),
                                     stream_id, static_cast<std::int32_t>(i),
                                     begin, end});
        }
        stream.reports.push_back(report);
      }
      stream.bytes = encoder.finish();
      phase.encode_s +=
          static_cast<double>(now_ns() - stream_begin) / 1e9 * scale;
      phase.frames_encoded += stream.reports.size();
      collect_estimator(*estimator, phase);
      // Every stream is decoded and checked as soon as it is encoded, so
      // decode timings come from the same window as encode timings.
      const DecodeTiming decode =
          decode_stream(stream, /*check=*/true, traced, scale, phase);
      phase.decode_frames += decode.frames;
      phase.decode_s += decode.seconds;
      const std::uint64_t digest = fnv1a(stream.bytes);
      if (pass == 0) {
        pin.add_stream(stream.reports, cell.clip->fps, mbs,
                       acbm_of(*estimator), stream.bytes);
        first_digests.push_back(digest);
      } else if (digest != first_digests[c]) {
        phase.errors.push_back(stream.label + ": pass " +
                               std::to_string(pass) +
                               " bytes differ from pass 0");
        for (std::size_t f = 0; f < stream.reports.size(); ++f) {
          mark_mismatch(stream, f, phase);
        }
      }
      const bool first_pass_done = pass > 0 || c + 1 == cells.size();
      done = first_pass_done && now_ns() >= deadline;
    }
  }
  for (const Cell& cell : cells) {
    for (const std::vector<double>& passes : cell.frame_ms) {
      phase.frame_ms.push_back(median(passes));
    }
  }
  phase.frame_cost_ms =
      phase.encode_s * 1e3 / static_cast<double>(phase.frames_encoded);
  phase.pin = pin.finish();
  return phase;
}

// -------------------------------------------------------- open-loop service

/// Hands one session's futures from the generator to its collector.
struct Lane {
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::pair<int, std::future<codec::Packet>>> futures;
  bool closed = false;  // guarded by mutex
};

Outcome outcome_of(const codec::SessionError& error) {
  switch (error.error_class()) {
    case codec::SessionErrorClass::kTimeout:
      return Outcome::kTimedOut;
    case codec::SessionErrorClass::kOverloaded:
      return Outcome::kShed;
    default:
      return Outcome::kFailed;
  }
}

Phase run_service(const Workload& workload, const Inputs& inputs,
                  double seconds, bool traced, SpeedProbe& probe) {
  Phase phase;
  const int frames_per_session =
      std::max(1, static_cast<int>(seconds * kSessionFps));
  const std::int64_t interval_ns = 1'000'000'000 / (kSessionFps * kSessions);

  codec::EncoderService service(kServiceWorkers);
  std::vector<std::unique_ptr<codec::EncodeSession>> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(std::make_unique<codec::EncodeSession>(
        service, video::kCif, service_config(),
        make_estimator(workload, traced, static_cast<std::uint32_t>(s))));
  }

  struct Resolved {
    std::int64_t resolved_ns = 0;
    Outcome outcome = Outcome::kFailed;
    codec::FrameReport report;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<std::vector<Resolved>> resolved(
      kSessions, std::vector<Resolved>(
                     static_cast<std::size_t>(frames_per_session)));
  std::vector<Lane> lanes(kSessions);
  std::atomic<int> in_flight{0};

  // Probe samples of each quiet window: window 0 precedes the first burst,
  // window b follows burst b - 1.
  const int bursts = (frames_per_session + kBurstRounds - 1) / kBurstRounds;
  std::vector<std::vector<double>> window_probes(
      static_cast<std::size_t>(bursts) + 1);
  const auto probe_window = [&](int window, std::int64_t until_ns) {
    while (in_flight.load() > 0 && now_ns() + kIdlePollNs < until_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kIdlePollNs));
    }
    if (in_flight.load() > 0) {
      return;  // the service has not drained: leave the window unprobed
    }
    std::vector<double>& samples =
        window_probes[static_cast<std::size_t>(window)];
    for (int k = 0; k < kServiceProbes; ++k) {
      const double ms = probe.sample();
      samples.push_back(ms);
      if (now_ns() + static_cast<std::int64_t>(ms * 1e6) > until_ns) {
        break;
      }
    }
  };

  probe_window(0, std::numeric_limits<std::int64_t>::max());
  const std::int64_t t0 = now_ns() + kStartGraceNs;
  const auto due_ns = [&](int frame, int session) {
    return t0 +
           (static_cast<std::int64_t>(frame) * kSessions + session) *
               interval_ns +
           static_cast<std::int64_t>(frame / kBurstRounds) * kQuietNs;
  };

  // Collectors only block on futures; the pool's worker and the generator
  // are the threads that compute.
  std::vector<std::thread> collectors;
  for (int s = 0; s < kSessions; ++s) {
    collectors.emplace_back([&, s] {
      Lane& lane = lanes[static_cast<std::size_t>(s)];
      for (;;) {
        std::pair<int, std::future<codec::Packet>> item;
        {
          std::unique_lock lock(lane.mutex);
          lane.ready.wait(lock,
                          [&] { return lane.closed || !lane.futures.empty(); });
          if (lane.futures.empty()) {
            return;
          }
          item = std::move(lane.futures.front());
          lane.futures.pop_front();
        }
        Resolved& out = resolved[static_cast<std::size_t>(s)]
                                [static_cast<std::size_t>(item.first)];
        try {
          codec::Packet packet = item.second.get();
          out.resolved_ns = now_ns();
          out.outcome = Outcome::kOk;
          out.report = packet.report;
          out.bytes = std::move(packet.bytes);
        } catch (const codec::SessionError& error) {
          out.resolved_ns = now_ns();
          out.outcome = outcome_of(error);
        } catch (...) {
          out.resolved_ns = now_ns();
          out.outcome = Outcome::kFailed;
        }
        in_flight.fetch_sub(1);
      }
    });
  }
  const auto close_lanes = [&] {
    for (Lane& lane : lanes) {
      {
        std::lock_guard lock(lane.mutex);
        lane.closed = true;
      }
      lane.ready.notify_all();
    }
    for (std::thread& collector : collectors) {
      collector.join();
    }
  };

  try {
    for (int i = 0; i < frames_per_session; ++i) {
      if (i > 0 && i % kBurstRounds == 0) {
        probe_window(i / kBurstRounds, due_ns(i, 0));
      }
      for (int s = 0; s < kSessions; ++s) {
        const std::int64_t due = due_ns(i, s);
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
        const Clip& clip = inputs.clips[static_cast<std::size_t>(s)];
        const std::int64_t begin = now_ns();
        in_flight.fetch_add(1);
        std::future<codec::Packet> future =
            sessions[static_cast<std::size_t>(s)]->submit(
                clip.frames[static_cast<std::size_t>(i) % clip.frames.size()]);
        const std::int64_t end = now_ns();
        phase.gen_lag_ms.push_back(ms_between(due, begin));
        phase.submit_us.push_back(static_cast<double>(end - begin) / 1e3);
        Lane& lane = lanes[static_cast<std::size_t>(s)];
        {
          std::lock_guard lock(lane.mutex);
          lane.futures.emplace_back(i, std::move(future));
        }
        lane.ready.notify_one();
      }
    }
  } catch (...) {
    close_lanes();
    throw;
  }
  close_lanes();
  probe_window(bursts, std::numeric_limits<std::int64_t>::max());

  // Burst b's scale comes from the windows on either side of it (falling
  // back to every window when both went unprobed).
  std::vector<double> all_probes;
  for (const std::vector<double>& samples : window_probes) {
    all_probes.insert(all_probes.end(), samples.begin(), samples.end());
  }
  std::vector<double> burst_scale;
  for (int b = 0; b < bursts; ++b) {
    std::vector<double> around = window_probes[static_cast<std::size_t>(b)];
    const std::vector<double>& after =
        window_probes[static_cast<std::size_t>(b) + 1];
    around.insert(around.end(), after.begin(), after.end());
    burst_scale.push_back(kReferenceProbeMs /
                          median(around.empty() ? all_probes : around));
  }
  const auto scale_of = [&](int frame) {
    return burst_scale[static_cast<std::size_t>(frame / kBurstRounds)];
  };
  phase.stream_scale.assign(kSessions,
                            kReferenceProbeMs / median(all_probes));
  for (std::size_t k = 0; k < phase.gen_lag_ms.size(); ++k) {
    const double scale = scale_of(static_cast<int>(k) / kSessions);
    phase.gen_lag_ms[k] *= scale;
    phase.submit_us[k] *= scale;
  }

  const int mbs = mbs_per_frame(video::kCif);
  PinAccumulator pin;
  std::vector<CheckedStream> streams;
  std::int64_t last_resolved = t0;
  for (int s = 0; s < kSessions; ++s) {
    codec::EncodeSession& session = *sessions[static_cast<std::size_t>(s)];
    CheckedStream stream;
    stream.label = inputs.clips[static_cast<std::size_t>(s)].name + "@cif";
    stream.id = static_cast<std::uint32_t>(s);
    stream.clip = &inputs.clips[static_cast<std::size_t>(s)];
    stream.first_outcome = phase.outcomes.size();
    std::vector<std::uint8_t> concatenated;
    for (int i = 0; i < frames_per_session; ++i) {
      Resolved& r = resolved[static_cast<std::size_t>(s)]
                            [static_cast<std::size_t>(i)];
      const std::int64_t due = due_ns(i, s);
      const double latency =
          open_loop_latency_ms(static_cast<double>(due) / 1e6,
                               static_cast<double>(r.resolved_ns) / 1e6);
      phase.outcomes.push_back(
          FrameOutcome{r.outcome, latency, kServiceLimitMs});
      last_resolved = std::max(last_resolved, r.resolved_ns);
      if (r.outcome != Outcome::kOk) {
        phase.errors.push_back(stream.label + " frame " + std::to_string(i) +
                               " did not resolve to a packet");
        continue;
      }
      const double scale = scale_of(i);
      const double frame_wall_ms = r.report.frame_wall_seconds * 1e3 * scale;
      phase.frame_ms.push_back(latency * scale);
      phase.encode_ms.push_back(frame_wall_ms);
      phase.queue_wait_ms.push_back(latency * scale - frame_wall_ms);
      add_stage_samples(r.report, frame_wall_ms, scale, phase);
      if (traced) {
        phase.spans.push_back(Span{SpanKind::kFrame, 0, stream.id, i, due,
                                   r.resolved_ns});
      }
      concatenated.insert(concatenated.end(), r.bytes.begin(), r.bytes.end());
      stream.reports.push_back(r.report);
    }
    stream.bytes = session.finish();
    if (stream.bytes != concatenated) {
      phase.errors.push_back(stream.label +
                             ": packet bytes differ from finish()");
      for (std::size_t f = 0; f < stream.reports.size(); ++f) {
        mark_mismatch(stream, f, phase);
      }
    }
    collect_estimator(session.estimator(), phase);
    pin.add_stream(stream.reports, kSessionFps, mbs,
                   acbm_of(session.estimator()), stream.bytes);
    streams.push_back(std::move(stream));
  }
  phase.frames_encoded = phase.encode_ms.size();
  phase.encode_s = static_cast<double>(last_resolved - t0) / 1e9;
  phase.frame_cost_ms = std::accumulate(phase.encode_ms.begin(),
                                        phase.encode_ms.end(), 0.0) /
                        static_cast<double>(phase.encode_ms.size());
  phase.svc = service.stats();
  phase.pin = pin.finish();
  sessions.clear();
  const std::int64_t decode_begin = now_ns();
  const auto decode_min_ns =
      static_cast<std::int64_t>(kServiceDecodeShare * seconds * 1e9);
  for (int rep = 0; rep < kServiceDecodeReps ||
                    now_ns() - decode_begin < decode_min_ns;
       ++rep) {
    for (const CheckedStream& stream : streams) {
      probe.sample();
      const DecodeTiming timing =
          decode_stream(stream, /*check=*/rep == 0, traced && rep == 0,
                        probe.scale(), phase);
      phase.decode_frames += timing.frames;
      phase.decode_s += timing.seconds;
    }
  }
  return phase;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"acbm-qcif", false, "ACBM"},
      {"fsbm-qcif", false, "FSBM"},
      {"rd-cif-service", true, "ACBM"},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

Inputs make_inputs(const Workload& workload, std::uint64_t seed) {
  Inputs inputs;
  const std::vector<int> rates =
      workload.service ? std::vector<int>{kSessionFps}
                       : std::vector<int>(std::begin(kBatchFps),
                                          std::end(kBatchFps));
  for (int fps : rates) {
    for (const std::string& name : acbm::synth::standard_sequence_names()) {
      acbm::synth::SequenceRequest request;
      request.name = name;
      request.size = picture_size(workload);
      request.frame_count =
          workload.service ? kServiceClipFrames : kBatchFrames;
      request.fps = fps;
      request.seed = seed;
      const std::int64_t begin = now_ns();
      Clip clip{name, fps, acbm::synth::make_sequence(request)};
      inputs.synth_seconds += static_cast<double>(now_ns() - begin) / 1e9;
      inputs.clips.push_back(std::move(clip));
    }
  }
  return inputs;
}

void construct_encoders(const Workload& workload) {
  if (workload.service) {
    codec::EncoderService service(kServiceWorkers);
    std::vector<std::unique_ptr<codec::EncodeSession>> sessions;
    for (int s = 0; s < kSessions; ++s) {
      sessions.push_back(std::make_unique<codec::EncodeSession>(
          service, video::kCif, service_config(),
          core::builtin_estimators().create(workload.estimator)));
    }
  } else {
    for (int fps : kBatchFps) {
      for (int qp : kBatchQps) {
        for (std::size_t c = 0;
             c < acbm::synth::standard_sequence_names().size(); ++c) {
          auto estimator = core::builtin_estimators().create(workload.estimator);
          codec::Encoder encoder(video::kQcif, batch_config(qp, fps),
                                 *estimator);
        }
      }
    }
  }
}

Phase run_phase(const Workload& workload, const Inputs& inputs,
                double seconds, bool traced, SpeedProbe& probe) {
  return workload.service
             ? run_service(workload, inputs, seconds, traced, probe)
             : run_batch(workload, inputs, seconds, traced, probe);
}

std::string Pin::to_json() const {
  char buffer[768];
  std::snprintf(
      buffer, sizeof buffer,
      "{\"psnr_y_db\": %.17g, \"kbps\": %.17g, \"positions_per_mb\": %.17g, "
      "\"core.blocks\": %" PRIu64 ", \"core.t1_accepts\": %" PRIu64
      ", \"core.t2_accepts\": %" PRIu64 ", \"core.critical_blocks\": %" PRIu64
      ", \"enc.mv_bits\": %" PRIu64 ", \"enc.coeff_bits\": %" PRIu64
      ", \"enc.header_bits\": %" PRIu64 ", \"enc.intra_mbs\": %" PRIu64
      ", \"enc.inter_mbs\": %" PRIu64 ", \"enc.skip_mbs\": %" PRIu64
      ", \"stream_digest\": \"%016" PRIx64 "\"}",
      psnr_y_db, kbps, positions_per_mb, blocks, t1_accepts, t2_accepts,
      critical_blocks, mv_bits, coeff_bits, header_bits, intra_mbs, inter_mbs,
      skip_mbs, stream_digest);
  return buffer;
}

// ------------------------------------------------------------------ spans

std::uint32_t thread_slot() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot = next.fetch_add(1);
  return slot;
}

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kFrame:
      return "frame";
    case SpanKind::kEstimate:
      return "estimate";
    case SpanKind::kDecode:
      return "decode";
  }
  return "?";
}

void write_spans_json(const std::string& path, std::vector<Span> spans,
                      std::int64_t origin_ns, std::size_t max_estimates) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     return a.begin_ns < b.begin_ns;
                   });
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write spans to " + path);
  }
  std::size_t estimates = 0;
  std::size_t dropped = 0;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  char line[256];
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kEstimate && estimates++ >= max_estimates) {
      ++dropped;
      continue;
    }
    std::snprintf(line, sizeof line,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %u, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"stream\": %u, \"frame\": %d}}",
                  first ? "" : ",\n", span_kind_name(span.kind),
                  span.stream, span.thread,
                  static_cast<double>(span.begin_ns - origin_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.begin_ns) / 1e3,
                  span.stream, span.frame);
    out << line;
    first = false;
  }
  out << "\n], \"otherData\": {\"estimate_spans_not_written\": " << dropped
      << "}}\n";
}

}  // namespace perfbench
