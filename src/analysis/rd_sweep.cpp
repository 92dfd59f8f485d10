#include "analysis/rd_sweep.hpp"

#include <stdexcept>

#include "codec/config_map.hpp"
#include "core/builtin_estimators.hpp"
#include "util/kv.hpp"

namespace acbm::analysis {

std::unique_ptr<me::MotionEstimator> make_estimator(std::string_view spec) {
  return core::builtin_estimators().create(spec);
}

RdPoint run_rd_point(const std::vector<video::Frame>& frames, int fps,
                     me::MotionEstimator& estimator, int qp,
                     const SweepConfig& config) {
  if (frames.empty()) {
    throw std::invalid_argument("rd sweep: no frames");
  }
  estimator.reset();

  codec::EncoderConfig ec;
  ec.qp = qp;
  ec.search_range = config.search_range;
  ec.half_pel = config.half_pel;
  ec.me_lambda = config.me_lambda;
  ec.mode_decision = config.mode_decision;
  ec.deblock = config.deblock;
  ec.parallel = config.parallel;
  ec.slices = config.slices;
  ec.fps_num = fps;
  ec.fps_den = 1;

  const video::PictureSize size{frames[0].width(), frames[0].height()};
  codec::Encoder encoder(size, ec, estimator);

  double psnr_y_sum = 0.0;
  double psnr_yuv_sum = 0.0;
  std::uint64_t total_bits = 0;
  std::uint64_t mv_bits = 0;
  std::uint64_t me_positions = 0;
  std::uint64_t fs_blocks = 0;
  std::uint64_t p_mbs = 0;
  std::uint64_t skip_mbs = 0;
  double smoothness_sum = 0.0;
  int p_frames = 0;

  const int mbs_per_frame =
      (size.width / me::kBlockSize) * (size.height / me::kBlockSize);

  for (const video::Frame& frame : frames) {
    const codec::FrameReport r = encoder.encode_frame(frame);
    psnr_y_sum += r.psnr_y;
    psnr_yuv_sum += r.psnr_yuv;
    total_bits += r.bits;
    mv_bits += r.mv_bits;
    if (!r.intra) {
      me_positions += r.me_positions;
      fs_blocks += r.full_search_blocks;
      p_mbs += static_cast<std::uint64_t>(mbs_per_frame);
      skip_mbs += static_cast<std::uint64_t>(r.skip_mbs);
      smoothness_sum += r.me_field_smoothness;
      ++p_frames;
    }
  }

  const double n = static_cast<double>(frames.size());
  RdPoint point;
  point.qp = qp;
  point.psnr_y = psnr_y_sum / n;
  point.psnr_yuv = psnr_yuv_sum / n;
  point.kbps = static_cast<double>(total_bits) * fps / n / 1000.0;
  if (p_mbs > 0) {
    point.avg_positions =
        static_cast<double>(me_positions) / static_cast<double>(p_mbs);
    point.full_search_fraction =
        static_cast<double>(fs_blocks) / static_cast<double>(p_mbs);
    point.skip_fraction =
        static_cast<double>(skip_mbs) / static_cast<double>(p_mbs);
  }
  point.mv_bits_share =
      total_bits > 0
          ? static_cast<double>(mv_bits) / static_cast<double>(total_bits)
          : 0.0;
  point.field_smoothness = p_frames > 0 ? smoothness_sum / p_frames : 0.0;
  return point;
}

RdCurve run_rd_sweep(const std::vector<video::Frame>& frames, int fps,
                     std::string_view estimator_spec,
                     const SweepConfig& config,
                     const std::string& sequence_name) {
  RdCurve curve;
  curve.sequence = sequence_name;
  curve.algorithm = std::string(estimator_spec);
  curve.fps = fps;
  const auto estimator = make_estimator(estimator_spec);
  for (int qp : config.qps) {
    curve.points.push_back(
        run_rd_point(frames, fps, *estimator, qp, config));
  }
  return curve;
}

// ------------------------------------------------------- SweepConfig specs

namespace {

/// The sweep keys that map 1:1 onto EncoderConfig fields (run_rd_point
/// copies them straight across). Their parsing, types and ranges live in
/// codec/config_map.cpp's single key table; from_spec delegates so the two
/// grammars cannot drift.
constexpr const char* kSharedKeys[] = {"range",   "halfpel", "me_lambda",
                                       "mode",    "deblock", "slices",
                                       "threads"};

std::string sweep_spec_usage() {
  std::string out =
      "sweep config grammar: key=val[,key=val...] over\n"
      "  qps=16:18:20:22:24:26:28:30 (colon-separated quantisers; empty "
      "list allowed)\n";
  out += "plus these keys, with the same types/ranges as the encoder "
         "config grammar:\n ";
  for (const char* key : kSharedKeys) {
    out += ' ';
    out += key;
  }
  out += "\n(estimator parameters like alpha/beta/gamma belong in the "
         "estimator spec, e.g. \"ACBM:alpha=500\")\n";
  return out;
}

}  // namespace

SweepConfig SweepConfig::from_spec(std::string_view spec) {
  return from_spec(spec, SweepConfig{});
}

SweepConfig SweepConfig::from_spec(std::string_view spec,
                                   const SweepConfig& base) {
  SweepConfig config = base;
  std::vector<util::KeyValue> shared;
  for (const util::KeyValue& pair : util::parse_kv_list(spec)) {
    if (pair.first == "qps") {
      // Colon-separated so the list nests inside the comma-separated pair
      // grammar; an empty value is the empty list (to_spec round-trip).
      std::vector<int> qps;
      const std::string& list = pair.second;
      std::size_t begin = 0;
      while (begin <= list.size() && !list.empty()) {
        std::size_t end = list.find(':', begin);
        if (end == std::string_view::npos) {
          end = list.size();
        }
        // An empty entry (leading/trailing/double colon) throws here.
        const std::int64_t qp = util::parse_int_strict(
            list.substr(begin, end - begin), "qps entry");
        if (qp < 1 || qp > 31) {
          throw util::SpecError("sweep config: qp " + std::to_string(qp) +
                                " out of range [1, 31]");
        }
        qps.push_back(static_cast<int>(qp));
        if (end == list.size()) {
          break;
        }
        begin = end + 1;
      }
      config.qps = std::move(qps);
      continue;
    }
    bool is_shared = false;
    for (const char* key : kSharedKeys) {
      if (pair.first == key) {
        is_shared = true;
        break;
      }
    }
    if (!is_shared) {
      throw util::SpecError("sweep config: unknown key \"" + pair.first +
                            "\"; valid keys:\n" + sweep_spec_usage());
    }
    shared.push_back(pair);
  }

  // Round-trip the shared keys through the codec key table: sweep fields →
  // EncoderConfig, apply the pairs (validated there), copy back.
  codec::EncoderConfig ec;
  ec.search_range = config.search_range;
  ec.half_pel = config.half_pel;
  ec.me_lambda = config.me_lambda;
  ec.mode_decision = config.mode_decision;
  ec.deblock = config.deblock;
  ec.slices = config.slices;
  ec.parallel.threads = config.parallel.threads;
  ec = codec::encoder_config_from_spec(util::format_kv_list(shared), ec);
  config.search_range = ec.search_range;
  config.half_pel = ec.half_pel;
  config.me_lambda = ec.me_lambda;
  config.mode_decision = ec.mode_decision;
  config.deblock = ec.deblock;
  config.slices = ec.slices;
  config.parallel.threads = ec.parallel.threads;
  return config;
}

std::string SweepConfig::to_spec() const {
  std::string out = "qps=";
  for (std::size_t i = 0; i < qps.size(); ++i) {
    if (i > 0) {
      out += ':';
    }
    out += std::to_string(qps[i]);
  }
  out += ",range=" + std::to_string(search_range);
  out += std::string(",halfpel=") + (half_pel ? "1" : "0");
  out += ",me_lambda=" + util::format_double(me_lambda);
  out += std::string(",mode=") +
         (mode_decision == codec::ModeDecision::kRateDistortion
              ? "rd"
              : "heuristic");
  out += std::string(",deblock=") + (deblock ? "1" : "0");
  out += ",slices=" + std::to_string(slices);
  out += ",threads=" + std::to_string(parallel.threads);
  return out;
}

}  // namespace acbm::analysis
