// The repository benchmark program. One run synthesizes a workload's inputs
// from --seed, encodes for --seconds through the library's public API,
// decodes and checks every stream, and prints its metrics; the last line of
// stdout is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same phase
// untraced and then traced (estimators wrapped in TimedEstimator, frame and
// decode spans recorded), requires both to produce identical deterministic
// counts, and prints the per-layer metrics. perfbench/run.py builds this
// binary and is the documented entry point; see perfbench/README.md.
//
// Exit status: 0 when every check passed, 1 when an output or determinism
// check failed (the result line is still printed, with "correct": false),
// 2 on a usage or configuration error (no result line).

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "arith.hpp"
#include "core/builtin_estimators.hpp"
#include "probe.hpp"
#include "simd/dispatch.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

constexpr int kSetupReps = 3;
constexpr int kSetupProbes = 3;  ///< speed probes between set-ups
constexpr std::size_t kMaxWrittenEstimateSpans = 65536;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>] [--spans-out <file>]\n"
               "workloads:";
  for (const Workload& workload : workloads()) {
    std::cerr << ' ' << workload.name;
  }
  std::cerr << '\n';
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--commit") {
        options.commit = value;
      } else if (flag == "--spans-out") {
        options.spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (find_workload(options.workload) == nullptr) {
    usage("unknown workload '" + options.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace || !(options.seconds > 0)) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  return options;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// Metrics in print order, each with its unit.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }

  void print_table(std::ostream& out) const {
    for (const Row& row : rows_) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-24s %16.6f %s\n",
                    row.name.c_str(), row.value, row.unit.c_str());
      out << line;
    }
  }

  [[nodiscard]] std::string json() const {
    std::string text = "{";
    char value[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(value, sizeof value, "%.17g", rows_[i].value);
      text += (i == 0 ? "\"" : ", \"") + rows_[i].name + "\": {\"value\": " +
              value + ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return text + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

std::string context_json(const Options& options) {
  const auto& registry = acbm::core::builtin_estimators();
  std::string specs;
  for (const Workload& workload : workloads()) {
    const std::string entry = "\"" + workload.estimator + "\": \"" +
                              registry.canonical_spec(workload.estimator) +
                              "\"";
    if (specs.find(entry) == std::string::npos) {
      specs += (specs.empty() ? "" : ", ") + entry;
    }
  }
  return "{\"workload\": \"" + options.workload +
         "\", \"seed\": " + std::to_string(options.seed) +
         ", \"seconds\": " + std::to_string(options.seconds) +
         ", \"trace\": " + (options.trace ? "1" : "0") +
         ", \"sad_kernel\": \"" +
         std::string(acbm::simd::active_kernel_name()) +
         "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"commit\": \"" +
         options.commit + "\", \"estimators\": {" + specs + "}}";
}

/// Frame-span self time (ms, reference time): each frame span minus the
/// union of its estimate and decode children.
std::vector<double> frame_self_ms(std::vector<Span> spans,
                                  const std::vector<double>& stream_scale) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::tie(a.stream, a.frame, a.kind) <
           std::tie(b.stream, b.frame, b.kind);
  });
  std::vector<double> self;
  for (std::size_t i = 0; i < spans.size();) {
    std::size_t end = i;
    while (end < spans.size() && spans[end].stream == spans[i].stream &&
           spans[end].frame == spans[i].frame) {
      ++end;
    }
    for (std::size_t p = i; p < end; ++p) {
      if (spans[p].kind != SpanKind::kFrame) {
        continue;
      }
      std::vector<Interval> children;
      for (std::size_t c = i; c < end; ++c) {
        if (spans[c].kind != SpanKind::kFrame) {
          children.push_back({static_cast<double>(spans[c].begin_ns) / 1e6,
                              static_cast<double>(spans[c].end_ns) / 1e6});
        }
      }
      self.push_back(
          self_time({static_cast<double>(spans[p].begin_ns) / 1e6,
                     static_cast<double>(spans[p].end_ns) / 1e6},
                    std::move(children)) *
          stream_scale.at(spans[p].stream));
    }
    i = end;
  }
  return self;
}

MetricSet end_to_end(const Phase& phase, double setup_s) {
  const OutcomeCounts counts = count_outcomes(phase.outcomes);
  MetricSet m;
  m.add("setup_s", setup_s, "s");
  m.add("encode_fps",
        static_cast<double>(phase.frames_encoded) / phase.encode_s,
        "1/s");
  m.add("frame_ms_p50", percentile(phase.frame_ms, 0.50), "ms");
  m.add("frame_ms_p99", percentile(phase.frame_ms, 0.99), "ms");
  m.add("decode_fps",
        static_cast<double>(phase.decode_frames) / phase.decode_s, "1/s");
  m.add("psnr_y_db", phase.pin.psnr_y_db, "dB");
  m.add("kbps", phase.pin.kbps, "kbit/s");
  m.add("positions_per_mb", phase.pin.positions_per_mb, "count");
  m.add("ok_ratio", 1.0 - counts.failed_ratio(), "ratio");
  m.add("deadline_met_ratio", 1.0 - counts.deadline_miss_ratio(), "ratio");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  return m;
}

MetricSet per_layer(const Phase& traced, const Phase& untraced,
                    double synth_s, double probe_ms) {
  std::vector<double> estimate_us;
  double me_busy_s = 0.0;
  for (const Span& span : traced.spans) {
    if (span.kind == SpanKind::kEstimate) {
      const double us = static_cast<double>(span.end_ns - span.begin_ns) /
                        1e3 * traced.stream_scale.at(span.stream);
      estimate_us.push_back(us);
      me_busy_s += us / 1e6;
    }
  }
  const Pin& pin = traced.pin;
  const double frame_total = sum(traced.encode_ms);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const bool service = !traced.submit_us.empty();

  MetricSet m;
  m.add("probe.ms_p50", probe_ms, "ms");
  m.add("synth.sequence_s", synth_s, "s");
  m.add("me.calls", count(traced.me_calls), "count");
  m.add("me.positions", count(traced.me_positions), "count");
  m.add("me.busy_s", me_busy_s, "s");
  m.add("me.estimate_us_p50", percentile(estimate_us, 0.50), "us");
  m.add("me.estimate_us_p99", percentile(estimate_us, 0.99), "us");
  m.add("core.t1_accepts", count(pin.t1_accepts), "count");
  m.add("core.t2_accepts", count(pin.t2_accepts), "count");
  m.add("core.critical_blocks", count(pin.critical_blocks), "count");
  m.add("core.critical_share",
        pin.blocks > 0 ? count(pin.critical_blocks) / count(pin.blocks) : 0.0,
        "ratio");
  m.add("enc.me_ms_p50", percentile(traced.me_ms, 0.50), "ms");
  m.add("enc.me_ms_p99", percentile(traced.me_ms, 0.99), "ms");
  m.add("enc.plan_ms_p50", percentile(traced.plan_ms, 0.50), "ms");
  m.add("enc.plan_ms_p99", percentile(traced.plan_ms, 0.99), "ms");
  m.add("enc.entropy_ms_p50", percentile(traced.entropy_ms, 0.50), "ms");
  m.add("enc.entropy_ms_p99", percentile(traced.entropy_ms, 0.99), "ms");
  m.add("enc.other_ms_p50", percentile(traced.other_ms, 0.50), "ms");
  m.add("enc.me_share", sum(traced.me_ms) / frame_total, "ratio");
  m.add("enc.plan_share", sum(traced.plan_ms) / frame_total, "ratio");
  m.add("enc.entropy_share", sum(traced.entropy_ms) / frame_total, "ratio");
  m.add("enc.mv_bits", count(pin.mv_bits), "count");
  m.add("enc.coeff_bits", count(pin.coeff_bits), "count");
  m.add("enc.header_bits", count(pin.header_bits), "count");
  m.add("enc.intra_mbs", count(pin.intra_mbs), "count");
  m.add("enc.inter_mbs", count(pin.inter_mbs), "count");
  m.add("enc.skip_mbs", count(pin.skip_mbs), "count");
  m.add("frame.self_ms_p50",
        percentile(frame_self_ms(traced.spans, traced.stream_scale), 0.50),
        "ms");
  m.add("dec.frame_ms_p50", percentile(traced.decode_ms, 0.50), "ms");
  m.add("dec.frame_ms_p99", percentile(traced.decode_ms, 0.99), "ms");
  m.add("dec.busy_s", traced.decode_s, "s");
  // The service layer exists only on the open-loop workload; the batch
  // workloads report it as zero.
  m.add("svc.submit_us_p99",
        service ? percentile(traced.submit_us, 0.99) : 0.0, "us");
  m.add("svc.queue_wait_ms_p50",
        service ? percentile(traced.queue_wait_ms, 0.50) : 0.0, "ms");
  m.add("svc.queue_wait_ms_p99",
        service ? percentile(traced.queue_wait_ms, 0.99) : 0.0, "ms");
  m.add("svc.completed", count(traced.svc.completed), "count");
  m.add("svc.rejected", count(traced.svc.rejected), "count");
  m.add("svc.timed_out", count(traced.svc.timed_out), "count");
  m.add("svc.failed", count(traced.svc.failed), "count");
  m.add("svc.peak_queue_depth", count(traced.svc.peak_queue_depth), "count");
  m.add("gen.lag_ms_p99", service ? percentile(traced.gen_lag_ms, 0.99) : 0.0,
        "ms");
  m.add("trace.overhead_pct",
        100.0 * (traced.frame_cost_ms - untraced.frame_cost_ms) /
            untraced.frame_cost_ms,
        "%");
  return m;
}

int run(const Options& options) {
  const Workload& workload = *find_workload(options.workload);
  std::cout << "perfbench " << workload.name << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << '\n';
  std::cout << "context " << context_json(options) << '\n';

  // Set-up: synthesize the inputs and build the encoders, several times,
  // each time scaled to reference time by the probes on either side of it.
  SpeedProbe probe;
  for (int i = 0; i < kSetupProbes; ++i) {
    probe.sample();
  }
  std::vector<double> setup_s;
  std::vector<double> synth_s;
  Inputs inputs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t begin = now_ns();
    inputs = make_inputs(workload, options.seed);
    construct_encoders(workload);
    const double raw_s = static_cast<double>(now_ns() - begin) / 1e9;
    for (int i = 0; i < kSetupProbes; ++i) {
      probe.sample();
    }
    const double scale = probe.scale(2 * kSetupProbes);
    setup_s.push_back(raw_s * scale);
    synth_s.push_back(inputs.synth_seconds * scale);
  }

  const Phase untraced =
      run_phase(workload, inputs, options.seconds, false, probe);
  std::vector<std::string> errors = untraced.errors;
  OutcomeCounts counts = count_outcomes(untraced.outcomes);
  MetricSet metrics;
  if (!options.trace) {
    metrics = end_to_end(untraced, median(setup_s));
  } else {
    const std::int64_t origin = now_ns();
    const Phase traced =
        run_phase(workload, inputs, options.seconds, true, probe);
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    const OutcomeCounts traced_counts = count_outcomes(traced.outcomes);
    counts.attempted += traced_counts.attempted;
    counts.failed += traced_counts.failed;
    if (!(traced.pin == untraced.pin)) {
      errors.push_back("traced run changed a deterministic count: untraced " +
                       untraced.pin.to_json() + " traced " +
                       traced.pin.to_json());
    }
    metrics = per_layer(traced, untraced, median(synth_s),
                        median(probe.samples()));
    if (!options.spans_out.empty()) {
      write_spans_json(options.spans_out, traced.spans, origin,
                       kMaxWrittenEstimateSpans);
      std::cout << "spans " << options.spans_out << '\n';
    }
  }

  std::cout << "frames " << untraced.frame_ms.size() << " latency samples, "
            << untraced.decode_ms.size() << " decoded frames; speed probe "
            << median(probe.samples()) << " ms (reference "
            << kReferenceProbeMs << " ms), " << probe.samples().size()
            << " samples\n";
  metrics.print_table(std::cout);
  std::cout << "pin " << untraced.pin.to_json() << '\n';
  for (const std::string& error : errors) {
    std::cerr << "CHECK FAILED: " << error << '\n';
  }
  const bool correct = errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << counts.attempted
            << ", \"failed\": " << counts.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
