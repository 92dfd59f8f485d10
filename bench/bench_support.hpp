#pragma once
// Shared plumbing for the paper-reproduction bench binaries: sequence
// construction, RD-curve rendering in the paper's layout, and CSV output.
//
// Every bench prints a human-readable table on stdout (mirroring the paper's
// rows) and writes a CSV into the current working directory for plotting.

#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/rd_sweep.hpp"
#include "core/builtin_estimators.hpp"
#include "simd/dispatch.hpp"
#include "synth/sequences.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/kv.hpp"
#include "util/timer.hpp"
#include "video/frame.hpp"

namespace acbm::bench {

/// Standard command-line options shared by the reproduction benches.
struct BenchOptions {
  int frames = 40;          ///< frames per sequence (after decimation)
  int search_range = 15;    ///< the paper's p
  std::vector<int> qps = {16, 18, 20, 22, 24, 26, 28, 30};
  video::PictureSize size = video::kQcif;  ///< --size cif for 352×288
  std::string size_label = "QCIF";
  std::string csv_prefix;   ///< output file prefix (binary name)
  bool quick = false;       ///< reduced workload for smoke runs
  int threads = 1;          ///< ME worker threads (0 = all cores);
                            ///< results are bit-exact at any count
  int slices = 1;           ///< entropy-coding slices per frame (>1 emits
                            ///< ACV2 and changes measured rates slightly)
  std::string kernel = "auto";  ///< SAD/transform kernel variant
                                ///< (process-global selection; every
                                ///< variant is bit-exact)
  std::string benchmark_out;    ///< when set, also write a
                                ///< google-benchmark-style JSON report here
  std::string trace_out;        ///< when set, write a Chrome trace-event
                                ///< JSON of the bench run here (benches that
                                ///< pass supports_trace only)
  /// Sweep-config spec (key=val,... — see analysis::SweepConfig::from_spec)
  /// applied on top of the individual flags by sweep_config(); lets one
  /// string reconfigure a bench ("mode=rd,deblock=1,qps=16:22").
  std::string config_spec;
  /// --estimators "spec;spec;..." — canonicalised estimator specs to run
  /// instead of the bench's default roster. ';'-separated because specs
  /// embed commas ("ACBM:alpha=500,beta=8;FSBM"). Empty = bench default.
  std::vector<std::string> estimators;
};

/// The roster a bench should iterate: --estimators when given, otherwise
/// the bench's own default (e.g. the full registry, or just "ACBM").
inline std::vector<std::string> estimator_roster(
    const BenchOptions& options, std::vector<std::string> fallback) {
  return options.estimators.empty() ? std::move(fallback)
                                    : options.estimators;
}

/// The bench's effective sweep configuration: flags first, --config on top.
/// Exits 2 on bad specs (usage error, like every other flag).
inline analysis::SweepConfig sweep_config(const BenchOptions& options) {
  analysis::SweepConfig sweep;
  sweep.qps = options.qps;
  sweep.search_range = options.search_range;
  sweep.parallel.threads = options.threads;
  sweep.slices = options.slices;
  try {
    return analysis::SweepConfig::from_spec(options.config_spec, sweep);
  } catch (const util::SpecError& e) {
    std::cerr << "bad --config spec: " << e.what() << '\n';
    std::exit(2);
  }
}

/// Joins the kernel names accepted on this build/CPU for usage text.
inline std::string kernel_names_for_usage() {
  std::string joined;
  for (const std::string& name : simd::available_kernel_names()) {
    if (!joined.empty()) {
      joined += "|";
    }
    joined += name;
  }
  return joined;
}

/// `supports_json` marks benches that actually emit rows through
/// JsonBenchReport; the others reject the flags instead of silently
/// writing nothing.
inline BenchOptions parse_bench_options(int argc, const char* const* argv,
                                        const std::string& name,
                                        bool supports_json = false,
                                        bool supports_trace = false) {
  util::ArgParser parser;
  parser.add_option("frames", "frames per sequence", "40");
  parser.add_option("search-range", "FSBM search range p", "15");
  parser.add_option("qps", "comma-separated quantiser list",
                    "16,18,20,22,24,26,28,30");
  parser.add_option("size", "picture size: qcif or cif (the paper uses both)",
                    "qcif");
  parser.add_option("threads",
                    "encoder ME worker threads (0 = all cores); output is "
                    "bit-exact at any count",
                    "1");
  parser.add_option("slices",
                    "entropy-coding slices per frame (1 = legacy ACV1)",
                    "1");
  parser.add_option("benchmark_format",
                    "console (default) or json; json requires "
                    "--benchmark_out (google-benchmark flag names, so CI "
                    "drives every bench binary identically)",
                    "console");
  parser.add_option("benchmark_out",
                    "path for the google-benchmark-style JSON report", "");
  parser.add_option("kernel",
                    "SAD/transform kernel variant: " +
                        kernel_names_for_usage() +
                        " (bit-exact; only throughput changes)",
                    "auto");
  parser.add_option("config",
                    "sweep-config spec key=val,... applied after the "
                    "individual flags (keys: qps=16:22:30 colon list, "
                    "range, halfpel, me_lambda, mode, deblock, slices, "
                    "threads)",
                    "");
  parser.add_option("estimators",
                    "';'-separated estimator specs (NAME or "
                    "\"NAME:key=val,...\") replacing the bench's default "
                    "roster, e.g. \"ACBM;ACBM:alpha=500,beta=8;FSBM\"",
                    "");
  parser.add_option("trace",
                    "write a Chrome trace-event JSON of the bench run "
                    "(Perfetto-loadable); the traced run's numbers are "
                    "reported as usual but a trace adds a little overhead",
                    "");
  parser.add_flag("quick", "reduced workload (fewer frames and Qp values)");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n' << parser.usage(name);
    std::exit(2);
  }
  if (parser.help_requested()) {
    std::cout << parser.usage(name);
    std::exit(0);
  }
  BenchOptions options;
  options.frames = static_cast<int>(parser.get_int("frames"));
  options.search_range = static_cast<int>(parser.get_int("search-range"));
  options.qps.clear();
  for (const std::string& tok : util::split_csv_list(parser.get("qps"))) {
    options.qps.push_back(std::stoi(tok));
  }
  if (parser.get("size") == "cif") {
    options.size = video::kCif;
    options.size_label = "CIF";
  } else if (parser.get("size") != "qcif") {
    std::cerr << "unknown --size (use qcif or cif)\n";
    std::exit(2);
  }
  options.csv_prefix = name;
  options.threads = static_cast<int>(parser.get_int("threads"));
  options.slices = static_cast<int>(parser.get_int("slices"));
  options.benchmark_out = parser.get("benchmark_out");
  if (parser.get("benchmark_format") != "console" &&
      parser.get("benchmark_format") != "json") {
    std::cerr << "unknown --benchmark_format (use console or json)\n";
    std::exit(2);
  }
  if (parser.get("benchmark_format") == "json" &&
      options.benchmark_out.empty()) {
    std::cerr << "--benchmark_format=json requires --benchmark_out=PATH\n";
    std::exit(2);
  }
  if (!supports_json && (parser.get("benchmark_format") == "json" ||
                         !options.benchmark_out.empty())) {
    std::cerr << name << " does not emit JSON rows yet; drop "
              << "--benchmark_format/--benchmark_out or use "
              << "bench_table1_complexity / bench_fig5_rd_qcif30 / "
              << "bench_fig6_rd_qcif10 / bench_kernels\n";
    std::exit(2);
  }
  options.trace_out = parser.get("trace");
  if (!supports_trace && !options.trace_out.empty()) {
    std::cerr << name << " does not emit traces; drop --trace or use "
              << "bench_service\n";
    std::exit(2);
  }
  options.kernel = parser.get("kernel");
  if (!simd::select_kernels_by_name(options.kernel)) {
    std::cerr << "unknown or unavailable --kernel '" << options.kernel
              << "' (use " << kernel_names_for_usage() << ")\n";
    std::exit(2);
  }
  options.config_spec = parser.get("config");
  // Validate and canonicalise every estimator spec up front: a typo should
  // be a usage error before any encoding starts, and canonical specs keep
  // tables/CSV/JSON joinable across runs regardless of key order.
  for (const std::string& spec :
       util::split_list(parser.get("estimators"), ';')) {
    try {
      options.estimators.push_back(
          core::builtin_estimators().canonical_spec(spec));
    } catch (const util::SpecError& e) {
      std::cerr << "bad --estimators spec '" << spec << "': " << e.what()
                << "\n\n"
                << core::builtin_estimators().spec_usage();
      std::exit(2);
    }
  }
  options.quick = parser.get_flag("quick");
  if (options.quick) {
    options.frames = std::min(options.frames, 12);
    options.qps = {16, 22, 30};
  }
  return options;
}

/// Minimal google-benchmark-compatible JSON report for the standalone
/// reproduction benches. CI runs bench_kernels (real google-benchmark) and
/// these binaries with the same --benchmark_format=json/--benchmark_out
/// flags and merges the outputs into one BENCH_ci.json perf trajectory, so
/// the row schema here mirrors google-benchmark's: a "context" object and a
/// "benchmarks" array whose entries carry name/real_time/time_unit plus
/// free-form numeric counters.
class JsonBenchReport {
 public:
  /// Inactive when `path` is empty (every add_row is a no-op).
  explicit JsonBenchReport(std::string path) : path_(std::move(path)) {}

  void add_row(const std::string& name, double real_time_ns,
               std::vector<std::pair<std::string, double>> counters = {}) {
    if (path_.empty()) {
      return;
    }
    rows_.push_back({name, real_time_ns, std::move(counters)});
  }

  /// Adds a string entry to the report's "context" object. Benches stamp
  /// the canonical specs that produced their rows (estimator_spec,
  /// sweep_config) so BENCH_ci.json artifacts are joinable across commits
  /// by exact configuration, not just by benchmark name;
  /// scripts/bench_gate.py forwards these keys into the merged artifact.
  void set_context(std::string key, std::string value) {
    if (path_.empty()) {
      return;
    }
    context_.emplace_back(std::move(key), std::move(value));
  }

  /// Writes the report; call once at the end of the bench.
  void write(const std::string& executable) const {
    if (path_.empty()) {
      return;
    }
    std::ofstream out(path_);
    if (!out) {
      throw std::runtime_error("cannot open " + path_ + " for writing");
    }
#ifdef NDEBUG
    constexpr const char* kBuildType = "release";
#else
    constexpr const char* kBuildType = "debug";
#endif
    out << "{\n  \"context\": {\n    \"executable\": \"" << executable
        << "\",\n    \"library_build_type\": \"" << kBuildType << '"';
    for (const auto& [key, value] : context_) {
      out << ",\n    \"" << key << "\": \"" << value << '"';
    }
    out << "\n  },\n"
        << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      out << "    {\n      \"name\": \"" << row.name
          << "\",\n      \"run_name\": \"" << row.name
          << "\",\n      \"run_type\": \"iteration\","
          << "\n      \"iterations\": 1,\n      \"real_time\": "
          << util::CsvWriter::num(row.real_time_ns, 3)
          << ",\n      \"cpu_time\": "
          << util::CsvWriter::num(row.real_time_ns, 3)
          << ",\n      \"time_unit\": \"ns\"";
      for (const auto& [key, value] : row.counters) {
        out << ",\n      \"" << key << "\": "
            << util::CsvWriter::num(value, 4);
      }
      out << "\n    }" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "[json] " << path_ << '\n';
  }

 private:
  struct Row {
    std::string name;
    double real_time_ns = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };
  std::string path_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<Row> rows_;
};

/// Builds the named sequence at `fps` (QCIF unless overridden).
inline std::vector<video::Frame> qcif_sequence(
    const std::string& name, int frames, int fps,
    video::PictureSize size = video::kQcif) {
  synth::SequenceRequest req;
  req.name = name;
  req.size = size;
  req.frame_count = frames;
  req.fps = fps;
  return synth::make_sequence(req);
}

/// Opens `<prefix>_<suffix>.csv` in the working directory.
inline std::ofstream open_csv(const std::string& prefix,
                              const std::string& suffix) {
  const std::string path =
      util::sanitize_filename(prefix + "_" + suffix) + ".csv";
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  std::cout << "[csv] " << path << '\n';
  return out;
}

/// Prints one sequence's RD curves in the paper's figure layout: one row per
/// Qp, one (rate, PSNR) column pair per algorithm.
inline void print_rd_figure(std::ostream& out, const std::string& sequence,
                            int fps,
                            const std::vector<analysis::RdCurve>& curves,
                            const std::string& size_label = "QCIF") {
  out << "\n-- " << sequence << " sequence (" << size_label << " @ " << fps
      << " fps) --\n";
  std::vector<std::string> header = {"Qp"};
  for (const auto& curve : curves) {
    header.push_back(curve.algorithm + " kbit/s");
    header.push_back(curve.algorithm + " PSNR-Y dB");
  }
  util::TablePrinter table(header);
  if (curves.empty()) {
    return;
  }
  for (std::size_t i = 0; i < curves[0].points.size(); ++i) {
    std::vector<std::string> row = {
        std::to_string(curves[0].points[i].qp)};
    for (const auto& curve : curves) {
      row.push_back(util::CsvWriter::num(curve.points[i].kbps, 2));
      row.push_back(util::CsvWriter::num(curve.points[i].psnr_y, 2));
    }
    table.add_row(std::move(row));
  }
  table.print(out);
}

/// Appends a set of curves to a long-format CSV
/// (sequence,fps,algorithm,qp,kbps,psnr_y,psnr_yuv,positions,...).
inline void write_rd_csv_header(util::CsvWriter& csv) {
  csv.row({"sequence", "fps", "algorithm", "qp", "kbps", "psnr_y", "psnr_yuv",
           "avg_positions_per_mb", "full_search_fraction", "skip_fraction",
           "mv_bits_share", "me_field_smoothness"});
}

inline void write_rd_csv_rows(util::CsvWriter& csv,
                              const analysis::RdCurve& curve) {
  for (const auto& p : curve.points) {
    csv.row({curve.sequence, std::to_string(curve.fps), curve.algorithm,
             std::to_string(p.qp), util::CsvWriter::num(p.kbps, 3),
             util::CsvWriter::num(p.psnr_y, 3),
             util::CsvWriter::num(p.psnr_yuv, 3),
             util::CsvWriter::num(p.avg_positions, 2),
             util::CsvWriter::num(p.full_search_fraction, 4),
             util::CsvWriter::num(p.skip_fraction, 4),
             util::CsvWriter::num(p.mv_bits_share, 4),
             util::CsvWriter::num(p.field_smoothness, 3)});
  }
}

/// Runs the Fig. 5/6 experiment at one frame rate: the paper's four
/// sequences × {ACBM, FSBM, PBM} swept over Qp. Prints four figure panels
/// and writes the CSV.
inline void run_rd_figure_bench(const std::string& bench_name, int fps,
                                const BenchOptions& options) {
  util::Timer timer;
  const analysis::SweepConfig sweep = sweep_config(options);

  auto csv_stream = open_csv(options.csv_prefix, "rd");
  util::CsvWriter csv(csv_stream);
  write_rd_csv_header(csv);

  // The paper's three, as estimator specs (bare names = paper parameters).
  const std::vector<std::string> estimators = {"ACBM", "FSBM", "PBM"};

  std::cout << bench_name << ": " << options.size_label << " @ " << fps
            << " fps, sweep " << sweep.to_spec() << ", " << options.frames
            << " frames, "
            << core::builtin_estimators().canonical_spec("ACBM")
            << ", SAD kernel " << simd::active_kernel_name() << "\n";

  JsonBenchReport json(options.benchmark_out);
  json.set_context("sweep_config", sweep.to_spec());
  json.set_context("estimator_spec",
                   core::builtin_estimators().canonical_spec("ACBM"));
  for (const auto& name : synth::standard_sequence_names()) {
    const auto frames =
        qcif_sequence(name, options.frames, fps, options.size);
    std::vector<analysis::RdCurve> curves;
    for (const std::string& estimator : estimators) {
      util::Timer curve_timer;
      curves.push_back(
          analysis::run_rd_sweep(frames, fps, estimator, sweep, name));
      write_rd_csv_rows(csv, curves.back());
      // One trajectory row per RD curve: wall time for the CI gate plus
      // deterministic rate/quality means over the swept Qp values. A curve
      // with no points (degenerate --qps input) emits no row — NaN means
      // would be invalid JSON.
      const analysis::RdCurve& curve = curves.back();
      if (!curve.points.empty()) {
        double kbps = 0.0;
        double psnr = 0.0;
        for (const analysis::RdPoint& p : curve.points) {
          kbps += p.kbps;
          psnr += p.psnr_y;
        }
        const double n = static_cast<double>(curve.points.size());
        json.add_row("BM_RdSweep/" + name + "@" + std::to_string(fps) +
                         "/" + curve.algorithm,
                     curve_timer.seconds() * 1e9,
                     {{"mean_kbps", kbps / n}, {"mean_psnr_y", psnr / n}});
      }
    }
    print_rd_figure(std::cout, name, fps, curves, options.size_label);

    // Shape check mirroring the paper's text: ACBM ≈ FSBM quality with a
    // fraction of the positions; PBM cheapest but weakest on hard content.
    const auto& acbm = curves[0].points;
    const auto& fsbm = curves[1].points;
    double worst_gap = 0.0;
    double positions_ratio = 0.0;
    for (std::size_t i = 0; i < acbm.size(); ++i) {
      worst_gap = std::max(worst_gap, fsbm[i].psnr_y - acbm[i].psnr_y);
      positions_ratio += acbm[i].avg_positions / fsbm[i].avg_positions;
    }
    positions_ratio /= static_cast<double>(acbm.size());
    std::cout << "   shape: worst ACBM-vs-FSBM PSNR gap "
              << util::CsvWriter::num(worst_gap, 2) << " dB; ACBM cost "
              << util::CsvWriter::num(100.0 * positions_ratio, 1)
              << "% of FSBM positions\n";
  }
  json.write(options.csv_prefix);
  std::cout << "\n[done] " << bench_name << " in "
            << util::CsvWriter::num(timer.seconds(), 1) << " s\n";
}

}  // namespace acbm::bench
