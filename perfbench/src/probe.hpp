#pragma once
// A speed probe: a fixed computation compiled into the benchmark (it calls
// no library code) whose duration tells how fast the machine is running at
// the moment.
//
// Why: on the shared virtual machines this benchmark runs on, the host
// changes the guest's speed by up to about 1.5x for tens of seconds at a
// time, and every timing in a run moves with it (per-thread CPU time moves
// the same way, so it is no escape). The benchmark therefore reports its
// timings in reference milliseconds: a raw duration times
// kReferenceProbeMs / (the probe's recent median duration). Between two
// builds of the library the probe's code does not change, so a change in a
// normalized figure is a change in the program, not in the host. Every run
// prints the probe's median duration, so raw figures can be recovered.
//
// The mix mirrors the codec's: an integer block-matching SAD search, a
// separable double-precision 8x8 transform, and branchy bit packing.

#include <cstdint>
#include <vector>

namespace perfbench {

/// The probe duration that defines reference time: normalized figures read
/// as milliseconds on a host where one in-run probe takes this long (on the
/// Intel Xeon virtual machine the benchmark was tuned on it took 2-4 ms).
inline constexpr double kReferenceProbeMs = 4.0;

class SpeedProbe {
 public:
  SpeedProbe();

  /// Runs the probe once, records its duration and returns it (ms).
  double sample();

  /// Raw-to-reference scale: kReferenceProbeMs over the median of the last
  /// `window` samples. Takes a sample first when there is none.
  double scale(std::size_t window = 5);

  /// Every duration sampled so far (ms).
  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_;
  }

 private:
  std::vector<std::uint8_t> cur_;
  std::vector<std::uint8_t> ref_;
  std::vector<double> samples_;
};

}  // namespace perfbench
