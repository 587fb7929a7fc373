// Shared pieces of the benchmark harness: the arithmetic every metric goes
// through (percentiles with their sample counts, ratios with explicit
// bases, the metric-name grammar), the in-memory span tracer, the dataset
// shapes, and the per-workload entry points.
#ifndef UCLUST_PERFBENCH_HARNESS_H_
#define UCLUST_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

// ------------------------------------------------------------ arithmetic --

/// A percentile together with the number of samples it was taken over.
struct Percentile {
  double value = 0.0;
  std::size_t count = 0;
};

/// The q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics, so q = 0.5 over an even count is the mean of the two middle
/// values. An empty sample gives {0, 0}.
Percentile PercentileOf(std::vector<double> values, double q);

/// num / den, and 0 when den is 0: a ratio whose base is empty reports 0
/// (nothing attempted, nothing saved) instead of NaN.
double Ratio(double num, double den);

/// The metric-name grammar: starts with a letter or digit, at most 64
/// characters of letters, digits, '_', '.' and '-'.
bool ValidMetricName(const std::string& name);
/// The unit grammar: 1 to 16 characters of letters, digits, '_', '/', '%',
/// '.' and '-'.
bool ValidUnit(const std::string& unit);

/// Checks the functions above on known cases; on failure describes the
/// first mismatch in *why.
bool SelfTest(std::string* why);

/// Splitmix64 finalizer: the harness's own seed derivation, kept here so
/// the job seeds do not change when the library's RNG helpers do.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

// ------------------------------------------------------------ host speed --

/// Fixed work in the benchmark's own code, timed next to the jobs, that puts
/// the time metrics in reference-speed seconds.
///
/// The 4-core VM this benchmark was tuned on changes speed by a third for
/// seconds at a time: one fixed UCPC job read 0.22 to 0.35 s within a
/// minute, with its thread on the CPU throughout. The probe's slices moved
/// with it (correlation 0.8): over 20-job blocks the job alone moved from
/// -12% to +24%, its time over the probe's from -3% to +6%. So each timed
/// figure is scaled by kReferenceSliceS over the slice time measured next
/// to it. No library change can move the probe, so a faster library still
/// reads faster.
class SpeedProbe {
 public:
  /// A slice's seconds on the reference machine when it ran at its usual
  /// speed; it only sets the scale of the reported figures.
  static constexpr double kReferenceSliceS = 0.0003;
  /// Slices per calibration between sequential jobs (about 10 ms, four
  /// laps of the ring).
  static constexpr int kSlicesPerCalibration = 32;

  SpeedProbe();

  /// Runs one slice of the fixed work and returns its seconds.
  double Slice();
  /// Runs kSlicesPerCalibration slices and returns their median seconds.
  double Calibrate();

  /// `wall_s` in reference-speed seconds, given the slice seconds measured
  /// next to it. A zero slice time leaves `wall_s` unscaled.
  static double Scale(double wall_s, double slice_s);

  /// Every slice time measured so far.
  const std::vector<double>& slices() const { return slices_; }
  /// Resident bytes of the probe's ring, all touched on construction.
  std::size_t bytes() const;

 private:
  std::vector<double> buffer_;
  std::size_t next_ = 0;
  std::vector<double> slices_;
  double sink_ = 0.0;
};

// --------------------------------------------------------------- tracing --

/// Records named spans in memory. Spans nest: a span opened while another
/// is open on the tracer records it as its parent. Used from one thread at
/// a time. A disabled tracer records nothing and costs one branch.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Spans record only while recording is on (the default); a traced run
  /// turns it off for its untraced job copies.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return enabled_ && recording_; }

  /// Scoped span; closes on destruction. `job` is the timed job's index, or
  /// -1 outside timed jobs (set-up, probes).
  class Span {
   public:
    Span(Tracer* tracer, const std::string& name, int job);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    long index_ = -1;
  };

  /// Durations in seconds of every recorded span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes every span as JSON lines to `path` with `header` (a JSON
  /// object) as the first line.
  bool WriteJsonLines(const std::string& path,
                      const std::string& header) const;

 private:
  struct Record {
    std::string name;
    int job = -1;  // -1: outside any timed job (set-up, probes)
    long parent = -1;
    double start_s = 0.0;
    double end_s = -1.0;
  };

  bool enabled_;
  bool recording_ = true;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

// -------------------------------------------------------------- datasets --

/// Generator parameters of a benchmark dataset (family "mix").
///
/// The generator seed is fixed per shape rather than taken from the
/// workload seed: how fast the algorithms converge depends mostly on the
/// dataset, so one dataset per workload keeps a run's job times and
/// F-measure from swinging with the workload seed. The workload seed picks
/// the clustering seeds of the jobs.
struct Shape {
  const char* tag;
  std::size_t n;
  std::size_t m;
  int classes;
  uint64_t seed;
};

/// The centroid workload and the service's CK-means jobs.
inline constexpr Shape kCentroidShape{"centroid", 10000, 16, 16, 1};
/// Pairwise workloads and the service's UK-medoids jobs.
inline constexpr Shape kPairwiseShape{"pairwise", 250, 2, 8, 1};

/// Cached dataset path in `dir`, keyed by shape and generator seed.
std::string DatasetPath(const std::string& dir, const Shape& shape);

/// Generates the dataset unless the cached file exists.
uclust::common::Status EnsureDataset(const std::string& dir,
                                     const Shape& shape);

/// Calls `fn` on every .umom / .usmp sidecar in `dir`.
void ForEachSidecar(const std::string& dir,
                    const std::function<void(const std::filesystem::path&)>& fn);

/// Deletes every .umom / .usmp sidecar in `dir`.
void DeleteSidecars(const std::string& dir);

/// Writes every .umom / .usmp sidecar in `dir` back to disk (fsync), so the
/// writeback of freshly built sidecars does not land in the timed jobs.
void FlushSidecars(const std::string& dir);

/// File size in bytes, or 0 when the file is missing.
uint64_t FileBytes(const std::string& path);

/// Modification time in nanoseconds plus inode, or 0 when missing: changes
/// whenever the file is rewritten or replaced.
uint64_t FileIdentity(const std::string& path);

// ---------------------------------------------------------------- a run --

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;
  /// Flips the first reference fingerprint a run compares against, so the
  /// output check can be shown to fail the run.
  bool inject_fault = false;
  /// Engine threads of the in-process workloads.
  int engine_threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct RunOutcome {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;  // failed checks, one line each
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Environment and sample counts, as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> env;

  void Fail(const std::string& why) { errors.push_back(why); }
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Env(const std::string& key, const std::string& json_value) {
    env.emplace_back(key, json_value);
  }
  void Env(const std::string& key, double value);
};

/// Set-up is repeated this many times per run and its median reported; a
/// set-up of well under a millisecond repeats kCheapSetupRepeats times so
/// its median stays steady.
inline constexpr int kSetupRepeats = 15;
inline constexpr int kCheapSetupRepeats = 101;

/// The first this-many job seeds of a run run a second time at its end.
inline constexpr int kRepeatedSeeds = 2;

/// Number of distinct job seeds for a run of `seconds` whose jobs take about
/// `nominal_job_s` on the reference 4-core machine, counting the repeated
/// ones. Depends only on the arguments, never on measured time, so a run's
/// job set is fixed.
int SeedCount(int seconds, double nominal_job_s, int minimum);

/// Number of untimed warm-up jobs: about kWarmupSeconds of jobs that take
/// `nominal_job_s` each, and at least one.
inline constexpr double kWarmupSeconds = 1.0;
int WarmupJobs(double nominal_job_s);

/// ED^ tile throughput of the active SIMD path at dimension m (evals/s).
double Ed2EvalsPerSecond(std::size_t m, uint64_t seed);

RunOutcome RunCentroidResident(const RunOptions& opt, Tracer* tracer);
RunOutcome RunPairwiseSampled(const RunOptions& opt, Tracer* tracer);
RunOutcome RunServiceMix(const RunOptions& opt, Tracer* tracer);

}  // namespace perfbench

#endif  // UCLUST_PERFBENCH_HARNESS_H_
