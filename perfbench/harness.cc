// Benchmark harness entry point.
//
//   perfbench_harness gen  --workload W --seed N --data_dir D
//   perfbench_harness run  --workload W --seed N --seconds S --trace 0|1
//                          --data_dir D [--inject_fault 1]
//   perfbench_harness selftest
//
// `gen` writes the workload's datasets into D unless they are cached there.
// `run` runs one workload in this process and prints, in order: progress
// lines, one "ENV {...}" line, one "metric <name> = <value> <unit>" line per
// metric, and as the last line a JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the per-layer ones from the traced run.
// The exit code is 0 only when every output check passed.
#include "harness.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "bench_util.h"
#include "clustering/simd/simd.h"
#include "common/json.h"
#include "data/synthetic_gen.h"

namespace perfbench {

namespace fs = std::filesystem;
using uclust::common::Status;

// ------------------------------------------------------------ arithmetic --

Percentile PercentileOf(std::vector<double> values, double q) {
  Percentile p;
  p.count = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  p.value = values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
  return p;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

namespace {

bool AllOf(const std::string& s, const char* extra) {
  return std::all_of(s.begin(), s.end(), [extra](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) ||
           std::strchr(extra, c) != nullptr;
  });
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  return !name.empty() && name.size() <= 64 &&
         std::isalnum(static_cast<unsigned char>(name[0])) &&
         AllOf(name, "_.-");
}

bool ValidUnit(const std::string& unit) {
  return !unit.empty() && unit.size() <= 16 && AllOf(unit, "_/%.-");
}

bool SelfTest(std::string* why) {
  auto expect = [why](bool ok, const char* what) {
    if (!ok && why->empty()) *why = what;
    return ok;
  };
  bool ok = true;
  const Percentile odd = PercentileOf({3.0, 1.0, 2.0}, 0.5);
  ok &= expect(odd.value == 2.0 && odd.count == 3, "median of 3 samples");
  const Percentile even = PercentileOf({4.0, 1.0, 3.0, 2.0}, 0.5);
  ok &= expect(even.value == 2.5 && even.count == 4, "median of 4 samples");
  const Percentile q1 = PercentileOf({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25);
  ok &= expect(q1.value == 2.0 && q1.count == 5, "first quartile");
  const Percentile one = PercentileOf({7.0}, 0.9);
  ok &= expect(one.value == 7.0 && one.count == 1, "percentile of 1 sample");
  const Percentile none = PercentileOf({}, 0.5);
  ok &= expect(none.value == 0.0 && none.count == 0, "empty sample");
  ok &= expect(Ratio(1.0, 4.0) == 0.25, "ratio 1/4");
  ok &= expect(Ratio(3.0, 0.0) == 0.0, "ratio over a zero base");
  ok &= expect(Ratio(0.0, 0.0) == 0.0, "ratio 0/0");
  constexpr double ref = SpeedProbe::kReferenceSliceS;
  ok &= expect(SpeedProbe::Scale(3.0, 2.0 * ref) == 1.5,
               "a job on a host at half speed scales to half its wall time");
  ok &= expect(SpeedProbe::Scale(3.0, 0.0) == 3.0,
               "a zero slice time leaves the wall time unscaled");
  ok &= expect(ValidMetricName("io.ingest_s"), "name io.ingest_s");
  ok &= expect(ValidMetricName("9-a_b.c"), "name 9-a_b.c");
  ok &= expect(!ValidMetricName(""), "empty name");
  ok &= expect(!ValidMetricName("_x"), "name starting with '_'");
  ok &= expect(!ValidMetricName("a b"), "name with a space");
  ok &= expect(!ValidMetricName(std::string(65, 'a')), "65-char name");
  ok &= expect(ValidMetricName(std::string(64, 'a')), "64-char name");
  ok &= expect(ValidUnit("1/s") && ValidUnit("%") && ValidUnit("MB/s"),
               "units 1/s, %, MB/s");
  ok &= expect(!ValidUnit("") && !ValidUnit("m s") &&
                   !ValidUnit(std::string(17, 's')),
               "bad units");
  ok &= expect(MixSeed(1, 0) != MixSeed(1, 1) && MixSeed(1, 0) == MixSeed(1, 0),
               "seed mixing");
  return ok;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------ host speed --

namespace {

/// The probe walks a 16 MiB ring, 2 MiB per slice. The drift lives in the
/// shared cache and memory more than in the core: on the tuning host a
/// probe confined to L2 tracked the jobs worst (their time over its time
/// still spread 16%), and 16 MiB, well past one core's 2 MiB L2, best (9%).
constexpr std::size_t kProbeDoubles = std::size_t{1} << 21;
constexpr std::size_t kSliceDoubles = kProbeDoubles / 8;

}  // namespace

SpeedProbe::SpeedProbe() : buffer_(kProbeDoubles, 1.0) {}

std::size_t SpeedProbe::bytes() const {
  return buffer_.size() * sizeof(double);
}

double SpeedProbe::Slice() {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  double s = 0.0;
  // x -> 1 is the fixed point, so the values never grow or go subnormal
  // and every slice does the same work at the same speed.
  for (std::size_t i = next_; i < next_ + kSliceDoubles; ++i) {
    double& x = buffer_[i];
    x = x * 0.9999999 + 1e-7;
    s += x;
  }
  next_ = (next_ + kSliceDoubles) % kProbeDoubles;
  sink_ += s;
  const double t = std::chrono::duration<double>(Clock::now() - t0).count();
  slices_.push_back(t);
  return t;
}

double SpeedProbe::Calibrate() {
  std::vector<double> t;
  for (int i = 0; i < kSlicesPerCalibration; ++i) t.push_back(Slice());
  return PercentileOf(std::move(t), 0.5).value;
}

double SpeedProbe::Scale(double wall_s, double slice_s) {
  return slice_s > 0.0 ? wall_s * kReferenceSliceS / slice_s : wall_s;
}

// --------------------------------------------------------------- tracing --

Tracer::Span::Span(Tracer* tracer, const std::string& name, int job)
    : tracer_(tracer) {
  if (!tracer_->recording()) return;
  Record r;
  r.name = name;
  r.job = job;
  r.parent = tracer_->open_.empty()
                 ? -1
                 : static_cast<long>(tracer_->open_.back());
  r.start_s = std::chrono::duration<double>(Clock::now() - tracer_->origin_)
                  .count();
  index_ = static_cast<long>(tracer_->records_.size());
  tracer_->records_.push_back(std::move(r));
  tracer_->open_.push_back(static_cast<std::size_t>(index_));
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_->records_[static_cast<std::size_t>(index_)].end_s =
      std::chrono::duration<double>(Clock::now() - tracer_->origin_).count();
  tracer_->open_.pop_back();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name && r.end_s >= 0.0) out.push_back(r.end_s - r.start_s);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"name\": \"%s\", \"job\": %d, "
                 "\"parent\": %ld, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 i, r.name.c_str(), r.job, r.parent, r.start_s, r.end_s);
  }
  return std::fclose(f) == 0;
}

// -------------------------------------------------------------- datasets --

std::string DatasetPath(const std::string& dir, const Shape& shape) {
  return dir + "/" + shape.tag + "-n" + std::to_string(shape.n) + "-m" +
         std::to_string(shape.m) + "-c" + std::to_string(shape.classes) +
         "-s" + std::to_string(shape.seed) + ".ubin";
}

Status EnsureDataset(const std::string& dir, const Shape& shape) {
  const std::string path = DatasetPath(dir, shape);
  if (fs::exists(path)) return Status::Ok();
  uclust::data::SyntheticGenParams params;
  params.n = shape.n;
  params.m = shape.m;
  params.classes = shape.classes;
  params.family = uclust::data::GenFamily::kMix;
  params.seed = shape.seed;
  // Written under a private name and renamed, so an interrupted generation
  // never leaves a truncated file under the cached name.
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  Status st = uclust::data::WriteSyntheticDataset(params, tmp, shape.tag);
  if (!st.ok()) return st;
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Status::IOError("rename " + tmp + ": " + ec.message());
  return Status::Ok();
}

void ForEachSidecar(const std::string& dir,
                    const std::function<void(const fs::path&)>& fn) {
  std::error_code ec;
  std::vector<fs::path> sidecars;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".umom" || ext == ".usmp") sidecars.push_back(entry.path());
  }
  for (const fs::path& p : sidecars) fn(p);
}

void DeleteSidecars(const std::string& dir) {
  ForEachSidecar(dir, [](const fs::path& p) {
    std::error_code ec;
    fs::remove(p, ec);
  });
}

void FlushSidecars(const std::string& dir) {
  ForEachSidecar(dir, [](const fs::path& p) {
    const int fd = ::open(p.c_str(), O_RDONLY);
    if (fd < 0) return;
    ::fsync(fd);
    ::close(fd);
  });
}

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

uint64_t FileIdentity(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_mtim.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(st.st_mtim.tv_nsec) +
         (static_cast<uint64_t>(st.st_ino) << 40);
}

// ---------------------------------------------------------------- a run --

void RunOutcome::Env(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  env.emplace_back(key, buf);
}

int SeedCount(int seconds, double nominal_job_s, int minimum) {
  const int count =
      static_cast<int>(std::lround(seconds / nominal_job_s)) - kRepeatedSeeds;
  return std::max(minimum, count);
}

int WarmupJobs(double nominal_job_s) {
  const long jobs = std::lround(kWarmupSeconds / nominal_job_s);
  return std::max(1, static_cast<int>(jobs));
}

double Ed2EvalsPerSecond(std::size_t m, uint64_t seed) {
  namespace simd = uclust::clustering::simd;
  const std::string active = simd::IsaName(simd::ActiveIsa());
  for (const auto& row : uclust::bench::MeasureEd2TileThroughput(
           m, /*tile_rows=*/64, /*n=*/2048, /*min_ms=*/100.0, seed)) {
    if (row.isa == active) return row.ed2_evals_per_s;
  }
  return 0.0;
}

}  // namespace perfbench

namespace {

using namespace perfbench;  // NOLINT: entry point brevity

struct Args {
  std::string mode;
  std::map<std::string, std::string> kv;

  std::string Get(const std::string& key, const std::string& def) const {
    auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) return false;
    args->kv[argv[i] + 2] = argv[i + 1];
  }
  return true;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  if (!std::all_of(text.begin(), text.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    return false;
  }
  *out = std::stoull(text);
  return true;
}

const char* const kWorkloads[] = {"centroid_resident", "pairwise_sampled",
                                  "service_mix"};

std::vector<Shape> ShapesOf(const std::string& workload) {
  if (workload == "pairwise_sampled") return {kPairwiseShape};
  if (workload == "service_mix") return {kCentroidShape, kPairwiseShape};
  return {kCentroidShape};
}

void PrintJsonNumber(std::string* out, double v) {
  char buf[64];
  if (!std::isfinite(v)) v = 0.0;
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

int Run(int argc, char** argv) {
  std::string why;
  if (!SelfTest(&why)) {
    std::fprintf(stderr, "perfbench: harness self-test failed: %s\n",
                 why.c_str());
    return 2;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness gen|run|selftest --workload W "
                 "--seed N --seconds S --trace 0|1 --data_dir D\n");
    return 2;
  }
  if (args.mode == "selftest") {
    std::printf("perfbench self-test OK\n");
    return 0;
  }

  RunOptions opt;
  opt.workload = args.Get("workload", "");
  opt.data_dir = args.Get("data_dir", "");
  uint64_t seed = 0, seconds = 0, trace = 0, fault = 0;
  const bool known = std::find(std::begin(kWorkloads), std::end(kWorkloads),
                               opt.workload) != std::end(kWorkloads);
  if (!known || opt.data_dir.empty() ||
      !ParseUint(args.Get("seed", "1"), &seed) ||
      !ParseUint(args.Get("seconds", "10"), &seconds) || seconds == 0 ||
      seconds > 600 || !ParseUint(args.Get("trace", "0"), &trace) ||
      trace > 1 || !ParseUint(args.Get("inject_fault", "0"), &fault)) {
    std::fprintf(stderr, "perfbench: bad arguments\n");
    return 2;
  }
  opt.seed = seed;
  opt.seconds = static_cast<int>(seconds);
  opt.trace = trace == 1;
  opt.inject_fault = fault != 0;

  if (args.mode == "gen") {
    std::error_code ec;
    std::filesystem::create_directories(opt.data_dir, ec);
    for (const Shape& shape : ShapesOf(opt.workload)) {
      const Status st = EnsureDataset(opt.data_dir, shape);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    return 0;
  }
  if (args.mode != "run") {
    std::fprintf(stderr, "perfbench: unknown mode %s\n", args.mode.c_str());
    return 2;
  }
  for (const Shape& shape : ShapesOf(opt.workload)) {
    if (!std::filesystem::exists(DatasetPath(opt.data_dir, shape))) {
      std::fprintf(stderr, "perfbench: dataset missing; run gen first\n");
      return 1;
    }
  }

  Tracer tracer(opt.trace);
  RunOutcome out;
  if (opt.workload == "centroid_resident") {
    out = RunCentroidResident(opt, &tracer);
  } else if (opt.workload == "pairwise_sampled") {
    out = RunPairwiseSampled(opt, &tracer);
  } else {
    out = RunServiceMix(opt, &tracer);
  }

  if (out.attempted == 0) out.Fail("no job was attempted");

  // Environment, recorded in every output.
  out.Env("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  out.Env("hardware_threads",
          static_cast<double>(uclust::bench::HardwareThreads()));
  out.Env("simd_isa",
          "\"" +
              uclust::clustering::simd::IsaName(
                  uclust::clustering::simd::ActiveIsa()) +
              "\"");
  out.Env("workload_seed", static_cast<double>(opt.seed));
  out.Env("seconds", static_cast<double>(opt.seconds));
  out.Env("trace", opt.trace ? 1.0 : 0.0);
  std::string env = "{";
  for (std::size_t i = 0; i < out.env.size(); ++i) {
    env += (i ? ", \"" : "\"") + out.env[i].first + "\": " + out.env[i].second;
  }
  env += "}";
  std::printf("ENV %s\n", env.c_str());

  if (opt.trace) {
    const std::string path = opt.data_dir + "/trace-" + opt.workload + "-s" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(path, env)) {
      out.Fail("could not write the trace file " + path);
    } else {
      std::printf("[perfbench] spans written to %s\n", path.c_str());
    }
  }

  const std::vector<Metric>& metrics = opt.trace ? out.per_layer : out.end_to_end;
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!ValidMetricName(m.name) || !ValidUnit(m.unit)) {
      out.Fail("malformed metric name or unit: " + m.name + " " + m.unit);
    }
    std::printf("metric %s = %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": ";
    PrintJsonNumber(&json, m.value);
    json += ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}";
  for (const std::string& e : out.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = out.errors.empty() && out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max(out.attempted, 1),
              out.failed, json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
