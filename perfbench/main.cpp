// The repo benchmark driver: runs one workload through the public entry
// points (core::Pipeline::run, core::SupernetTrainer::run,
// serve::BatchServer), times every call from outside with the monotonic
// wall clock, checks every output, and prints one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git <sha>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same work
// three times in one process (untraced, with the span tracer, with the op
// profiler) and prints the per-layer metrics, the tracing overhead, and a
// Chrome trace file. Workloads, metrics and their mapping are described in
// perfbench/README.md.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/arch.h"
#include "core/pipeline.h"
#include "core/search_space.h"
#include "core/supernet.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "helpers.h"
#include "nn/quantize.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timing.h"
#include "obs/trace.h"
#include "serve/batch_server.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace hsconas;
using perfbench::Metric;
using perfbench::Metrics;
using perfbench::Span;
using perfbench::SpanLog;

// ---------------------------------------------------------------------------
// Clock and process facts

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// Peak resident set of this process image. VmHWM rather than
/// getrusage's ru_maxrss, which keeps the peak of the process that forked
/// and exec'd us (the Python launcher).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Host CPU time (all cores) and the part of it stolen by the hypervisor,
/// in clock ticks, from the first line of /proc/stat; zeros when absent.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks t;
  for (int field = 0; field < 8 && stat; ++field) {  // user .. steal
    double v = 0.0;
    stat >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::size_t nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

bool has_avx512_vnni() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

std::uint32_t bench_tid() {
  static std::atomic<std::uint32_t> next{1000};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

std::string hex_bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

// ---------------------------------------------------------------------------
// What one measured pass produced

enum class Mode { kUntraced, kSpans, kProfile };

struct Pass {
  std::vector<double> op_ms;       ///< wall time of each operation
  /// Items completed per second in each sub-window of the pass: per
  /// sweep of searches, per training epoch (images), per 256 answered
  /// requests. Their median is robust to a stall in one window.
  std::vector<double> rates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double cpu_ms = 0.0;             ///< process CPU over Pipeline::run calls
  double call_ms = 0.0;            ///< wall over the same calls
  std::vector<double> scores;      ///< winner scores (searches)
  double final_loss = 0.0;         ///< last training run's final-epoch loss
  obs::MetricsSnapshot before, after;  ///< registry around the window
  bool windowed = false;  ///< measure() took before/after itself
};

/// Registry delta of a counter over a pass.
double counter_delta(const Pass& p, const std::string& name) {
  return static_cast<double>(p.after.counter_value(name)) -
         static_cast<double>(p.before.counter_value(name));
}

/// Registry delta (count, sum) of a histogram over a pass.
std::pair<double, double> histogram_delta(const Pass& p,
                                          const std::string& name) {
  double count = 0.0, sum = 0.0;
  for (const auto& h : p.after.histograms) {
    if (h.name != name) continue;
    count += static_cast<double>(h.count);
    sum += h.sum_ms;
  }
  for (const auto& h : p.before.histograms) {
    if (h.name != name) continue;
    count -= static_cast<double>(h.count);
    sum -= h.sum_ms;
  }
  return {count, sum};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Collects the obs span tracer's events between operations, so the
/// per-thread rings never overflow on long passes, and keeps a bounded
/// prefix of them for the trace file.
class SpanCollector {
 public:
  static constexpr std::size_t kKeep = 50000;

  void drain() {
    const std::vector<obs::TraceEvent> events = obs::Tracer::snapshot();
    dropped_ += obs::Tracer::dropped();
    obs::Tracer::clear();
    for (const obs::TraceEvent& e : events) {
      const std::string name = e.name;
      total_ns_[name] += e.dur_ns;
      const perfbench::Interval iv{e.start_ns, e.start_ns + e.dur_ns};
      if (name == "evolution.run") evolution_.push_back(iv);
      if (name == "supernet.forward") forwards_.push_back(iv);
      if (kept_.size() < kKeep) {
        kept_.push_back(Span{name, e.start_ns + offset_ns_, e.dur_ns, e.tid,
                             0, 0});
      }
    }
  }

  double total_ms(const std::string& name) const {
    const auto it = total_ns_.find(name);
    return it == total_ns_.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
  }
  /// Evolution time minus the supernet forwards inside it.
  double evolution_self_ms() const {
    std::uint64_t self = 0;
    for (const perfbench::Interval& run : evolution_) {
      self += perfbench::self_time_ns(run, forwards_);
    }
    return static_cast<double>(self) / 1e6;
  }
  std::uint64_t dropped() const { return dropped_; }
  std::vector<Span>& kept() { return kept_; }

 private:
  // obs spans count from the tracer's own epoch; shift them onto now_ns().
  std::int64_t offset_ns_ = static_cast<std::int64_t>(now_ns()) -
                            static_cast<std::int64_t>(obs::detail::now_ns());
  std::map<std::string, std::uint64_t> total_ns_;
  std::vector<perfbench::Interval> evolution_, forwards_;
  std::vector<Span> kept_;
  std::uint64_t dropped_ = 0;
};

/// Hooks a workload calls while measuring.
struct Probe {
  Mode mode = Mode::kUntraced;
  SpanLog* spans = nullptr;          ///< benchmark spans (traced passes)
  SpanCollector* collector = nullptr;

  /// Records a benchmark-owned span in traced passes.
  void span(const char* name, std::uint64_t t0, std::uint64_t t1,
            std::uint64_t id, std::uint64_t parent = 0) const {
    if (spans != nullptr) {
      spans->add(Span{name, t0, t1 - t0, bench_tid(), id, parent});
    }
  }
  /// Called between operations, when no program thread is recording.
  void between_ops() const {
    if (collector != nullptr) collector->drain();
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up from scratch, leaving the workload ready to measure;
  /// its wall time joins setup_s().
  void setup() {
    const std::uint64_t t0 = now_ns();
    prepare();
    setup_s_.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  const std::vector<double>& setup_s() const { return setup_s_; }
  /// Runs operations for about `seconds` (at least one) and checks each.
  /// It may set up again between operations (those set-ups join
  /// setup_s() too), but never while one is being timed.
  virtual Pass measure(double seconds, const Probe& probe) = 0;
  /// Threads that run work: the driver's own by default.
  virtual std::size_t working_threads() const { return 1; }

 protected:
  /// Builds what the next operation needs.
  virtual void prepare() = 0;

 private:
  std::vector<double> setup_s_;
};

// ---------------------------------------------------------------------------
// search_proxy and search_surrogate: Pipeline::run over a fixed sweep of
// configurations, repeated whole, so every run measures the same mix.

class Search final : public Workload {
 public:
  /// The `hsconas search --accuracy=proxy` configuration, search seed 1
  /// included: one proxy-mode search on a 180/90-image synthetic dataset
  /// drawn from the workload seed.
  static std::unique_ptr<Search> proxy(std::uint64_t seed) {
    core::PipelineConfig cfg;
    cfg.space = core::SearchSpaceConfig::proxy(6, 12, 1);
    cfg.constraint_ms = 1.2;
    cfg.device = "edge";
    cfg.use_surrogate = false;
    cfg.initial_epochs = 2;
    cfg.tune_epochs = 1;
    cfg.shrink_layers_per_stage = 1;
    cfg.shrink.samples_per_subspace = 6;
    cfg.eval_batches = 2;
    cfg.train.batch_size = 36;
    cfg.train.lr = 0.08;
    cfg.evolution.generations = 20;
    cfg.evolution.population = 50;
    cfg.evolution.parents = 20;
    cfg.seed = 1;
    data::SyntheticConfig ds;
    ds.num_classes = 6;
    ds.train_size = 180;
    ds.val_size = 90;
    ds.image_size = 12;
    ds.seed = seed;
    return std::unique_ptr<Search>(new Search({cfg}, ds));
  }

  /// Paper-scale surrogate-accuracy searches (L = 20, 224², `hsconas
  /// search` defaults) over gpu/cpu/edge × layout A/B × kSurrogateSeeds.
  static constexpr int kSurrogateSeeds = 4;
  static std::unique_ptr<Search> surrogate(std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<core::PipelineConfig> sweep;
    for (int s = 0; s < kSurrogateSeeds; ++s) {
      const std::uint64_t search_seed = rng.next() % 1000000 + 1;
      for (const char* device : {"gpu", "cpu", "edge"}) {
        for (int layout = 0; layout < 2; ++layout) {
          core::PipelineConfig cfg;
          cfg.space = layout == 0
                          ? core::SearchSpaceConfig::imagenet_layout_a()
                          : core::SearchSpaceConfig::imagenet_layout_b();
          cfg.use_surrogate = true;
          cfg.device = device;
          cfg.evolution.generations = 20;
          cfg.evolution.population = 50;
          cfg.evolution.parents = 20;
          cfg.seed = search_seed;
          sweep.push_back(cfg);
        }
      }
    }
    return std::unique_ptr<Search>(new Search(std::move(sweep), std::nullopt));
  }

  Pass measure(double seconds, const Probe& probe) override {
    Pass pass;
    const std::uint64_t start = now_ns();
    do {
      // run() is single-shot (it builds its latency model once), so every
      // sweep sets up afresh; each such set-up joins setup_s().
      if (pipelines_.empty() || !pipelines_.front()) setup();
      const std::uint64_t sweep_t0 = now_ns();
      for (std::size_t i = 0; i < sweep_.size(); ++i) {
        core::Pipeline& pipeline = *pipelines_[i];
        const std::uint64_t id = ++ops_;
        const double cpu0 = obs::process_cpu_ms();
        const std::uint64_t t0 = now_ns();
        const core::PipelineResult r = pipeline.run(dataset_.get());
        const std::uint64_t t1 = now_ns();
        pass.cpu_ms += obs::process_cpu_ms() - cpu0;
        pass.call_ms += ms_between(t0, t1);
        probe.span("bench.pipeline_run", t0, t1, id);
        probe.between_ops();
        pass.op_ms.push_back(ms_between(t0, t1));
        pass.scores.push_back(r.best_score);
        ++pass.attempted;
        if (!check(i, pipeline.space(), r)) ++pass.failed;
        pipelines_[i].reset();
      }
      pass.rates.push_back(static_cast<double>(sweep_.size()) * 1e3 /
                           ms_between(sweep_t0, now_ns()));
    } while (ms_between(start, now_ns()) < seconds * 1e3);
    return pass;
  }

 protected:
  /// Dataset synthesis (proxy mode) and Pipeline construction for the
  /// whole sweep.
  void prepare() override {
    if (dataset_config_) {
      dataset_ = std::make_unique<data::SyntheticDataset>(*dataset_config_);
    }
    pipelines_.clear();
    for (const core::PipelineConfig& cfg : sweep_) {
      pipelines_.push_back(std::make_unique<core::Pipeline>(cfg));
    }
  }

 private:
  Search(std::vector<core::PipelineConfig> sweep,
         std::optional<data::SyntheticConfig> dataset)
      : sweep_(std::move(sweep)),
        dataset_config_(dataset),
        winners_(sweep_.size()) {}

  /// The winner parses back to itself, its score is finite, and every
  /// search of this process with the same configuration (untraced,
  /// traced or profiled) picks it with a bit-identical score.
  bool check(std::size_t i, const core::SearchSpace& space,
             const core::PipelineResult& r) {
    const std::string arch = r.best_arch.to_string(space);
    try {
      if (!(core::Arch::from_string(space, arch) == r.best_arch)) return false;
    } catch (const std::exception&) {
      return false;
    }
    if (!std::isfinite(r.best_score)) return false;
    const std::string print = arch + "/" + hex_bits(r.best_score);
    if (!winners_[i]) winners_[i] = print;
    return *winners_[i] == print;
  }

  std::vector<core::PipelineConfig> sweep_;
  std::optional<data::SyntheticConfig> dataset_config_;
  std::unique_ptr<data::SyntheticDataset> dataset_;
  std::vector<std::unique_ptr<core::Pipeline>> pipelines_;
  std::vector<std::optional<std::string>> winners_;
  std::uint64_t ops_ = 0;
};

// ---------------------------------------------------------------------------
// train_supernet: single-path uniform-sampling training on the proxy space,
// 720 images, batch 36, 10 epochs per SupernetTrainer::run.

class TrainSupernet final : public Workload {
 public:
  static constexpr int kEpochs = 10;

  explicit TrainSupernet(std::uint64_t seed) {
    util::Rng rng(seed);
    space_ = std::make_unique<core::SearchSpace>(
        core::SearchSpaceConfig::proxy(6, 12, 1));
    ds_.num_classes = 6;
    ds_.train_size = 720;
    ds_.val_size = 36;
    ds_.image_size = 12;
    ds_.seed = rng.next() % 1000000 + 1;
    train_.batch_size = 36;
    train_.lr = 0.08;
    train_.epochs = kEpochs;
    // train_.seed keeps its default: it picks the sampled paths and with
    // them the work, so only the data and the weights vary with the seed.
    net_seed_ = rng.next() % 1000000 + 1;
  }

  Pass measure(double seconds, const Probe& probe) override {
    Pass pass;
    const std::uint64_t start = now_ns();
    do {
      if (!trainer_) setup();  // a set-up like any other
      const std::uint64_t id = ++ops_;
      std::uint64_t epoch_t0 = now_ns();
      const auto on_epoch = [&](int, const core::EpochStats&) {
        const std::uint64_t t = now_ns();
        pass.op_ms.push_back(ms_between(epoch_t0, t));
        pass.rates.push_back(static_cast<double>(ds_.train_size) * 1e3 /
                             ms_between(epoch_t0, t));
        probe.span("bench.train_epoch", epoch_t0, t, ++ops_, id);
        epoch_t0 = t;
      };
      const std::uint64_t t0 = now_ns();
      const std::vector<core::EpochStats> hist =
          trainer_->run(kEpochs, train_.lr, 0, on_epoch);
      const std::uint64_t t1 = now_ns();
      probe.span("bench.trainer_run", t0, t1, id);
      probe.between_ops();
      ++pass.attempted;
      const double loss = hist.empty() ? NAN : hist.back().loss;
      pass.final_loss = loss;
      if (!check(hist.size(), loss)) ++pass.failed;
      trainer_.reset();  // the next run starts from fresh weights
    } while (ms_between(start, now_ns()) < seconds * 1e3);
    return pass;
  }

 protected:
  /// Dataset synthesis, Supernet and trainer construction.
  void prepare() override {
    trainer_.reset();
    supernet_.reset();
    dataset_ = std::make_unique<data::SyntheticDataset>(ds_);
    supernet_ = std::make_unique<core::Supernet>(*space_, net_seed_);
    trainer_ =
        std::make_unique<core::SupernetTrainer>(*supernet_, *dataset_, train_);
  }

 private:
  /// Every run of this process, untraced or traced, trains from the same
  /// seed and must end on a bit-identical finite loss.
  bool check(std::size_t epochs, double loss) {
    if (epochs != static_cast<std::size_t>(kEpochs) || !std::isfinite(loss)) {
      return false;
    }
    if (!loss_) loss_ = loss;
    return std::bit_cast<std::uint64_t>(*loss_) ==
           std::bit_cast<std::uint64_t>(loss);
  }

  std::unique_ptr<core::SearchSpace> space_;
  data::SyntheticConfig ds_;
  core::TrainConfig train_;
  std::uint64_t net_seed_ = 0;
  std::unique_ptr<data::SyntheticDataset> dataset_;
  std::unique_ptr<core::Supernet> supernet_;
  std::unique_ptr<core::SupernetTrainer> trainer_;
  std::optional<double> loss_;
  std::uint64_t ops_ = 0;
};

// ---------------------------------------------------------------------------
// serve_int8: closed loop, kClients benchmark-owned client threads with one
// request in flight each, against an int8 BatchServer with kLanes lanes,
// batch-max 8 and a 2000 µs deadline.

class ServeInt8 final : public Workload {
 public:
  static constexpr std::size_t kClients = 2;
  static constexpr std::size_t kLanes = 2;
  static constexpr std::size_t kInputs = 256;
  static constexpr std::size_t kWarmupPerClient = 40;
  static constexpr std::size_t kRateChunk = 256;

  explicit ServeInt8(std::uint64_t seed)
      : space_(core::SearchSpaceConfig::proxy()) {
    // The arch `hsconas serve` serves by default (drawn from its seed 42):
    // the arch sets the work per request, so it does not vary with the
    // workload seed; weights and requests do.
    util::Rng arch_rng(42);
    arch_ = core::Arch::random(space_, arch_rng);
    util::Rng rng(seed);
    cfg_.batch_max = 8;
    cfg_.deadline_us = 2000;
    cfg_.workers = kLanes;
    cfg_.dtype = nn::InferenceDType::kI8;
    cfg_.seed = rng.next() % 1000000 + 1;
    const core::SearchSpaceConfig& sc = space_.config();
    const auto in_size = static_cast<std::size_t>(
        sc.input_channels * sc.input_size * sc.input_size);
    inputs_.assign(kInputs, std::vector<float>(in_size));
    for (auto& in : inputs_) {
      for (float& v : in) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    order_seed_ = rng.next();
    compute_references();
  }

  Pass measure(double seconds, const Probe& probe) override {
    Pass pass;
    // Warm-up: fill the tensor pools and fault every path in, unmeasured.
    run_clients(probe, kWarmupPerClient, 0.0);
    obs::gauge("hsconas.serve.queue_depth_peak").reset();
    pass.before = obs::metrics_snapshot();
    pass.windowed = true;
    const std::vector<Sample> samples = run_clients(probe, 0, seconds);
    pass.after = obs::metrics_snapshot();
    probe.between_ops();
    // Rate of correct answers over each run of kRateChunk consecutive ones.
    std::vector<std::uint64_t> done;
    for (const Sample& r : samples) {
      pass.op_ms.push_back(r.ms);
      ++pass.attempted;
      if (r.ok) {
        done.push_back(r.done_ns);
      } else {
        ++pass.failed;
      }
    }
    std::sort(done.begin(), done.end());
    for (std::size_t i = 0; i + kRateChunk < done.size(); i += kRateChunk) {
      pass.rates.push_back(static_cast<double>(kRateChunk) * 1e3 /
                           ms_between(done[i], done[i + kRateChunk]));
    }
    if (pass.rates.empty()) {
      pass.rates.push_back(static_cast<double>(done.size()) / seconds);
    }
    return pass;
  }

  /// The clients and the lanes; the driver's thread only waits on them.
  std::size_t working_threads() const override { return kClients + kLanes; }

 protected:
  /// Server construction, int8 calibration of every lane included.
  void prepare() override {
    server_.reset();  // restores the global dtype before the next one sets it
    server_ = std::make_unique<serve::BatchServer>(space_, arch_, cfg_);
  }

 private:
  struct Sample {
    double ms = 0.0;            ///< client-observed latency
    std::uint64_t done_ns = 0;  ///< completion time
    bool ok = false;            ///< answered, bit-identical to the reference
  };

  /// Reference response of every input, from a one-lane server of the same
  /// weights and quantizers that serves one request at a time. Responses
  /// under batching and lanes must match them bit for bit.
  void compute_references() {
    serve::ServerConfig ref_cfg = cfg_;
    ref_cfg.workers = 1;
    ref_cfg.deadline_us = 0;
    serve::BatchServer ref(space_, arch_, ref_cfg);
    references_.assign(kInputs, std::vector<float>(ref.output_size()));
    for (std::size_t i = 0; i < kInputs; ++i) {
      ref.infer(inputs_[i], references_[i]);
    }
  }

  /// Runs the clients for `count` requests each (warm-up, nothing
  /// recorded) or, with count 0, until `seconds` have passed.
  std::vector<Sample> run_clients(const Probe& probe, std::size_t count,
                                  double seconds) {
    const bool measured = count == 0;
    std::atomic<std::uint64_t> next_id{1};
    const std::uint64_t stop =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::vector<Sample>> per_client(kClients);
    const auto drive = [&](std::size_t c) {
      util::Rng order(order_seed_ + c);
      std::vector<float> out(server_->output_size());
      std::vector<Sample>& mine = per_client[c];
      mine.reserve(1 << 16);
      for (std::size_t r = 0; measured ? now_ns() < stop : r < count; ++r) {
        const std::size_t i = order.next() % kInputs;
        const std::uint64_t t0 = now_ns();
        bool ok = true;
        try {
          server_->infer(inputs_[i], out);
        } catch (const std::exception&) {
          ok = false;
        }
        const std::uint64_t t1 = now_ns();
        if (!measured) continue;
        probe.span("bench.infer", t0, t1, next_id.fetch_add(1));
        ok = ok && perfbench::bit_mismatches(out, references_[i]) == 0;
        mine.push_back(Sample{ms_between(t0, t1), t1, ok});
      }
    };
    const auto client = [&](std::size_t c) noexcept {
      try {
        drive(c);
      } catch (const std::exception&) {
        per_client[c].push_back(Sample{0.0, stop, false});  // counted failed
      }
    };
    {
      std::vector<std::jthread> threads;  // joined on every exit path
      for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back(client, c);
      }
    }
    std::vector<Sample> all;
    for (const auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
    return all;
  }

  core::SearchSpace space_;
  core::Arch arch_;
  serve::ServerConfig cfg_;
  std::vector<std::vector<float>> inputs_;
  std::vector<std::vector<float>> references_;
  std::uint64_t order_seed_ = 0;
  std::unique_ptr<serve::BatchServer> server_;
};

// ---------------------------------------------------------------------------
// Driver

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string git = "unknown";
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + key);
    }
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      o.trace = value == "1";
    } else if (key == "--out-dir") {
      o.out_dir = value;
    } else if (key == "--git") {
      o.git = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "search_proxy") return Search::proxy(seed);
  if (name == "search_surrogate") return Search::surrogate(seed);
  if (name == "train_supernet") return std::make_unique<TrainSupernet>(seed);
  if (name == "serve_int8") return std::make_unique<ServeInt8>(seed);
  throw std::invalid_argument("unknown workload " + name);
}

/// Seconds a traced run may spend on its three passes, leaving room for
/// set-up, the build check and output within the 180 s a run may take.
constexpr double kTraceBudgetS = 140.0;

/// Set-ups before and after the measured passes; setup_s is the median of
/// these and of those a workload makes between its operations. Short
/// set-ups run at the speed of whichever core they land on, so sampling
/// both ends of the run (and the middle, where a workload sets up between
/// operations) keeps the median from following one core's load. The
/// counts are fixed, so that peak RSS (a server set-up starts lane threads
/// and their malloc arenas) does not depend on how fast set-up ran.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;

Pass run_pass(Workload& w, double seconds, const Probe& probe) {
  obs::Tracer::clear();
  if (probe.mode == Mode::kSpans) obs::Tracer::enable();
  if (probe.mode == Mode::kProfile) {
    obs::Profiler::clear();
    obs::Profiler::enable();
  }
  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  Pass pass = w.measure(seconds, probe);
  if (!pass.windowed) {
    pass.before = before;
    pass.after = obs::metrics_snapshot();
  }
  obs::Tracer::disable();
  obs::Profiler::disable();
  return pass;
}

void end_to_end(const Pass& p, double setup_s, Metrics& m) {
  m["setup_s"] = {setup_s, "s"};
  m["op_p50_ms"] = {perfbench::median(p.op_ms), "ms"};
  m["items_per_s"] = {perfbench::median(p.rates), "1/s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
}

void layers(const Pass& untraced, const Pass& spans, const Pass& prof,
            const SpanCollector& col, Metrics& m) {
  const auto count = [](double v) { return Metric{v, "count"}; };
  const auto ms = [](double v) { return Metric{v, "ms"}; };
  const Pass& u = untraced;

  // core.pipeline: CPU per wall over the untraced Pipeline::run calls.
  const bool searched = !u.scores.empty();
  m["core.pipeline.wall_ms"] = ms(searched ? u.call_ms : 0.0);
  m["core.pipeline.cpu_ms"] = ms(searched ? u.cpu_ms : 0.0);
  m["core.pipeline.cpu_per_wall"] = {searched ? ratio(u.cpu_ms, u.call_ms) : 0.0,
                                     "ratio"};
  double score = 0.0;
  for (double s : u.scores) score += s / static_cast<double>(u.scores.size());
  m["core.pipeline.winner_score"] = {score, "score"};

  m["core.supernet.forward_calls"] =
      count(counter_delta(u, "hsconas.supernet.forwards"));
  m["core.supernet.forward_ms"] = ms(col.total_ms("supernet.forward"));
  m["core.supernet.backward_calls"] =
      count(counter_delta(u, "hsconas.supernet.backwards"));
  m["core.supernet.backward_ms"] = ms(col.total_ms("supernet.backward"));

  m["core.trainer.train_ms"] = ms(col.total_ms("train.run"));
  m["core.trainer.steps"] = count(counter_delta(u, "hsconas.train.steps"));
  m["core.trainer.final_loss"] = {u.final_loss, "loss"};

  m["core.space_shrinking.ms"] = ms(col.total_ms("pipeline.space_shrinking"));
  m["core.space_shrinking.subspaces_scored"] =
      count(counter_delta(u, "hsconas.shrink.subspaces_scored"));

  const double hits = counter_delta(u, "hsconas.evolution.memo_hits");
  const double lookups =
      hits + counter_delta(u, "hsconas.evolution.memo_misses");
  m["core.evolution.ms"] = ms(col.total_ms("evolution.run"));
  m["core.evolution.self_ms"] = ms(col.evolution_self_ms());
  m["core.evolution.candidates"] =
      count(counter_delta(u, "hsconas.evolution.candidates_evaluated"));
  m["core.evolution.memo_hits"] = count(hits);
  m["core.evolution.memo_lookups"] = count(lookups);
  m["core.evolution.memo_hit_ratio"] = {ratio(hits, lookups), "ratio"};

  m["core.latency_model.build_ms"] = ms(col.total_ms("pipeline.latency_model"));
  m["core.latency_model.device_probes"] =
      count(counter_delta(u, "hsconas.latency.device_probes"));
  m["core.latency_model.lut_entries"] =
      count(counter_delta(u, "hsconas.latency.lut_entries_built"));

  m["util.thread_pool.tasks"] =
      count(counter_delta(u, "hsconas.pool.tasks_executed"));
  m["util.thread_pool.parallel_for_calls"] =
      count(counter_delta(u, "hsconas.pool.parallel_for_calls"));

  // nn: profiler rows of the profiled pass, by direction and op kind.
  static const char* const kKinds[] = {"conv",    "dwconv",  "linear", "pool",
                                       "eltwise", "shuffle", "other"};
  std::map<std::string, double> by_kind;
  double fwd_ms = 0.0, bwd_ms = 0.0, fwd_flop = 0.0, fwd_bytes = 0.0,
         op_calls = 0.0;
  for (const obs::OpStats& s : obs::Profiler::snapshot()) {
    const std::string& op = s.key.op;
    const bool bwd = op.size() > 4 && op.compare(op.size() - 4, 4, ".bwd") == 0;
    const double n = static_cast<double>(s.calls);
    op_calls += n;
    (bwd ? bwd_ms : fwd_ms) += s.wall_ms_total;
    by_kind[s.key.kind + (bwd ? ".bwd_ms" : ".fwd_ms")] += s.wall_ms_total;
    if (!bwd) {
      fwd_flop += s.flops_per_call * n;
      fwd_bytes += s.bytes_per_call * n;
    }
  }
  m["nn.fwd_ms"] = ms(fwd_ms);
  m["nn.bwd_ms"] = ms(bwd_ms);
  for (const char* kind : kKinds) {
    for (const char* dir : {".fwd_ms", ".bwd_ms"}) {
      const std::string key = std::string(kind) + dir;
      m["nn." + key] = ms(by_kind.count(key) ? by_kind[key] : 0.0);
    }
  }
  m["nn.op_calls"] = count(op_calls);
  m["nn.fwd_gflop"] = {fwd_flop / 1e9, "GFLOP"};
  m["nn.fwd_gbytes"] = {fwd_bytes / 1e9, "GB"};

  m["tensor.gemm.calls"] = count(
      counter_delta(u, "hsconas.gemm.calls") +
      counter_delta(u, "hsconas.gemm.calls_at_b") +
      counter_delta(u, "hsconas.gemm.calls_a_bt") +
      counter_delta(u, "hsconas.gemm.calls_fused"));
  m["tensor.gemm.gflop"] = {counter_delta(u, "hsconas.gemm.flops") / 1e9,
                            "GFLOP"};
  m["tensor.gemm_i8.calls"] =
      count(counter_delta(u, "hsconas.gemm_i8.calls") +
            counter_delta(u, "hsconas.gemm_i8.calls_requant"));
  m["tensor.gemm_i8.gmac"] = {counter_delta(u, "hsconas.gemm_i8.macs") / 1e9,
                              "GMAC"};
  m["tensor.im2col.calls"] = count(counter_delta(u, "hsconas.im2col.calls"));
  m["tensor.col2im.calls"] = count(counter_delta(u, "hsconas.col2im.calls"));
  m["tensor.workspace.heap_allocs"] =
      count(counter_delta(u, "hsconas.workspace.heap_allocs"));

  // serve: registry over the untraced steady-state window.
  const bool served = counter_delta(u, "hsconas.serve.requests") > 0;
  const auto [fwd_n, fwd_sum] = histogram_delta(u, "hsconas.serve.forward_ms");
  const auto [occ_n, occ_sum] =
      histogram_delta(u, "hsconas.serve.batch_occupancy");
  double lat_sum = 0.0;
  for (double v : u.op_ms) lat_sum += v;
  const double lat_mean =
      served ? lat_sum / static_cast<double>(u.op_ms.size()) : 0.0;
  const double fwd_mean = ratio(fwd_sum, fwd_n);
  const perfbench::Tail tail =
      served ? perfbench::tail_percentile(u.op_ms) : perfbench::Tail{};
  m["serve.requests"] = count(served ? static_cast<double>(u.op_ms.size()) : 0);
  m["serve.batches"] = count(counter_delta(u, "hsconas.serve.batches"));
  m["serve.occupancy"] = {ratio(occ_sum, occ_n), "requests/batch"};
  m["serve.queue_depth_peak"] = count(
      served ? u.after.gauge_value("hsconas.serve.queue_depth_peak") : 0.0);
  m["serve.forward_ms"] = ms(fwd_mean);
  m["serve.wait_ms"] = ms(served ? lat_mean - fwd_mean : 0.0);
  m["serve.heap_allocs"] =
      count(served ? counter_delta(u, "hsconas.tensor.pool.heap_allocs") : 0);
  m["serve.tail_pct"] = {tail.pct, "%"};
  m["serve.tail_ms"] = ms(tail.value);
  m["serve.tail_samples"] = count(static_cast<double>(tail.samples));

  // Tracing overhead: the same operations' median, traced minus untraced.
  // A skipped pass has no operations and reads 0 throughout.
  const double base = perfbench::median(u.op_ms);
  const auto overhead = [&](const Pass& p) {
    return p.op_ms.empty() ? 0.0 : perfbench::median(p.op_ms) - base;
  };
  m["trace.untraced_op_ms"] = ms(base);
  m["trace.spans_op_ms"] = ms(perfbench::median(spans.op_ms));
  m["trace.profile_op_ms"] = ms(perfbench::median(prof.op_ms));
  m["trace.spans_overhead_ms"] = ms(overhead(spans));
  m["trace.profile_overhead_ms"] = ms(overhead(prof));
  m["trace.dropped_spans"] = count(static_cast<double>(col.dropped()));
}

std::string provenance_json(const Options& o, const Workload& w,
                            std::size_t pool, std::size_t ops,
                            std::size_t setups, double steal_share,
                            const std::string& skipped) {
  const std::size_t cores = nproc();
  const std::size_t working = w.working_threads();
  // A one-worker pool runs parallel_for inline on the caller, so it adds
  // no running thread to the budget.
  const std::size_t pool_running = pool > 1 ? pool : 0;
  std::string s = "{";
  s += "\"git\": " + perfbench::json_quote(o.git);
  s += ", \"nproc\": " + std::to_string(cores);
  s += std::string(", \"avx512_vnni\": ") +
       (has_avx512_vnni() ? "true" : "false");
  s += ", \"compiler\": " +
       perfbench::json_quote(std::string(PERFBENCH_COMPILER) + " (" +
                             __VERSION__ + ")");
  s += ", \"build_type\": " + perfbench::json_quote(PERFBENCH_BUILD_TYPE);
  s += std::string(", \"hsconas_enable_tracing\": ") +
       (PERFBENCH_TRACING ? "true" : "false");
  s += ", \"workload\": " + perfbench::json_quote(o.workload);
  s += ", \"seed\": " + std::to_string(o.seed);
  s += ", \"seconds\": " + std::to_string(o.seconds);
  s += std::string(", \"trace\": ") + (o.trace ? "1" : "0");
  s += ", \"global_pool_threads\": " + std::to_string(pool);
  s += ", \"working_threads\": " + std::to_string(working);
  s += std::string(", \"thread_budget_ok\": ") +
       (working + pool_running <= cores ? "true" : "false");
  s += ", \"operations\": " + std::to_string(ops);
  s += ", \"setups\": " + std::to_string(setups);
  // Share of host CPU time the hypervisor stole while measuring: a run
  // on a contended host reads slow, and this says so.
  s += ", \"cpu_steal_share\": " + std::to_string(steal_share);
  s += ", \"skipped_passes\": " + perfbench::json_quote(skipped);
  return s + "}";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
}

int run(const Options& o) {
  const std::uint64_t run_start = now_ns();
  std::string skipped;  // traced passes left out to keep within the budget
  util::set_log_level(util::LogLevel::kWarn);
  std::unique_ptr<Workload> w = make_workload(o.workload, o.seed);

  // Thread budget: the workload's own working threads (the driver's
  // thread, or the clients and lanes) + global pool workers <= nproc. The
  // pool gets one worker, which runs parallel_for inline on the caller:
  // on a shared host, threads that meet at every parallel_for wait for
  // whichever of them the hypervisor has descheduled, so a wider pool
  // turns a few percent of stolen time into tens of percent of spread.
  constexpr std::size_t pool = 1;
  util::ThreadPool::configure_global(pool);

  for (int i = 0; i < kSetupsBefore; ++i) w->setup();

  Metrics metrics;
  const CpuTicks ticks0 = cpu_ticks();
  std::uint64_t attempted = 0, failed = 0;
  std::size_t ops = 0;
  const auto tally = [&](const Pass& p) {
    attempted += p.attempted;
    failed += p.failed;
    ops += p.op_ms.size();
  };

  Pass untraced;
  if (!o.trace) {
    untraced = run_pass(*w, o.seconds, Probe{});
    tally(untraced);
  } else {
    SpanLog spans;
    SpanCollector collector;
    // Each pass measures a third of the run's seconds. A traced pass that
    // would end past the budget is skipped: its metrics read 0 and the
    // provenance names it.
    double longest_s = 0.0;
    const auto timed_pass = [&](const Probe& probe, const char* name) {
      const double elapsed_s = ms_between(run_start, now_ns()) / 1e3;
      if (elapsed_s + 1.25 * longest_s > kTraceBudgetS) {
        skipped += skipped.empty() ? name : std::string(",") + name;
        return Pass{};
      }
      const std::uint64_t t0 = now_ns();
      Pass p = run_pass(*w, o.seconds / 3.0, probe);
      longest_s = std::max(longest_s, ms_between(t0, now_ns()) / 1e3);
      return p;
    };
    untraced = timed_pass(Probe{}, "untraced");
    const Pass traced =
        timed_pass(Probe{Mode::kSpans, &spans, &collector}, "spans");
    const Pass profiled = timed_pass(Probe{Mode::kProfile}, "profile");
    tally(untraced);
    tally(traced);
    tally(profiled);
    layers(untraced, traced, profiled, collector, metrics);
    std::vector<Span> all = spans.take();
    for (Span& s : collector.kept()) all.push_back(std::move(s));
    const std::string trace_path = o.out_dir + "/" + o.workload + "-seed" +
                                   std::to_string(o.seed) + ".trace.json";
    write_file(trace_path, perfbench::chrome_trace_json(all));
    std::printf("trace: %s (%zu spans)\n", trace_path.c_str(), all.size());
  }

  const CpuTicks ticks1 = cpu_ticks();
  for (int i = 0; i < kSetupsAfter; ++i) w->setup();
  if (!o.trace) end_to_end(untraced, perfbench::median(w->setup_s()), metrics);
  const bool correct = failed == 0;
  const std::string prov =
      provenance_json(o, *w, pool, ops, w->setup_s().size(),
                      ratio(ticks1.steal - ticks0.steal,
                            ticks1.total - ticks0.total),
                      skipped);
  const std::string result = perfbench::result_json(correct, attempted,
                                                    failed, metrics);
  write_file(o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                 "-trace" + (o.trace ? "1" : "0") + ".json",
             "{\"provenance\": " + prov + ", \"result\": " + result + "}\n");
  std::printf("provenance: %s\n", prov.c_str());
  for (const auto& [name, m] : metrics) {
    std::printf("  %-40s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
