// Shared pieces of the repository benchmark: options, the result record the
// binary prints, order statistics, the benchmark-owned span tracer used by
// the traced (--trace 1) replay runs, and small host probes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/common.hpp"
#include "core/counters.hpp"
#include "core/thread_pool.hpp"
#include "mem/alloc.hpp"

namespace perfbench {

using legw::i64;
using legw::u64;

inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms(i64 ns) { return static_cast<double>(ns) * 1e-6; }

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny shapes for the smoke test: every code path, a fraction of the work.
  bool tiny = false;
  // Planted defects for the negative smoke test: "wrong_row" corrupts one
  // served row before it is checked; "wrong_loss" perturbs the final train
  // loss the binary reports (the reference check in run.py must catch it).
  std::string plant;
  std::string out_dir = ".";
};

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Samples strictly above `cut` (the sample count behind a percentile).
inline i64 beyond(const std::vector<double>& v, double cut) {
  return std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; });
}

// Everything one workload process reports; main() prints it as one JSON line.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, double>> info;  // samples, threads, ...
  std::vector<std::pair<std::string, std::string>> text;
  std::vector<std::string> failures;
  i64 ops_attempted = 0;
  i64 ops_failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, double value) { info.push_back({key, value}); }
  void note(const std::string& key, const std::string& value) {
    text.push_back({key, value});
  }
  // One checked operation; a failed one is counted and explained.
  void op(bool ok, const std::string& what) {
    ++ops_attempted;
    if (!ok) {
      ++ops_failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

// ---- benchmark-owned tracing -------------------------------------------------
//
// Spans recorded around the benchmark's calls into each layer's public
// functions. They stay in memory until the run ends (write_jsonl), so tracing
// costs one clock read and one vector slot per span. Self time is a span's
// duration minus the union of its children's intervals (children may run on
// other threads, e.g. the per-replica forwards inside the dist engine).
class Tracer {
 public:
  struct Span {
    const char* name = "";
    i64 start = 0;
    i64 end = 0;
    int parent = -1;
    i64 step = -1;
  };

  void reserve(std::size_t n) { spans_.reserve(n); }
  void set_step(i64 step) { step_ = step; }

  // parent == kStack: the innermost open span of the calling thread.
  static constexpr int kStack = -2;
  int open(const char* name, int parent = kStack) {
    std::lock_guard<std::mutex> lock(mu_);
    if (parent == kStack) parent = stack().empty() ? -1 : stack().back();
    spans_.push_back({name, now_ns(), 0, parent, step_});
    const int idx = static_cast<int>(spans_.size()) - 1;
    stack().push_back(idx);
    return idx;
  }
  void close(int idx) {
    const i64 t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(idx)].end = t;
    if (!stack().empty() && stack().back() == idx) stack().pop_back();
  }

  // Sum of self time (ns) over spans called `name`.
  i64 self_ns(const std::string& name) const;
  // Sum of full duration (ns) over spans called `name`.
  i64 total_ns(const std::string& name) const;
  i64 count(const std::string& name) const;
  bool write_jsonl(const std::string& path) const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static std::vector<int>& stack() {
    thread_local std::vector<int> s;
    return s;
  }
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  i64 step_ = -1;
};

// RAII span; a null tracer makes it a no-op (the untraced runs).
class Scoped {
 public:
  Scoped(Tracer* t, const char* name, int parent = Tracer::kStack)
      : t_(t), idx_(t != nullptr ? t->open(name, parent) : -1) {}
  ~Scoped() {
    if (t_ != nullptr) t_->close(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int index() const { return idx_; }

 private:
  Tracer* t_;
  int idx_;
};

// Counter snapshot bracketing a measured window (steps, or requests).
struct Window {
  i64 gemm = 0;
  i64 lstm = 0;
  i64 heap_allocs = 0;
  i64 pool_worker_ns = 0;
  i64 pool_inline_ns = 0;
  i64 wall_ns = 0;

  static Window now() {
    Window w;
    w.gemm = legw::core::dispatch_count(legw::core::DispatchCounter::kGemmRef) +
             legw::core::dispatch_count(legw::core::DispatchCounter::kGemmBlocked);
    w.lstm = legw::core::dispatch_count(legw::core::DispatchCounter::kLstmCellForward) +
             legw::core::dispatch_count(legw::core::DispatchCounter::kLstmCellBackward);
    w.heap_allocs = legw::mem::mem_stats().heap_allocs;
    const legw::core::ThreadPool::Stats ps = legw::core::ThreadPool::global().stats();
    for (i64 b : ps.worker_busy_ns) w.pool_worker_ns += b;
    w.pool_inline_ns = ps.inline_busy_ns;
    w.wall_ns = now_ns();
    return w;
  }
  // Accumulates the difference end - start into *this.
  void add(const Window& start, const Window& end) {
    gemm += end.gemm - start.gemm;
    lstm += end.lstm - start.lstm;
    heap_allocs += end.heap_allocs - start.heap_allocs;
    pool_worker_ns += end.pool_worker_ns - start.pool_worker_ns;
    pool_inline_ns += end.pool_inline_ns - start.pool_inline_ns;
    wall_ns += end.wall_ns - start.wall_ns;
  }
};

// Pool utilisation over a window: worker busy time per worker, and the
// caller's own (inline) share. A 1-thread pool has no workers: busy reads 0.
inline void pool_metrics(const Window& w, std::map<std::string, double>* m) {
  const int workers = legw::core::ThreadPool::global().size() - 1;
  const auto wall = static_cast<double>(w.wall_ns);
  (*m)["core.pool_busy_frac"] =
      workers > 0 ? static_cast<double>(w.pool_worker_ns) / (wall * workers) : 0.0;
  (*m)["core.pool_inline_frac"] = static_cast<double>(w.pool_inline_ns) / wall;
}

// Every per-layer metric the traced run emits, with its unit. A workload
// that leaves a layer idle reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// Fills every per-layer metric from `values` (missing names read 0).
void emit_per_layer(Report& rep, const std::map<std::string, double>& values);

// VmHWM of this process in MB.
double peak_rss_mb();

// Wall time (ms) of a fixed scalar dependency chain: the host-drift probe.
double drift_probe_ms();

// Entry points, one per workload. Each fills `rep` with the end-to-end
// metrics (untraced) or the per-layer metrics (traced).
void run_ptb(const Options& opt, Report& rep);
void run_resnet(const Options& opt, Report& rep);
void run_mnist(const Options& opt, Report& rep);
void run_serve(const Options& opt, Report& rep);

}  // namespace perfbench
