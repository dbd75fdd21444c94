// legw_perfbench: one workload of the repository benchmark in one process.
//
//   legw_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--tiny 1] [--plant wrong_row|wrong_loss] [--out-dir DIR]
//
// Prints human-readable progress on stderr and, as the last stdout line, one
// JSON object with the metrics, sample counts and checked operations.
// perfbench/run.py sets every LEGW_* switch, builds this binary, runs it and
// applies the reference checks; run that, not this binary directly.
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

i64 Tracer::self_ns(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
  }
  i64 total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name) continue;
    std::vector<std::pair<i64, i64>> iv;
    for (int c : children[i]) {
      const Span& cs = spans_[static_cast<std::size_t>(c)];
      iv.push_back({std::max(cs.start, s.start), std::min(cs.end, s.end)});
    }
    std::sort(iv.begin(), iv.end());
    i64 covered = 0;
    i64 cur_lo = 0;
    i64 cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    total += (s.end - s.start) - covered;
  }
  return total;
}

i64 Tracer::total_ns(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  i64 total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end - s.start;
  }
  return total;
}

i64 Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  i64 n = 0;
  for (const Span& s : spans_) n += name == s.name ? 1 : 0;
  return n;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
        << s.start << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
        << ",\"step\":" << s.step << "}\n";
  }
  return static_cast<bool>(out);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"data.batch_ms", "ms"},
      {"ag.forward_ms", "ms"},
      {"ag.backward_ms", "ms"},
      {"optim.clip_ms", "ms"},
      {"optim.update_ms", "ms"},
      {"core.gemm_calls", "count"},
      {"core.lstm_cell_calls", "count"},
      {"core.gemm_gflops", "GFLOP/s"},
      {"core.pool_busy_frac", "frac"},
      {"core.pool_inline_frac", "frac"},
      {"mem.heap_peak_mb", "MB"},
      {"mem.heap_allocs_per_step", "count"},
      {"mem.arena_peak_mb", "MB"},
      {"dist.replica_backward_ms", "ms"},
      {"dist.codec_ms", "ms"},
      {"dist.reducer_idle_frac", "frac"},
      {"dist.wire_bytes_per_step", "bytes"},
      {"dist.buckets_per_step", "count"},
      {"ckpt.save_ms", "ms"},
      {"ckpt.image_bytes", "bytes"},
      {"ckpt.resume_ms", "ms"},
      {"ckpt.replayed_steps_frac", "frac"},
      {"serve.load_ms", "ms"},
      {"serve.infer_ms_b16", "ms"},
      {"serve.infer_ms_b32", "ms"},
      {"serve.infer_ms_b64", "ms"},
      {"serve.broker_ms_p50", "ms"},
      {"serve.gen_late_ms_p90", "ms"},
      {"serve.batch_rows_mean", "count"},
      {"serve.deadline_batch_frac", "frac"},
      {"serve.pad_row_frac", "frac"},
      {"serve.pad_token_frac", "frac"},
      {"train.eval_ms", "ms"},
      {"train.loop_ms", "ms"},
      {"obs.trace_overhead_frac", "frac"},
  };
  return kMetrics;
}

void emit_per_layer(Report& rep, const std::map<std::string, double>& values) {
  std::set<std::string> known;
  for (const auto& [name, unit] : per_layer_metrics()) {
    known.insert(name);
    const auto it = values.find(name);
    rep.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, v] : values) {
    if (known.count(name) == 0) {
      throw std::logic_error("per-layer metric not declared: " + name);
    }
  }
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double drift_probe_ms() {
  // A fixed xorshift dependency chain: no memory traffic, no library code,
  // so its time moves only with the host (frequency, co-tenants).
  volatile u64 sink = 0;
  const i64 t0 = now_ns();
  u64 x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 30'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return ms(now_ns() - t0);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const Options& opt, const Report& rep) {
  std::string s = "{\"workload\":\"" + json_escape(opt.workload) + "\"";
  s += ",\"seed\":" + std::to_string(opt.seed);
  s += opt.trace ? ",\"trace\":1" : ",\"trace\":0";
  const char* sep = "";
  s += ",\"metrics\":{";
  for (const auto& [name, vu] : rep.metrics) {
    s += sep;
    s += "\"" + name + "\":{\"value\":" + num(vu.first) + ",\"unit\":\"" + vu.second + "\"}";
    sep = ",";
  }
  sep = "";
  s += "},\"info\":{";
  for (const auto& [key, value] : rep.info) {
    s += sep;
    s += "\"" + key + "\":" + num(value);
    sep = ",";
  }
  for (const auto& [key, value] : rep.text) {
    s += sep;
    s += "\"" + key + "\":\"" + json_escape(value) + "\"";
    sep = ",";
  }
  sep = "";
  s += "},\"ops_attempted\":" + std::to_string(rep.ops_attempted);
  s += ",\"ops_failed\":" + std::to_string(rep.ops_failed);
  s += ",\"failures\":[";
  for (const std::string& f : rep.failures) {
    s += sep;
    s += '"';
    s += json_escape(f);
    s += '"';
    sep = ",";
  }
  s += "]}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--tiny") {
      opt.tiny = v == "1";
    } else if (k == "--plant") {
      opt.plant = v;
    } else if (k == "--out-dir") {
      opt.out_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  Report rep;
  const double drift_before = drift_probe_ms();
  if (opt.workload == "ptb_lstm_k16") {
    run_ptb(opt, rep);
  } else if (opt.workload == "resnet_lars_k8") {
    run_resnet(opt, rep);
  } else if (opt.workload == "mnist_dp2_ckpt") {
    run_mnist(opt, rep);
  } else if (opt.workload == "serve_ptb_open") {
    run_serve(opt, rep);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  rep.note("drift_before_ms", drift_before);
  rep.note("drift_after_ms", drift_probe_ms());
  print_json(opt, rep);
  return 0;
}
