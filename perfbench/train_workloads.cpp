// The three training workloads: ptb_lstm_k16, resnet_lars_k8, mnist_dp2_ckpt.
//
// Untraced runs call the public runners (train::train_ptb/_resnet/_mnist)
// with a RunConfig, as users do, and time them from outside: a schedule
// decorator stamps every lr() query, which StepLoop::begin_step makes once
// per optimizer step, so consecutive stamps bracket one step. Traced runs
// replay the runner's calls (same model, data, optimizer, seed and order)
// with a benchmark-owned span around each layer call, and prove they ran the
// same program by reproducing the runner's per-step loss curve bit for bit.
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>

#include "ag/variable.hpp"
#include "bench_common.hpp"
#include "check/check.hpp"
#include "ckpt/checkpoint.hpp"
#include "common.hpp"
#include "dist/compression.hpp"
#include "dist/overlap.hpp"
#include "mem/alloc.hpp"
#include "optim/optimizer.hpp"
#include "train/metrics.hpp"
#include "train/recorder.hpp"

namespace perfbench {
namespace {

using namespace legw;
namespace fs = std::filesystem;

constexpr i64 kPtbBatch = 128;     // k = 16 over PtbWorkload's base 8
constexpr i64 kResnetBatch = 256;  // k = 8 over ResnetWorkload's base 32
constexpr i64 kMnistBatch = 512;   // k = 16 over MnistWorkload's base 32
constexpr i64 kMnistReplicas = 2;
constexpr i64 kMnistCkptEvery = 3;  // optimizer steps between saves
constexpr int kSetupReps = 9;
// Epoch budgets: the ptb one passes the 4-epoch flat phase so the
// exponential decay engages; resnet's is the shortest at which every
// calibration seed clears its accuracy target.
constexpr i64 kPtbEpochs = 6;
constexpr i64 kResnetEpochs = 3;

// Quality targets checked at the end of every job's epoch budget. They sit
// well outside the spread seen across seeds (perfbench/README.md).
constexpr double kPtbMaxValidPpl = 120.0;
constexpr double kResnetMinTestAcc = 0.6;
constexpr double kMnistMinTestAcc = 0.3;

// Wraps the workload's schedule and stamps every query with the clock.
class StampedSchedule final : public sched::LrSchedule {
 public:
  explicit StampedSchedule(const sched::LrSchedule& inner) : inner_(inner) {}
  float lr(double epoch) const override {
    stamps_.push_back(now_ns());
    return inner_.lr(epoch);
  }
  std::string describe() const override { return inner_.describe(); }
  const std::vector<i64>& stamps() const { return stamps_; }

 private:
  const sched::LrSchedule& inner_;
  mutable std::vector<i64> stamps_;
};

std::vector<double> loss_curve(const train::Recorder& rec) {
  std::vector<double> out;
  if (const auto* s = rec.find_series("train_loss")) {
    for (const auto& p : *s) out.push_back(p.value);
  }
  return out;
}

std::string curve_hash(const std::vector<double>& curve) {
  u64 h = 1469598103934665603ull;  // FNV-1a over the IEEE bit patterns
  for (double v : curve) {
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_params(const std::vector<core::Tensor>& a,
                 const std::vector<core::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].numel() != b[i].numel() ||
        std::memcmp(a[i].data(), b[i].data(),
                    static_cast<std::size_t>(a[i].numel()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// One training job: the workload's full epoch budget.
struct Job {
  train::RunResult result;
  std::vector<double> curve;      // per-step train loss, all steps
  std::vector<double> step_ms;    // timed steps (see add_steps)
  double time_to_target_s = 0.0;  // first step -> end of the closing eval
  double resume_ms = 0.0;         // mnist: resume call -> its first step
  i64 replayed_steps = 0;         // mnist: steps run twice across the kill
  i64 steps_run = 0;              // all attempts
};

// Step durations from one attempt's stamps. The last step of every epoch is
// left out (the epoch's evaluation runs before the next stamp), and so is the
// attempt's final step (no next stamp). Checkpoint saves run inside steps.
void add_steps(const std::vector<i64>& stamps, i64 first_step, i64 spe,
               std::vector<double>* out) {
  for (std::size_t i = 0; i + 1 < stamps.size(); ++i) {
    const i64 step = first_step + static_cast<i64>(i);
    if ((step + 1) % spe == 0) continue;
    out->push_back(ms(stamps[i + 1] - stamps[i]));
  }
}

// Set-up (dataset generation + model initialisation), timed in small groups
// spread over the run, so its median samples the same host conditions as the
// jobs it sits between.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> once) : once_(std::move(once)) {}
  void reps(int n) {
    for (int r = 0; r < n; ++r) {
      const i64 t0 = now_ns();
      once_();
      t_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  }
  // Tops the sample up to kSetupReps and returns its median.
  double finish() {
    reps(kSetupReps - static_cast<int>(t_.size()));
    return median(t_);
  }
  std::size_t size() const { return t_.size(); }

 private:
  std::function<void()> once_;
  std::vector<double> t_;
};

// End-to-end metrics over the jobs of one run.
void summarize(Report& rep, const std::vector<Job>& jobs, i64 batch,
               SetupTimer& setup, int threads) {
  std::vector<double> steps;
  std::vector<double> ttt;
  for (const Job& j : jobs) {
    steps.insert(steps.end(), j.step_ms.begin(), j.step_ms.end());
    ttt.push_back(j.time_to_target_s);
  }
  double total_ms = 0.0;
  for (double s : steps) total_ms += s;
  rep.metric("samples_per_s",
             static_cast<double>(batch) * static_cast<double>(steps.size()) /
                 (total_ms * 1e-3),
             "1/s");
  rep.metric("latency_ms_p50", median(steps), "ms");
  rep.metric("latency_ms_p90", quantile(steps, 0.9), "ms");
  rep.metric("time_to_target_s", median(ttt), "s");
  rep.metric("setup_s", setup.finish(), "s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.note("threads", threads);
  rep.note("samples.steps", static_cast<double>(steps.size()));
  rep.note("samples.beyond_p90", static_cast<double>(beyond(steps, quantile(steps, 0.9))));
  rep.note("samples.jobs", static_cast<double>(jobs.size()));
  rep.note("samples.setup", static_cast<double>(setup.size()));
}

// Reports the final loss and curve identity the reference check in run.py
// compares, and checks every job of the run repeated the first bit for bit.
void report_curve(const Options& opt, Report& rep, const std::vector<Job>& jobs) {
  const Job& first = jobs.front();
  double loss = first.result.final_train_loss;
  if (opt.plant == "wrong_loss") loss *= 1.5;
  rep.note("final_train_loss", loss);
  rep.note("final_metric", first.result.final_metric);
  rep.note("loss_curve_hash", curve_hash(first.curve));
  rep.note("loss_curve_steps", static_cast<double>(first.curve.size()));
  for (std::size_t j = 1; j < jobs.size(); ++j) {
    rep.op(same_bits(jobs[j].curve, first.curve),
           "job " + std::to_string(j) + " loss curve differs from job 0");
  }
}

void check_job(Report& rep, const Job& j, bool target_met,
               const std::string& target) {
  rep.op(!j.result.diverged, "run diverged");
  rep.op(!j.result.diverged && target_met,
         "quality target missed: " + target + ", got " +
             std::to_string(j.result.final_metric));
}

// Runs jobs while the next one is expected to end inside the measuring
// window (the previous job's length is the estimate), at least `min_jobs`,
// timing two set-ups after each. A zero-second window runs one job
// (calibration).
template <typename RunJob>
std::vector<Job> run_jobs(const Options& opt, int min_jobs, RunJob run_job,
                          SetupTimer& setup) {
  if (opt.seconds <= 0.0) min_jobs = 1;
  std::vector<Job> jobs;
  const i64 deadline = now_ns() + static_cast<i64>(opt.seconds * 1e9);
  i64 last_ns = 0;
  setup.reps(3);
  while (static_cast<int>(jobs.size()) < min_jobs || now_ns() + last_ns <= deadline) {
    const i64 t0 = now_ns();
    jobs.push_back(run_job());
    setup.reps(2);
    last_ns = now_ns() - t0;
    std::fprintf(stderr, "  job %zu: %.3f s, final loss %.6f, metric %.4f\n",
                 jobs.size(), jobs.back().time_to_target_s,
                 jobs.back().result.final_train_loss,
                 jobs.back().result.final_metric);
  }
  return jobs;
}

// ---- per-layer accounting for the traced replays ---------------------------

// Layer metrics shared by the three replays. `flops_per_step` is the
// analytic GEMM work of one step (forward + both backward products);
// `compute` names the spans that hold it.
void layer_metrics(const Tracer& tr, const Window& steps_window, i64 steps,
                   double flops_per_step, const std::vector<std::string>& compute,
                   double untraced_p50_ms, std::map<std::string, double>* m) {
  const double n = static_cast<double>(steps);
  auto per_step = [&](const char* span) { return ms(tr.self_ns(span)) / n; };
  (*m)["data.batch_ms"] = per_step("data");
  (*m)["ag.forward_ms"] = per_step("forward");
  (*m)["ag.backward_ms"] = per_step("backward");
  (*m)["optim.clip_ms"] = per_step("clip");
  (*m)["optim.update_ms"] = per_step("update");
  (*m)["core.gemm_calls"] = static_cast<double>(steps_window.gemm) / n;
  (*m)["core.lstm_cell_calls"] = static_cast<double>(steps_window.lstm) / n;
  double compute_ms = 0.0;
  for (const std::string& s : compute) compute_ms += ms(tr.total_ns(s)) / n;
  (*m)["core.gemm_gflops"] = flops_per_step / (compute_ms * 1e-3) * 1e-9;
  pool_metrics(steps_window, m);
  const mem::MemStats ms_now = mem::mem_stats();
  (*m)["mem.heap_peak_mb"] = static_cast<double>(ms_now.heap_peak_bytes) / (1 << 20);
  (*m)["mem.heap_allocs_per_step"] = static_cast<double>(steps_window.heap_allocs) / n;
  (*m)["mem.arena_peak_mb"] = static_cast<double>(ms_now.arena_peak_bytes) / (1 << 20);
  (*m)["train.eval_ms"] =
      tr.count("eval") > 0 ? ms(tr.total_ns("eval")) / static_cast<double>(tr.count("eval"))
                           : 0.0;
  // The runner's own overhead: the untraced step minus the traced layer sum.
  std::vector<double> traced_step;
  std::vector<double> layer_sum;
  {
    std::map<i64, double> by_step;
    for (const Tracer::Span& s : tr.spans()) {
      if (std::strcmp(s.name, "step") == 0) traced_step.push_back(ms(s.end - s.start));
    }
    for (const Tracer::Span& s : tr.spans()) {
      if (s.parent >= 0 &&
          std::strcmp(tr.spans()[static_cast<std::size_t>(s.parent)].name, "step") == 0) {
        by_step[s.step] += ms(s.end - s.start);
      }
    }
    for (const auto& [step, v] : by_step) layer_sum.push_back(v);
  }
  (*m)["train.loop_ms"] = untraced_p50_ms - median(layer_sum);
  (*m)["obs.trace_overhead_frac"] = median(traced_step) / untraced_p50_ms - 1.0;
}

void finish_trace(const Options& opt, Report& rep, const Tracer& tr,
                  const std::vector<double>& runner_curve,
                  const std::vector<double>& replay_curve,
                  const std::map<std::string, double>& values, int threads) {
  rep.op(same_bits(runner_curve, replay_curve),
         "replay loss curve differs from the runner's");
  rep.note("replay_curve_bitwise", same_bits(runner_curve, replay_curve) ? 1.0 : 0.0);
  rep.note("replay_steps", static_cast<double>(replay_curve.size()));
  rep.note("threads", threads);
  rep.note("spans", static_cast<double>(tr.spans().size()));
  const std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".jsonl";
  rep.op(tr.write_jsonl(path), "cannot write " + path);
  rep.note("spans_file", path);
  emit_per_layer(rep, values);
}

// ---- ptb_lstm_k16 -------------------------------------------------------------

std::unique_ptr<sched::LrSchedule> ptb_schedule(const bench::PtbWorkload& w) {
  return sched::legw_schedule(w.legw_base, kPtbBatch, [&](float peak) {
    return std::make_shared<sched::ExponentialEpochDecay>(peak, w.flat_epochs,
                                                          w.decay_gamma);
  });
}

models::PtbConfig ptb_model_config(const bench::PtbWorkload& w, u64 seed) {
  models::PtbConfig mc = w.model;
  mc.vocab = w.corpus.vocab();
  mc.seed = w.model.seed + seed;
  return mc;
}

train::RunConfig ptb_run(const bench::PtbWorkload& w, u64 seed) {
  train::RunConfig run;
  run.batch_size = kPtbBatch;
  run.epochs = w.epochs;
  run.optimizer = "momentum";
  run.seed = seed;
  return run;
}

double ptb_flops_per_step(const models::PtbConfig& mc) {
  const double b = kPtbBatch;
  const double t = static_cast<double>(mc.bptt_len);
  const double h = static_cast<double>(mc.hidden_dim);
  double fwd = 0.0;
  for (i64 l = 0; l < mc.num_layers; ++l) {
    const double in = static_cast<double>(l == 0 ? mc.embed_dim : mc.hidden_dim);
    fwd += t * 2.0 * b * (in + h) * 4.0 * h;
  }
  fwd += 2.0 * b * t * h * static_cast<double>(mc.vocab);
  return 3.0 * fwd;
}

}  // namespace

void run_ptb(const Options& opt, Report& rep) {
  const int threads = 1;
  auto make_data = [&] {
    auto w = std::make_unique<bench::PtbWorkload>();
    w->epochs = opt.tiny ? 1 : kPtbEpochs;
    return w;
  };
  SetupTimer setup([&] {
    const auto d = make_data();
    models::PtbModel model(ptb_model_config(*d, opt.seed));
  });
  const auto w = make_data();
  const auto schedule = ptb_schedule(*w);
  const i64 spe = data::BpttBatcher(w->corpus.train_tokens(), kPtbBatch,
                                    w->model.bptt_len).chunks_per_epoch();
  auto run_job = [&] {
    StampedSchedule stamped(*schedule);
    train::Recorder rec;
    train::RunConfig run = ptb_run(*w, opt.seed);
    run.schedule = &stamped;
    run.recorder = &rec;
    Job j;
    j.result = train::train_ptb(w->corpus, w->model, run);
    const i64 end = now_ns();
    j.curve = loss_curve(rec);
    add_steps(stamped.stamps(), 0, spe, &j.step_ms);
    j.time_to_target_s = static_cast<double>(end - stamped.stamps().front()) * 1e-9;
    j.steps_run = static_cast<i64>(stamped.stamps().size());
    return j;
  };
  auto check = [&](Report& r, const Job& j) {
    check_job(r, j, opt.tiny || j.result.final_metric <= kPtbMaxValidPpl,
              "valid ppl <= " + std::to_string(kPtbMaxValidPpl));
  };

  if (!opt.trace) {
    const std::vector<Job> jobs = run_jobs(opt, opt.tiny ? 2 : 3, run_job, setup);
    for (const Job& j : jobs) check(rep, j);
    summarize(rep, jobs, kPtbBatch, setup, threads);
    report_curve(opt, rep, jobs);
    return;
  }

  // Traced: one untraced runner job for the reference curve and step time,
  // then the replay with spans.
  const Job runner = run_job();
  check(rep, runner);
  Tracer tr;
  tr.reserve(1 << 16);
  const models::PtbConfig mc = ptb_model_config(*w, opt.seed);
  models::PtbModel model(mc);
  const train::RunConfig run = ptb_run(*w, opt.seed);
  auto opt_ = optim::make_optimizer(run.optimizer, model.parameters(), run.weight_decay);
  data::BpttBatcher batcher(w->corpus.train_tokens(), kPtbBatch, mc.bptt_len);
  core::Rng dropout_rng(opt.seed * 7919ull + 3);
  models::PtbModel::CarriedState carried = model.zero_carried(kPtbBatch);
  const i64 eval_batch = std::min<i64>(20, kPtbBatch);
  std::vector<double> curve;
  Window win;
  mem::reset_mem_peaks();
  for (i64 epoch = 0; epoch < run.epochs; ++epoch) {
    for (i64 s = 0; s < spe; ++s) {
      const i64 step = epoch * spe + s;
      tr.set_step(step);
      const Window w0 = Window::now();
      {
        Scoped st(&tr, "step");
        opt_->set_lr(schedule->lr(static_cast<double>(step) / static_cast<double>(spe)));
        check::set_step_index(step);
        double loss_value = 0.0;
        {
          mem::TrainStepScope arena_scope;
          data::BpttBatcher::Chunk chunk;
          {
            Scoped sp(&tr, "data");
            chunk = batcher.next_chunk();
          }
          if (chunk.first_in_epoch) carried = model.zero_carried(kPtbBatch);
          model.zero_grad();
          models::PtbModel::ChunkResult out;
          {
            Scoped sp(&tr, "forward");
            out = model.chunk_loss(chunk.inputs, chunk.targets, kPtbBatch,
                                   mc.bptt_len, carried, dropout_rng);
          }
          carried = std::move(out.carried);
          for (core::Tensor& t : carried.h) t.rehome_();
          for (core::Tensor& t : carried.c) t.rehome_();
          loss_value = out.loss.value()[0];
          Scoped sp(&tr, "backward");
          ag::backward(out.loss);
        }
        curve.push_back(loss_value);
        {
          Scoped sp(&tr, "clip");
          optim::clip_grad_norm(opt_->params(), run.clip_norm);
        }
        Scoped sp(&tr, "update");
        opt_->step();
      }
      win.add(w0, Window::now());
    }
    Scoped sp(&tr, "eval");
    (void)train::perplexity(
        model.evaluate_nll(w->corpus.valid_tokens(), eval_batch, mc.bptt_len));
  }
  std::map<std::string, double> m;
  layer_metrics(tr, win, static_cast<i64>(curve.size()), ptb_flops_per_step(mc),
                {"forward", "backward"}, median(runner.step_ms), &m);
  finish_trace(opt, rep, tr, runner.curve, curve, m, threads);
}

// ---- resnet_lars_k8 -------------------------------------------------------------

namespace {

std::unique_ptr<sched::LrSchedule> resnet_schedule(const bench::ResnetWorkload& w) {
  return sched::legw_schedule(w.legw_base, kResnetBatch, [&](float peak) {
    return std::make_shared<sched::PolynomialLr>(
        peak, static_cast<double>(w.epochs), 2.0f);
  });
}

models::ResNetConfig resnet_model_config(const bench::ResnetWorkload& w, u64 seed) {
  models::ResNetConfig mc = w.model;
  mc.seed = w.model.seed + seed;
  return mc;
}

train::RunConfig resnet_run(const bench::ResnetWorkload& w, u64 seed) {
  train::RunConfig run;
  run.batch_size = kResnetBatch;
  run.epochs = w.epochs;
  run.optimizer = "lars";
  run.weight_decay = 1e-4f;
  run.seed = seed;
  return run;
}

double resnet_flops_per_step(const models::ResNetConfig& mc) {
  const double b = kResnetBatch;
  double fwd = 0.0;
  auto conv = [&](double in, double out, double k, double size_out) {
    fwd += 2.0 * b * size_out * size_out * out * in * k * k;
  };
  double size = static_cast<double>(mc.image_size);
  conv(static_cast<double>(mc.in_channels), static_cast<double>(mc.width), 3, size);
  double in_ch = static_cast<double>(mc.width);
  for (int stage = 0; stage < 3; ++stage) {
    const double out_ch = static_cast<double>(mc.width << stage);
    for (i64 blk = 0; blk < mc.blocks_per_stage; ++blk) {
      const bool down = stage > 0 && blk == 0;
      if (down) size = std::ceil(size / 2.0);
      conv(in_ch, out_ch, 3, size);
      conv(out_ch, out_ch, 3, size);
      if (down || in_ch != out_ch) conv(in_ch, out_ch, 1, size);
      in_ch = out_ch;
    }
  }
  fwd += 2.0 * b * in_ch * static_cast<double>(mc.n_classes);
  return 3.0 * fwd;
}

}  // namespace

void run_resnet(const Options& opt, Report& rep) {
  const int threads = 2;
  auto make_data = [&] {
    auto w = std::make_unique<bench::ResnetWorkload>();
    w->epochs = opt.tiny ? 1 : kResnetEpochs;
    return w;
  };
  SetupTimer setup([&] {
    const auto d = make_data();
    models::ResNet model(resnet_model_config(*d, opt.seed));
  });
  const auto w = make_data();
  const auto schedule = resnet_schedule(*w);
  const i64 spe = data::IndexBatcher(w->dataset.n_train(), kResnetBatch, 1)
                      .batches_per_epoch();
  auto run_job = [&] {
    StampedSchedule stamped(*schedule);
    train::Recorder rec;
    train::RunConfig run = resnet_run(*w, opt.seed);
    run.schedule = &stamped;
    run.recorder = &rec;
    Job j;
    j.result = train::train_resnet(w->dataset, w->model, run);
    const i64 end = now_ns();
    j.curve = loss_curve(rec);
    add_steps(stamped.stamps(), 0, spe, &j.step_ms);
    j.time_to_target_s = static_cast<double>(end - stamped.stamps().front()) * 1e-9;
    j.steps_run = static_cast<i64>(stamped.stamps().size());
    return j;
  };
  auto check = [&](Report& r, const Job& j) {
    check_job(r, j, opt.tiny || j.result.final_metric >= kResnetMinTestAcc,
              "test acc >= " + std::to_string(kResnetMinTestAcc));
  };

  if (!opt.trace) {
    // Three jobs of 33 timed steps: ten samples beyond the p90.
    const std::vector<Job> jobs = run_jobs(opt, opt.tiny ? 2 : 3, run_job, setup);
    for (const Job& j : jobs) check(rep, j);
    summarize(rep, jobs, kResnetBatch, setup, threads);
    report_curve(opt, rep, jobs);
    return;
  }

  const Job runner = run_job();
  check(rep, runner);
  Tracer tr;
  tr.reserve(1 << 14);
  const models::ResNetConfig mc = resnet_model_config(*w, opt.seed);
  models::ResNet model(mc);
  const train::RunConfig run = resnet_run(*w, opt.seed);
  auto opt_ = optim::make_optimizer(run.optimizer, model.parameters(), run.weight_decay);
  data::IndexBatcher batcher(w->dataset.n_train(), kResnetBatch, opt.seed * 49157ull + 9);
  std::vector<double> curve;
  Window win;
  mem::reset_mem_peaks();
  for (i64 epoch = 0; epoch < run.epochs; ++epoch) {
    for (i64 s = 0; s < spe; ++s) {
      const i64 step = epoch * spe + s;
      tr.set_step(step);
      const Window w0 = Window::now();
      {
        Scoped st(&tr, "step");
        opt_->set_lr(schedule->lr(static_cast<double>(step) / static_cast<double>(spe)));
        check::set_step_index(step);
        double loss_value = 0.0;
        {
          mem::TrainStepScope arena_scope;
          core::Tensor images;
          std::vector<i32> labels;
          {
            Scoped sp(&tr, "data");
            const std::vector<i64> idx = batcher.next();
            images = w->dataset.gather_images(idx, true);
            labels = w->dataset.gather_labels(idx, true);
          }
          model.zero_grad();
          ag::Variable loss;
          {
            Scoped sp(&tr, "forward");
            loss = model.loss(images, labels);
          }
          loss_value = loss.value()[0];
          Scoped sp(&tr, "backward");
          ag::backward(loss);
        }
        curve.push_back(loss_value);
        {
          Scoped sp(&tr, "clip");
          optim::clip_grad_norm(opt_->params(), run.clip_norm);
        }
        Scoped sp(&tr, "update");
        opt_->step();
      }
      win.add(w0, Window::now());
    }
    Scoped sp(&tr, "eval");
    for (i64 begin = 0; begin < w->dataset.n_test(); begin += 128) {
      const i64 end = std::min(w->dataset.n_test(), begin + 128);
      std::vector<i64> idx;
      for (i64 i = begin; i < end; ++i) idx.push_back(i);
      (void)model.accuracy(w->dataset.gather_images(idx, false),
                           w->dataset.gather_labels(idx, false));
    }
  }
  std::map<std::string, double> m;
  layer_metrics(tr, win, static_cast<i64>(curve.size()), resnet_flops_per_step(mc),
                {"forward", "backward"}, median(runner.step_ms), &m);
  finish_trace(opt, rep, tr, runner.curve, curve, m, threads);
}

// ---- mnist_dp2_ckpt -----------------------------------------------------------

namespace {

models::MnistLstmConfig mnist_model_config(const bench::MnistWorkload& w, u64 seed) {
  models::MnistLstmConfig mc = w.model;
  mc.seed = w.model.seed + seed;
  return mc;
}

train::RunConfig mnist_run(const bench::MnistWorkload& w, u64 seed) {
  train::RunConfig run;
  run.batch_size = kMnistBatch;
  run.epochs = w.epochs;
  run.optimizer = "momentum";
  run.seed = seed;
  run.replicas = kMnistReplicas;
  return run;
}

double mnist_flops_per_step(const models::MnistLstmConfig& mc) {
  const double b = kMnistBatch;  // summed over the replicas' shards
  const double t = static_cast<double>(mc.transform_dim);
  const double h = static_cast<double>(mc.hidden_dim);
  const double rows = static_cast<double>(mc.n_rows);
  double fwd = rows * (2.0 * b * static_cast<double>(mc.n_cols) * t +
                       2.0 * b * (t + h) * 4.0 * h);
  fwd += 2.0 * b * h * static_cast<double>(mc.n_classes);
  return 3.0 * fwd;
}

}  // namespace

void run_mnist(const Options& opt, Report& rep) {
  const int threads = 3;  // two replica workers + one reducer
  auto make_data = [&] {
    auto w = std::make_unique<bench::MnistWorkload>();
    if (opt.tiny) w->epochs = 2;
    return w;
  };
  SetupTimer setup([&] {
    const auto d = make_data();
    for (i64 r = 0; r < kMnistReplicas; ++r) {
      models::MnistLstm model(mnist_model_config(*d, opt.seed));
    }
  });
  const auto w = make_data();
  const auto schedule = sched::legw_constant(w->legw_base, kMnistBatch);
  const i64 spe = data::IndexBatcher(w->dataset.n_train(), kMnistBatch, 1)
                      .batches_per_epoch();
  const i64 total_steps = spe * w->epochs;
  // A kill mid-run, between two saves, so the resume redoes real work.
  const i64 crash_step = total_steps / 2 + 1;
  const std::string dir = opt.out_dir + "/ckpt-mnist-seed" + std::to_string(opt.seed);

  // Uninterrupted reference: the resumed job must end bitwise equal to it.
  auto straight = [&] {
    train::Recorder rec;
    train::RunConfig run = mnist_run(*w, opt.seed);
    run.schedule = schedule.get();
    run.recorder = &rec;
    run.capture_final_params = true;
    Job j;
    j.result = train::train_mnist(w->dataset, w->model, run);
    j.curve = loss_curve(rec);
    return j;
  };

  auto run_job = [&] {
    fs::remove_all(dir);
    const ckpt::CrashPlan plan = ckpt::CrashPlan::mid_step(crash_step);
    StampedSchedule first(*schedule);
    StampedSchedule second(*schedule);
    train::Recorder rec1;
    train::Recorder rec2;
    train::RunConfig run = mnist_run(*w, opt.seed);
    run.checkpoint_dir = dir;
    run.checkpoint_every_steps = kMnistCkptEvery;
    run.crash_plan = &plan;
    run.schedule = &first;
    run.recorder = &rec1;
    const train::RunResult killed = train::train_mnist(w->dataset, w->model, run);
    run.crash_plan = nullptr;
    run.resume = true;
    run.schedule = &second;
    run.recorder = &rec2;
    run.capture_final_params = true;
    Job j;
    const i64 resume_start = now_ns();
    j.result = train::train_mnist(w->dataset, w->model, run);
    const i64 end = now_ns();
    const i64 from = j.result.resumed_from_step;
    std::vector<double> c1 = loss_curve(rec1);
    if (!killed.interrupted || from < 0 || from > static_cast<i64>(c1.size())) {
      j.result.diverged = true;  // reported as a failed resume below
      j.curve = c1;
    } else {
      j.curve.assign(c1.begin(), c1.begin() + from);
      const std::vector<double> c2 = loss_curve(rec2);
      j.curve.insert(j.curve.end(), c2.begin(), c2.end());
    }
    add_steps(first.stamps(), 0, spe, &j.step_ms);
    add_steps(second.stamps(), std::max<i64>(from, 0), spe, &j.step_ms);
    j.time_to_target_s = static_cast<double>(end - first.stamps().front()) * 1e-9;
    j.resume_ms = second.stamps().empty() ? 0.0 : ms(second.stamps().front() - resume_start);
    j.steps_run = static_cast<i64>(first.stamps().size() + second.stamps().size());
    j.replayed_steps = static_cast<i64>(first.stamps().size()) - std::max<i64>(from, 0);
    return j;
  };

  auto check = [&](Report& r, const Job& j, const Job& ref) {
    check_job(r, j, opt.tiny || j.result.final_metric >= kMnistMinTestAcc,
              "test acc >= " + std::to_string(kMnistMinTestAcc));
    r.op(j.result.resumed_from_step > 0, "job did not resume from a checkpoint");
    r.op(same_params(j.result.final_params, ref.result.final_params),
         "resumed final parameters differ from the uninterrupted run");
  };

  if (!opt.trace) {
    // The uninterrupted reference runs first, inside the measuring window.
    const i64 t0 = now_ns();
    const Job ref = straight();
    Options window = opt;
    window.seconds = std::max(0.0, opt.seconds - static_cast<double>(now_ns() - t0) * 1e-9);
    const std::vector<Job> jobs = run_jobs(window, opt.tiny ? 2 : 4, run_job, setup);
    for (const Job& j : jobs) check(rep, j, ref);
    rep.op(same_bits(jobs.front().curve, ref.curve),
           "resumed loss curve differs from the uninterrupted run");
    summarize(rep, jobs, kMnistBatch, setup, threads);
    report_curve(opt, rep, jobs);
    fs::remove_all(dir);
    return;
  }

  const Job runner = straight();
  const Job resumed = run_job();
  check(rep, resumed, runner);
  fs::remove_all(dir);
  Tracer tr;
  tr.reserve(1 << 14);
  const train::RunConfig run = mnist_run(*w, opt.seed);
  const models::MnistLstmConfig mc = mnist_model_config(*w, opt.seed);
  std::vector<std::unique_ptr<models::MnistLstm>> replicas;
  std::vector<std::unique_ptr<optim::Optimizer>> opts;
  std::vector<std::vector<ag::Variable>> replica_params;
  for (i64 r = 0; r < kMnistReplicas; ++r) {
    replicas.push_back(std::make_unique<models::MnistLstm>(mc));
    opts.push_back(optim::make_optimizer(run.optimizer, replicas.back()->parameters(),
                                         run.weight_decay));
    replica_params.push_back(replicas.back()->parameters());
  }
  data::IndexBatcher batcher(w->dataset.n_train(), kMnistBatch, opt.seed * 1000003ull + 5);
  dist::WireState wire_state(replica_params);
  const std::vector<int> parts = {0, 1};
  const i64 shard = kMnistBatch / kMnistReplicas;
  std::vector<double> curve;
  std::vector<double> save_ms;
  std::vector<double> image_bytes;
  double idle_ns = 0.0;
  double wire_bytes = 0.0;
  double buckets = 0.0;
  fs::create_directories(dir);
  Window win;
  mem::reset_mem_peaks();
  for (i64 epoch = 0; epoch < run.epochs; ++epoch) {
    for (i64 s = 0; s < spe; ++s) {
      const i64 step = epoch * spe + s;
      tr.set_step(step);
      const Window w0 = Window::now();
      {
        Scoped st(&tr, "step");
        const float lr = schedule->lr(static_cast<double>(step) / static_cast<double>(spe));
        for (auto& o : opts) o->set_lr(lr);
        check::set_step_index(step);
        std::vector<core::Tensor> images(kMnistReplicas);
        std::vector<std::vector<i32>> labels(kMnistReplicas);
        {
          Scoped sp(&tr, "data");
          const std::vector<i64> idx = batcher.next();
          for (i64 r = 0; r < kMnistReplicas; ++r) {
            const std::vector<i64> sh(idx.begin() + r * shard, idx.begin() + (r + 1) * shard);
            images[static_cast<std::size_t>(r)] = w->dataset.gather_images(sh, true);
            labels[static_cast<std::size_t>(r)] = w->dataset.gather_labels(sh, true);
          }
        }
        dist::OverlapResult res;
        {
          Scoped rb(&tr, "replica_backward");
          const int parent = rb.index();
          const auto loss_fn = [&](int i) {
            Scoped sp(&tr, "forward", parent);
            const auto r = static_cast<std::size_t>(i);
            return replicas[r]->loss(images[r], labels[r]);
          };
          dist::ReplicaStepOptions step_opts;
          step_opts.wire_state = &wire_state;
          step_opts.replica_ids = &parts;
          step_opts.bucket_timeout_ms = run.membership_timeout_ms;
          step_opts.timeout_policy = dist::TimeoutPolicy::kDegradeToSurvivors;
          res = dist::replica_backward_ex(replica_params, loss_fn, step_opts);
        }
        curve.push_back(res.mean_loss);
        idle_ns += static_cast<double>(res.stats.idle_ns);
        wire_bytes += static_cast<double>(res.stats.wire_bytes);
        buckets += static_cast<double>(res.stats.buckets_reduced);
        {
          // The public fp16 codec over the gradient set, on copies: the
          // engine ran it already; this times it alone.
          Scoped sp(&tr, "codec");
          std::vector<u16> wire;
          for (const ag::Variable& p : replica_params[0]) {
            core::Tensor back(p.grad().shape());
            dist::compress_fp16(p.grad(), wire);
            dist::decompress_fp16(wire, back);
          }
        }
        {
          Scoped sp(&tr, "clip");
          for (auto& o : opts) optim::clip_grad_norm(o->params(), run.clip_norm);
        }
        {
          Scoped sp(&tr, "update");
          for (auto& o : opts) o->step();
        }
        if ((step + 1) % kMnistCkptEvery == 0) {
          ckpt::TrainState state;
          for (i64 r = 0; r < kMnistReplicas; ++r) {
            state.models.push_back(replicas[static_cast<std::size_t>(r)].get());
            state.optimizers.push_back(opts[static_cast<std::size_t>(r)].get());
          }
          for (auto& [name, tensor] : wire_state.named_residuals()) {
            state.extra.emplace_back(name, tensor);
          }
          state.step = step + 1;
          state.epoch = epoch;
          const std::string path = dir + "/replay.ckpt";
          const i64 t0 = now_ns();
          ckpt::Result saved;
          {
            Scoped sp(&tr, "ckpt_save");
            saved = ckpt::save(state, path);
          }
          save_ms.push_back(ms(now_ns() - t0));
          rep.op(saved.ok(), "checkpoint save failed: " + saved.message);
          image_bytes.push_back(static_cast<double>(fs::file_size(path)));
        }
      }
      win.add(w0, Window::now());
    }
    Scoped sp(&tr, "eval");
    for (i64 begin = 0; begin < w->dataset.n_test(); begin += 256) {
      const i64 end = std::min(w->dataset.n_test(), begin + 256);
      std::vector<i64> idx;
      for (i64 i = begin; i < end; ++i) idx.push_back(i);
      (void)replicas[0]->accuracy(w->dataset.gather_images(idx, false),
                                  w->dataset.gather_labels(idx, false));
    }
  }
  fs::remove_all(dir);
  const double n = static_cast<double>(curve.size());
  std::map<std::string, double> m;
  layer_metrics(tr, win, static_cast<i64>(curve.size()), mnist_flops_per_step(mc),
                {"replica_backward"}, median(resumed.step_ms), &m);
  m["dist.replica_backward_ms"] = ms(tr.self_ns("replica_backward")) / n;
  m["dist.codec_ms"] = ms(tr.total_ns("codec")) / n;
  m["dist.reducer_idle_frac"] = idle_ns / static_cast<double>(tr.total_ns("replica_backward"));
  m["dist.wire_bytes_per_step"] = wire_bytes / n;
  m["dist.buckets_per_step"] = buckets / n;
  m["ckpt.save_ms"] = median(save_ms);
  m["ckpt.image_bytes"] = median(image_bytes);
  m["ckpt.resume_ms"] = resumed.resume_ms;
  m["ckpt.replayed_steps_frac"] =
      static_cast<double>(resumed.replayed_steps) / static_cast<double>(resumed.steps_run);
  finish_trace(opt, rep, tr, runner.curve, curve, m, threads);
}

}  // namespace perfbench
