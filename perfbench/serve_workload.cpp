// serve_ptb_open: a PtbWorkload-shape language model saved with ckpt::save,
// loaded from the file by ServeSession::load, and served by a RequestBroker
// (2 workers, default BatchPolicy). Requests are seeded token sequences of
// 8-64 tokens, so they span the 16/32/64 buckets.
//
// Two phases: a closed loop of kBurst-request rounds (saturation throughput),
// split in two halves around an open loop of seeded Poisson arrivals at the
// fixed absolute rate kOpenLoopRate. The rate is a constant, never
// derived from the capacity this run measured, so every commit sees the same
// offered load. Open-loop latency runs from each request's due time, so a
// stall is charged to every request queued behind it.
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <random>
#include <thread>

#include "bench_common.hpp"
#include "ckpt/checkpoint.hpp"
#include "common.hpp"
#include "mem/alloc.hpp"
#include "mem/arena.hpp"
#include "serve/broker.hpp"

namespace perfbench {
namespace {

using namespace legw;
namespace fs = std::filesystem;

// Set-up and load reps: kEdgeReps at each end of the run, the rest spread
// between closed-loop rounds, so their medians sample the same host
// conditions as the serving phases.
constexpr int kReps = 30;
constexpr int kEdgeReps = 3;
constexpr int kPoolSize = 256;       // distinct requests, reused round-robin
constexpr int kBurst = 2 * 256;      // closed-loop round: the pool, twice
constexpr double kOpenLoopRate = 150.0;  // requests/s offered in the open loop
// A request slower than this (due -> done) missed its limit: in a stable
// open loop none does, so any that do mark a growing backlog.
constexpr double kLatencyLimitMs = 100.0;
constexpr i64 kMaxLen = 64;

u64 next_u64(std::mt19937_64& g) { return g(); }
double unit(std::mt19937_64& g) {
  return static_cast<double>(next_u64(g) >> 11) * (1.0 / 9007199254740992.0);
}

bool same_logits(const core::Tensor& a, const core::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

serve::SessionConfig session_config(const models::PtbConfig& pc) {
  serve::SessionConfig sc;
  sc.kind = serve::ModelKind::kPtbLm;
  sc.ptb.vocab = pc.vocab;
  sc.ptb.embed_dim = pc.embed_dim;
  sc.ptb.hidden_dim = pc.hidden_dim;
  sc.ptb.num_layers = pc.num_layers;
  sc.ptb.tie_embeddings = pc.tie_embeddings;
  return sc;
}

struct Counters {
  serve::BrokerCounters c;
  static Counters now() { return {serve::RequestBroker::counters()}; }
  serve::BrokerCounters since(const Counters& start) const {
    serve::BrokerCounters d = c;
    d.requests -= start.c.requests;
    d.responses -= start.c.responses;
    d.batches -= start.c.batches;
    d.batch_rows -= start.c.batch_rows;
    d.pad_rows -= start.c.pad_rows;
    d.capacity_batches -= start.c.capacity_batches;
    d.deadline_batches -= start.c.deadline_batches;
    d.drain_batches -= start.c.drain_batches;
    return d;
  }
};

struct OpenLoop {
  std::vector<double> latency_ms;  // due -> done
  std::vector<double> late_ms;     // due -> submit (generator lateness)
  std::vector<double> broker_ms;   // enqueue -> done
  serve::BrokerCounters counters;
  i64 requests = 0;
  i64 real_tokens = 0;
  i64 bucket_tokens = 0;
};

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  const int threads = 3;  // generator (also the 1-thread pool) + 2 workers
  const bench::PtbWorkload shape;
  models::PtbConfig pc = shape.model;
  pc.vocab = shape.corpus.vocab();
  pc.seed = shape.model.seed + opt.seed;
  fs::create_directories(opt.out_dir);
  const std::string path = opt.out_dir + "/serve-seed" + std::to_string(opt.seed) + ".ckpt";
  const double phase_s = opt.tiny ? 0.3 : opt.seconds;

  // Setup: model initialisation + the checkpoint save.
  std::vector<double> setup;
  std::vector<double> save_ms;
  auto setup_reps = [&](int n) {
    for (int r = 0; r < n; ++r) {
      const i64 t0 = now_ns();
      models::PtbModel model(pc);
      ckpt::TrainState state;
      state.models.push_back(&model);
      const i64 t1 = now_ns();
      const ckpt::Result saved = ckpt::save(state, path);
      setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      save_ms.push_back(ms(now_ns() - t1));
      rep.op(saved.ok(), "checkpoint save failed: " + saved.message);
    }
  };
  setup_reps(opt.trace ? 1 : kEdgeReps);
  models::PtbModel model(pc);  // same seed: the weights in the file

  // The request pool: fixed shares per bucket (30% / 40% / 30% of the
  // 16 / 32 / 64 buckets), so the p50 and p90 of the open loop fall inside
  // one bucket's latency cluster on every seed; the seed draws the lengths
  // within each bucket, the tokens and the order.
  std::mt19937_64 gen(opt.seed * 0x9E3779B97F4A7C15ull + 17);
  auto tokens = [&](i64 len) {
    std::vector<i32> t(static_cast<std::size_t>(len));
    for (auto& tok : t) tok = static_cast<i32>(next_u64(gen) % static_cast<u64>(pc.vocab));
    return t;
  };
  std::vector<serve::Request> pool(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) {
    const double share = (i + 0.5) / kPoolSize;
    const auto [lo, hi] = share < 0.3   ? std::pair<i64, i64>{8, 16}
                          : share < 0.7 ? std::pair<i64, i64>{17, 32}
                                        : std::pair<i64, i64>{33, 64};
    pool[static_cast<std::size_t>(i)].tokens =
        tokens(lo + static_cast<i64>(next_u64(gen) % static_cast<u64>(hi - lo + 1)));
  }
  for (std::size_t i = pool.size() - 1; i > 0; --i) {
    std::swap(pool[i], pool[next_u64(gen) % (i + 1)]);
  }
  // The request time_to_target waits for: one full 64-token sequence.
  serve::Request probe;
  probe.tokens = tokens(kMaxLen);
  const serve::SessionConfig sc = session_config(pc);
  const core::Tensor first_expected = model.sequence_logits(probe.tokens);

  // time_to_target: checkpoint file on disk -> first verified response.
  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  std::vector<double> ttt;
  std::vector<double> load_ms;
  std::unique_ptr<serve::ServeSession> session;
  auto load_reps = [&](int n) {
    for (int r = 0; r < n; ++r) {
      const i64 t0 = now_ns();
      std::unique_ptr<serve::ServeSession> s;
      serve::Result loaded;
      {
        Scoped sp(tr, "load");
        loaded = serve::ServeSession::load(sc, path, &s);
      }
      const i64 t1 = now_ns();
      const bool ok = loaded.ok() && same_logits(s->run(probe).logits, first_expected);
      ttt.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      load_ms.push_back(ms(t1 - t0));
      rep.op(ok, "first response after load is wrong or load failed: " + loaded.message);
      if (loaded.ok() && session == nullptr) session = std::move(s);
    }
  };
  load_reps(opt.trace ? kReps : kEdgeReps);
  if (session == nullptr) return;

  // What every served row must equal: ServeSession::run on the same request.
  std::vector<core::Tensor> expected;
  for (const serve::Request& req : pool) expected.push_back(session->run(req).logits);

  serve::BrokerConfig bc;
  bc.workers = 2;
  int planted = opt.plant == "wrong_row" ? 1 : 0;
  auto check = [&](serve::Response& resp, std::size_t pool_idx) {
    if (planted > 0 && resp.status == serve::Status::kOk) {
      resp.logits.data()[0] += 1.0f;
      --planted;
    }
    rep.op(resp.status == serve::Status::kOk,
           "served response not ok: " + resp.message);
    rep.op(resp.status != serve::Status::kOk || same_logits(resp.logits, expected[pool_idx]),
           "served row differs from ServeSession::run on request " +
               std::to_string(pool_idx));
  };

  // ---- open loop: seeded Poisson arrivals at a fixed rate ----
  auto open_loop = [&](Tracer* t) {
    OpenLoop out;
    const double duration = phase_s * (opt.trace ? 0.4 : 0.6);
    std::vector<i64> due;
    std::mt19937_64 arrivals(opt.seed * 0xD1B54A32D192ED03ull + 5);
    double at = 0.0;
    while (true) {
      at += -std::log(1.0 - unit(arrivals)) / kOpenLoopRate;
      if (at >= duration) break;
      due.push_back(static_cast<i64>(at * 1e9));
    }
    // Responses are checked as they complete (oldest first), between
    // submits, so the generator holds only the requests still in flight.
    std::deque<std::pair<std::future<serve::Response>, std::size_t>> inflight;
    serve::RequestBroker broker(*session, bc);
    const Counters c0 = Counters::now();
    const i64 t0 = now_ns() + 2'000'000;
    auto collect = [&] {
      auto& [future, i] = inflight.front();
      serve::Response resp = future.get();
      const double lat = ms(resp.done_ns - (t0 + due[i]));
      out.latency_ms.push_back(lat);
      out.broker_ms.push_back(ms(resp.done_ns - resp.enqueue_ns));
      check(resp, i % kPoolSize);
      rep.op(lat <= kLatencyLimitMs, "request " + std::to_string(i) + " took " +
                                        std::to_string(lat) + " ms (backlog)");
      inflight.pop_front();
    };
    for (std::size_t i = 0; i < due.size(); ++i) {
      const i64 when = t0 + due[i];
      while (!inflight.empty() &&
             inflight.front().first.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        collect();
      }
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(when)));
      const serve::Request& req = pool[i % kPoolSize];
      {
        Scoped sp(t, "submit");
        out.late_ms.push_back(ms(now_ns() - when));
        inflight.emplace_back(broker.submit(req), i);
      }
      const i64 len = static_cast<i64>(req.tokens.size());
      out.real_tokens += len;
      out.bucket_tokens += serve::bucket_for(bc.policy, len);
    }
    while (!inflight.empty()) collect();
    broker.shutdown();
    out.counters = Counters::now().since(c0);
    out.requests = static_cast<i64>(due.size());
    return out;
  };

  if (!opt.trace) {
    // ---- closed loop, in two halves around the open loop: one client
    // submits kBurst requests at once and waits for every response before
    // the next round. Set-up and load reps run between rounds, while the
    // broker is idle, outside the timed rounds. ----
    i64 closed_done = 0;
    double closed_s = 0.0;
    int spread_reps = 0;
    const int between = (kReps - 2 * kEdgeReps) / 2;  // per half
    auto closed_loop = [&](double duration) {
      serve::RequestBroker broker(*session, bc);
      const i64 start = now_ns();
      int reps_done = 0;
      std::vector<std::future<serve::Response>> futures;
      while (true) {
        const i64 t0 = now_ns();
        futures.clear();
        for (int i = 0; i < kBurst; ++i) futures.push_back(broker.submit(pool[i % kPoolSize]));
        for (int i = 0; i < kBurst; ++i) {
          serve::Response resp = futures[static_cast<std::size_t>(i)].get();
          check(resp, static_cast<std::size_t>(i % kPoolSize));
        }
        closed_s += static_cast<double>(now_ns() - t0) * 1e-9;
        closed_done += kBurst;
        const double frac = static_cast<double>(now_ns() - start) * 1e-9 / duration;
        for (; reps_done < between && reps_done < frac * between; ++reps_done) {
          setup_reps(1);
          load_reps(1);
        }
        if (frac >= 1.0) break;
      }
      spread_reps += reps_done;
    };
    closed_loop(phase_s * 0.175);
    const OpenLoop open = open_loop(nullptr);
    closed_loop(phase_s * 0.175);
    setup_reps(kReps - kEdgeReps - spread_reps);
    load_reps(kReps - kEdgeReps - spread_reps);
    const double samples_per_s = static_cast<double>(closed_done) / closed_s;
    rep.metric("samples_per_s", samples_per_s, "1/s");
    rep.metric("latency_ms_p50", median(open.latency_ms), "ms");
    rep.metric("latency_ms_p90", quantile(open.latency_ms, 0.9), "ms");
    rep.metric("time_to_target_s", median(ttt), "s");
    rep.metric("setup_s", median(setup), "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.note("threads", threads);
    rep.note("samples.closed_loop_requests", static_cast<double>(closed_done));
    rep.note("samples.open_loop_requests", static_cast<double>(open.requests));
    rep.note("samples.beyond_p90",
             static_cast<double>(beyond(open.latency_ms, quantile(open.latency_ms, 0.9))));
    rep.note("samples.load", static_cast<double>(ttt.size()));
    rep.note("samples.setup", static_cast<double>(setup.size()));
    rep.note("open_loop_rate", kOpenLoopRate);
    rep.note("setup_save_ms", median(save_ms));
    rep.note("gen_late_ms_p90", quantile(open.late_ms, 0.9));
    fs::remove(path);
    return;
  }

  // Traced: the open loop untraced, then again with spans, then each
  // bucket's batch alone at the cap.
  mem::reset_mem_peaks();
  const Window w0 = Window::now();
  const OpenLoop open = open_loop(nullptr);
  Window win;
  win.add(w0, Window::now());
  const mem::MemStats mstats = mem::mem_stats();
  const OpenLoop traced = open_loop(tr);
  std::map<std::string, double> m;
  const double n = static_cast<double>(open.requests);
  m["core.gemm_calls"] = static_cast<double>(win.gemm) / n;
  m["core.lstm_cell_calls"] = static_cast<double>(win.lstm) / n;
  pool_metrics(win, &m);
  m["mem.heap_peak_mb"] = static_cast<double>(mstats.heap_peak_bytes) / (1 << 20);
  m["mem.heap_allocs_per_step"] = static_cast<double>(win.heap_allocs) / n;
  m["serve.load_ms"] = median(load_ms);
  double arena_bytes = 0.0;
  for (const i64 bucket : {16, 32, 64}) {
    std::vector<serve::Request> batch;
    for (const serve::Request& req : pool) {
      if (serve::bucket_for(bc.policy, static_cast<i64>(req.tokens.size())) == bucket &&
          static_cast<i64>(batch.size()) < bc.policy.batch_cap) {
        batch.push_back(req);
      }
    }
    // A replay-only arena per bucket, as each broker worker keeps.
    mem::StepArena arena("perfbench.b" + std::to_string(bucket));
    arena.set_replay_only(true);
    std::vector<double> t;
    for (int r = 0; r < 20; ++r) {
      std::vector<serve::Response> out;
      const i64 t0 = now_ns();
      serve::Result res;
      {
        Scoped sp(tr, "infer");
        res = session->run_batch(batch, bucket, bc.policy.batch_cap, &out, &arena);
      }
      t.push_back(ms(now_ns() - t0));
      rep.op(res.ok(), "run_batch failed: " + res.message);
    }
    arena_bytes += static_cast<double>(arena.stats().peak_live_bytes);
    m["serve.infer_ms_b" + std::to_string(bucket)] = median(t);
  }
  m["mem.arena_peak_mb"] = arena_bytes / (1 << 20);
  m["serve.broker_ms_p50"] = median(open.broker_ms);
  m["serve.gen_late_ms_p90"] = quantile(open.late_ms, 0.9);
  const serve::BrokerCounters& c = open.counters;
  m["serve.batch_rows_mean"] =
      static_cast<double>(c.batch_rows) / static_cast<double>(c.batches);
  m["serve.deadline_batch_frac"] =
      static_cast<double>(c.deadline_batches) / static_cast<double>(c.batches);
  m["serve.pad_row_frac"] =
      static_cast<double>(c.pad_rows) / static_cast<double>(c.batch_rows + c.pad_rows);
  m["serve.pad_token_frac"] =
      1.0 - static_cast<double>(open.real_tokens) / static_cast<double>(open.bucket_tokens);
  m["obs.trace_overhead_frac"] = median(traced.latency_ms) / median(open.latency_ms) - 1.0;
  rep.note("threads", threads);
  rep.note("samples.open_loop_requests", static_cast<double>(open.requests));
  rep.note("spans", static_cast<double>(tracer.spans().size()));
  const std::string spans = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                            std::to_string(opt.seed) + ".jsonl";
  rep.op(tracer.write_jsonl(spans), "cannot write " + spans);
  rep.note("spans_file", spans);
  emit_per_layer(rep, m);
  fs::remove(path);
}

}  // namespace perfbench
