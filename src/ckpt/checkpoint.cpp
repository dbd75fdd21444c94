#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/io.hpp"
#include "obs/trace.hpp"

namespace legw::ckpt {

// ---- encode -----------------------------------------------------------------

std::string encode(const TrainState& state) {
  LEGW_CHECK(!state.models.empty(), "ckpt::encode: at least one model");
  LEGW_CHECK(state.optimizers.empty() ||
                 state.optimizers.size() == state.models.size(),
             "ckpt::encode: optimizers must align with models");
  LEGW_CHECK(state.emas.empty() || state.emas.size() == state.models.size(),
             "ckpt::encode: emas must align with models");
  const nn::Module& model = *state.models.front();
  std::vector<std::pair<std::string, std::string>> sections;

  Meta meta{state.step, state.epoch, state.micro_step,
            state.optimizers.empty() ? "" : state.optimizers.front()->name()};
  sections.emplace_back("meta", encode_meta(meta));

  std::string params;
  {
    const auto named = model.named_parameters();
    append_pod(params, static_cast<u64>(named.size()));
    for (const auto& p : named) append_named_tensor(params, p.name, p.var.value());
  }
  sections.emplace_back("params", std::move(params));

  std::string buffers;
  {
    const auto named = model.named_buffers();
    append_pod(buffers, static_cast<u64>(named.size()));
    for (const auto& b : named) append_named_tensor(buffers, b.name, *b.tensor);
  }
  sections.emplace_back("buffers", std::move(buffers));

  if (!state.optimizers.empty()) {
    optim::Optimizer& opt = *state.optimizers.front();
    const auto view = opt.state_entries();
    std::string optim;
    append_str(optim, opt.name());
    append_pod(optim, static_cast<u32>(view.tensors.size()));
    for (const auto& e : view.tensors) {
      append_named_tensor(optim, e.name, *e.tensor);
    }
    append_pod(optim, static_cast<u32>(view.scalars.size()));
    for (const auto& e : view.scalars) {
      append_str(optim, e.name);
      append_pod(optim, *e.value);
    }
    sections.emplace_back("optim", std::move(optim));
  }

  if (!state.emas.empty()) {
    const auto& shadow = state.emas.front()->shadow();
    std::string ema;
    append_pod(ema, static_cast<u64>(shadow.size()));
    for (const auto& t : shadow) append_tensor(ema, t);
    sections.emplace_back("ema", std::move(ema));
  }

  std::string rng;
  append_pod(rng, static_cast<u32>(state.rngs.size()));
  for (const auto& [name, stream] : state.rngs) {
    const core::Rng::State s = stream->state();
    append_str(rng, name);
    append_pod(rng, s.counter);
    append_pod(rng, static_cast<u16>(s.has_cached ? 1 : 0));
    append_pod(rng, s.cached);
  }
  sections.emplace_back("rng", std::move(rng));

  std::string extra;
  append_pod(extra, static_cast<u64>(state.extra.size()));
  for (const auto& [name, t] : state.extra) {
    append_named_tensor(extra, name, *t);
  }
  sections.emplace_back("extra", std::move(extra));

  // Mid-accumulation saves carry the pending micro-batch gradient sum: the
  // micro-step counter alone cannot reproduce the interrupted large-batch
  // step without it.
  if (state.micro_step > 0) {
    const auto params_list = model.parameters();
    std::string grads;
    append_pod(grads, static_cast<u64>(params_list.size()));
    for (const auto& p : params_list) append_tensor(grads, p.grad());
    sections.emplace_back("grads", std::move(grads));
  }
  return encode_v2(sections);
}

Result save(const TrainState& state, const std::string& path) {
  obs::Span span("ckpt_write");
  if (state.models.empty()) {
    return Result::error(Status::kWriteFailed, "ckpt::save: no model in state");
  }
  const std::string image = encode(state);
  const core::Status st = core::atomic_write_file(path, image);
  if (!st.ok()) {
    return Result::error(Status::kWriteFailed, "ckpt::save: " + st.message());
  }
  obs::count("ckpt_writes", 1);
  obs::count("ckpt_bytes", static_cast<i64>(image.size()));
  return {};
}

// ---- load -------------------------------------------------------------------

namespace {

// The live tensors a decoded list is restored into, in file order. Names are
// empty for the unnamed lists (ema, grads).
using Live = std::vector<std::pair<std::string, const core::Tensor*>>;

Live params_of(const nn::Module& model) {
  Live live;
  for (const auto& p : model.named_parameters()) {
    live.emplace_back(p.name, &p.var.value());
  }
  return live;
}

Live buffers_of(const nn::Module& model) {
  Live live;
  for (const auto& b : model.named_buffers()) {
    live.emplace_back(b.name, b.tensor);
  }
  return live;
}

// Validates a decoded list against the live entries it will overwrite: same
// count, and per entry the same name and shape, in order.
Result match(const std::string& what, const std::vector<TensorView>& file,
             const Live& live) {
  if (file.size() != live.size()) {
    return Result::error(Status::kStateMismatch,
                         what + ": file has " + std::to_string(file.size()) +
                             " entries, state has " +
                             std::to_string(live.size()));
  }
  for (std::size_t i = 0; i < file.size(); ++i) {
    const std::string& name = live[i].first;
    if (file[i].name != name) {
      return Result::error(Status::kStateMismatch,
                           what + ": entry '" + file[i].name +
                               "' does not match state entry '" + name + "'");
    }
    const core::Shape& shape = live[i].second->shape();
    if (file[i].shape != shape) {
      return Result::error(
          Status::kStateMismatch,
          what + ": shape mismatch for " +
              (name.empty() ? "entry " + std::to_string(i) : "'" + name + "'") +
              ": file " + core::shape_to_string(file[i].shape) + " vs state " +
              core::shape_to_string(shape));
    }
  }
  return {};
}

// Decodes the tensor list stored in section `name`.
template <typename Count>
Result decode_section(const Container& c, const std::string& name, bool named,
                      std::vector<TensorView>* out) {
  const Reader* sec = c.find(name);
  if (sec == nullptr) {
    return Result::error(Status::kMalformed, "missing '" + name + "' section");
  }
  Reader r = *sec;
  if (!decode_tensors<Count>(r, named, out)) return truncated(name);
  return {};
}

Result load_v1(TrainState& state, const Container& c, const std::string& path) {
  for (nn::Module* model : state.models) {
    Result res = match("params", c.v1_params, params_of(*model));
    if (!res.ok()) return res;
  }
  for (nn::Module* model : state.models) {
    auto named = model->named_parameters();
    for (std::size_t i = 0; i < named.size(); ++i) {
      c.v1_params[i].copy_to(named[i].var.mutable_value());
    }
  }
  Result res;
  res.message = "v1 checkpoint " + path + ": parameters restored, "
                "optimizer/RNG/counter state not present in this version";
  return res;
}

// Stage 1 decodes and validates the whole file against the live schema;
// stage 2 applies it to every replica. Nothing is written before stage 2.
Result restore(TrainState& state, const std::string& image,
               const std::string& path) {
  if (state.models.empty()) {
    return Result::error(Status::kStateMismatch, "no model in state");
  }
  if (!state.optimizers.empty() &&
      state.optimizers.size() != state.models.size()) {
    return Result::error(Status::kStateMismatch,
                         "optimizers must align with models");
  }
  Container c;
  Result res = parse_container(image, &c);
  if (!res.ok()) return res;
  if (c.version == kVersionV1) return load_v1(state, c, path);

  // ---- stage 1: decode + validate everything against the live schema ------

  const Reader* meta_section = c.find("meta");
  if (meta_section == nullptr) {
    return Result::error(Status::kMalformed, "missing 'meta' section");
  }
  Meta meta;
  res = decode_meta(*meta_section, &meta);
  if (!res.ok()) return res;
  if (!state.optimizers.empty() &&
      meta.optimizer != state.optimizers.front()->name()) {
    return Result::error(Status::kStateMismatch,
                         "checkpoint was written by optimizer '" +
                             meta.optimizer + "', state has '" +
                             state.optimizers.front()->name() + "'");
  }

  // params and buffers (both required in v2; buffers written even when
  // empty), matched against every replica stage 2 writes.
  std::vector<TensorView> params, buffers;
  res = decode_section<u64>(c, "params", true, &params);
  if (res.ok()) res = decode_section<u64>(c, "buffers", true, &buffers);
  for (const nn::Module* m : state.models) {
    if (res.ok()) res = match("params", params, params_of(*m));
    if (res.ok()) res = match("buffers", buffers, buffers_of(*m));
  }
  if (!res.ok()) return res;

  // optim (required iff the state carries optimizers)
  std::vector<TensorView> opt_tensors;
  std::vector<std::pair<std::string, i64>> opt_scalars;
  if (!state.optimizers.empty()) {
    const Reader* sec = c.find("optim");
    if (sec == nullptr) {
      return Result::error(Status::kStateMismatch,
                           "state has optimizers but the file has no 'optim' "
                           "section");
    }
    Reader r = *sec;
    std::string opt_name;
    std::size_t n_scalars = 0;
    if (!r.str(&opt_name) || !decode_tensors<u32>(r, true, &opt_tensors) ||
        !r.count<u32>(&n_scalars, kMinNamedI64Bytes)) {
      return truncated("optim");
    }
    opt_scalars.resize(n_scalars);
    for (auto& [key, value] : opt_scalars) {
      if (!r.str(&key) || !r.pod(&value)) return truncated("optim");
    }
    for (optim::Optimizer* opt : state.optimizers) {
      if (opt->name() != opt_name) {
        return Result::error(Status::kStateMismatch,
                             "optim section is for '" + opt_name +
                                 "', state optimizer is '" + opt->name() + "'");
      }
      const auto view = opt->state_entries();
      Live live;
      for (const auto& e : view.tensors) live.emplace_back(e.name, e.tensor);
      res = match("optim", opt_tensors, live);
      if (!res.ok()) return res;
      if (opt_scalars.size() != view.scalars.size()) {
        return Result::error(Status::kStateMismatch,
                             "optim scalar count mismatch");
      }
      for (std::size_t i = 0; i < view.scalars.size(); ++i) {
        if (opt_scalars[i].first != view.scalars[i].name) {
          return Result::error(Status::kStateMismatch,
                               "optim scalar '" + opt_scalars[i].first +
                                   "' does not match state scalar '" +
                                   view.scalars[i].name + "'");
        }
      }
    }
  }

  // ema (required iff the state carries EMA weights)
  std::vector<TensorView> ema;
  if (!state.emas.empty()) {
    if (c.find("ema") == nullptr) {
      return Result::error(Status::kStateMismatch,
                           "state has EMA weights but the file has no 'ema' "
                           "section");
    }
    res = decode_section<u64>(c, "ema", false, &ema);
    for (const optim::EmaWeights* weights : state.emas) {
      Live live;
      for (const auto& t : weights->shadow()) live.emplace_back("", &t);
      if (res.ok()) res = match("ema", ema, live);
    }
    if (!res.ok()) return res;
  }

  // rng (required; name sets must match exactly)
  std::vector<std::pair<std::string, core::Rng::State>> rngs;
  {
    const Reader* sec = c.find("rng");
    if (sec == nullptr) {
      return Result::error(Status::kMalformed, "missing 'rng' section");
    }
    Reader r = *sec;
    std::size_t n = 0;
    constexpr std::size_t kMinRngEntry =
        sizeof(u32) + sizeof(u64) + sizeof(u16) + sizeof(double);
    if (!r.count<u32>(&n, kMinRngEntry)) return truncated("rng");
    rngs.resize(n);
    for (auto& [name, s] : rngs) {
      u16 has_cached = 0;
      if (!r.str(&name) || !r.pod(&s.counter) || !r.pod(&has_cached) ||
          !r.pod(&s.cached)) {
        return truncated("rng entry");
      }
      s.has_cached = has_cached != 0;
    }
    if (rngs.size() != state.rngs.size()) {
      return Result::error(Status::kStateMismatch,
                           "rng stream count mismatch (file " +
                               std::to_string(rngs.size()) + ", state " +
                               std::to_string(state.rngs.size()) + ")");
    }
    for (std::size_t i = 0; i < rngs.size(); ++i) {
      if (rngs[i].first != state.rngs[i].first) {
        return Result::error(Status::kStateMismatch,
                             "rng stream '" + rngs[i].first +
                                 "' does not match state stream '" +
                                 state.rngs[i].first + "'");
      }
    }
  }

  // extra (required; name sets and shapes must match exactly)
  std::vector<TensorView> extra;
  res = decode_section<u64>(c, "extra", true, &extra);
  if (res.ok()) {
    res = match("extra", extra, Live(state.extra.begin(), state.extra.end()));
  }
  if (!res.ok()) return res;

  // grads (present iff saved mid-accumulation)
  std::vector<TensorView> grads;
  if (meta.micro_step > 0) {
    res = decode_section<u64>(c, "grads", false, &grads);
    for (const nn::Module* m : state.models) {
      Live live;
      for (const auto& p : m->parameters()) live.emplace_back("", &p.value());
      if (res.ok()) res = match("grads", grads, live);
    }
    if (!res.ok()) return res;
  }

  // ---- stage 2: the file is fully valid — apply to every replica -----------

  for (nn::Module* m : state.models) {
    auto named = m->named_parameters();
    for (std::size_t i = 0; i < named.size(); ++i) {
      params[i].copy_to(named[i].var.mutable_value());
    }
    const auto named_buffers = m->named_buffers();
    for (std::size_t i = 0; i < named_buffers.size(); ++i) {
      buffers[i].copy_to(*named_buffers[i].tensor);
    }
    if (meta.micro_step > 0) {
      auto params_list = m->parameters();
      for (std::size_t i = 0; i < params_list.size(); ++i) {
        grads[i].copy_to(params_list[i].mutable_grad());
      }
    }
  }
  for (optim::Optimizer* opt : state.optimizers) {
    const auto view = opt->state_entries();
    for (std::size_t i = 0; i < view.tensors.size(); ++i) {
      opt_tensors[i].copy_to(*view.tensors[i].tensor);
    }
    for (std::size_t i = 0; i < view.scalars.size(); ++i) {
      *view.scalars[i].value = opt_scalars[i].second;
    }
  }
  for (optim::EmaWeights* weights : state.emas) {
    auto& shadow = weights->mutable_shadow();
    for (std::size_t i = 0; i < shadow.size(); ++i) ema[i].copy_to(shadow[i]);
  }
  for (std::size_t i = 0; i < state.rngs.size(); ++i) {
    state.rngs[i].second->set_state(rngs[i].second);
  }
  for (std::size_t i = 0; i < state.extra.size(); ++i) {
    extra[i].copy_to(*state.extra[i].second);
  }
  state.step = meta.step;
  state.epoch = meta.epoch;
  state.micro_step = meta.micro_step;
  return {};
}

}  // namespace

Result load(TrainState& state, const std::string& path) {
  std::string image;
  const core::Status st = core::read_file(path, &image);
  if (!st.ok()) {
    return Result::error(Status::kOpenFailed, "ckpt::load: " + st.message());
  }
  return load_image(state, image, path);
}

Result load_image(TrainState& state, const std::string& image,
                  const std::string& origin) {
  obs::Span span("ckpt_restore");
  Result res = restore(state, image, origin);
  if (!res.ok()) {
    res.message = "ckpt::load: " + res.message + " (" + origin + ")";
  } else {
    obs::count("ckpt_restores", 1);
  }
  return res;
}

// ---- CrashPlan --------------------------------------------------------------

CrashPlan CrashPlan::mid_step(i64 at_step) {
  CrashPlan plan;
  plan.crashes.push_back({at_step, Kind::kMidStep, 0.0});
  return plan;
}

CrashPlan CrashPlan::mid_write(i64 at_step, double fraction) {
  CrashPlan plan;
  plan.crashes.push_back({at_step, Kind::kMidWrite, fraction});
  return plan;
}

CrashPlan CrashPlan::torn_publish(i64 at_step, double fraction) {
  CrashPlan plan;
  plan.crashes.push_back({at_step, Kind::kTornPublish, fraction});
  return plan;
}

CrashPlan CrashPlan::random_kills(u64 seed, i64 max_step, int count) {
  LEGW_CHECK(max_step >= 1, "CrashPlan: max_step must be >= 1");
  core::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  CrashPlan plan;
  while (static_cast<int>(plan.crashes.size()) < count) {
    const i64 step =
        1 + static_cast<i64>(rng.uniform_int(static_cast<u64>(max_step)));
    if (plan.crash_at(step) != nullptr) continue;
    Crash c;
    c.at_step = step;
    const u64 kind = rng.uniform_int(3);
    c.kind = kind == 0 ? Kind::kMidStep
                       : (kind == 1 ? Kind::kMidWrite : Kind::kTornPublish);
    c.write_fraction = 0.25 + 0.5 * rng.uniform();
    plan.crashes.push_back(c);
  }
  return plan;
}

const CrashPlan::Crash* CrashPlan::crash_at(i64 step) const {
  for (const auto& c : crashes) {
    if (c.at_step == step) return &c;
  }
  return nullptr;
}

// ---- CheckpointManager ------------------------------------------------------

CheckpointManager::CheckpointManager(ManagerConfig config)
    : config_(std::move(config)) {
  LEGW_CHECK(!config_.dir.empty(), "CheckpointManager: dir required");
}

std::string CheckpointManager::step_path(const std::string& dir, i64 step) {
  char name[32];
  std::snprintf(name, sizeof name, "ckpt-%012lld.legw",
                static_cast<long long>(step));
  return dir + "/" + name;
}

std::vector<std::string> CheckpointManager::list_checkpoints(
    const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<i64, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    // ckpt-<digits>.legw, nothing else (ignores .tmp leftovers).
    if (name.size() <= 10 || name.rfind("ckpt-", 0) != 0 ||
        name.substr(name.size() - 5) != ".legw") {
      continue;
    }
    const std::string digits = name.substr(5, name.size() - 10);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::stoll(digits), entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [step, path] : found) out.push_back(std::move(path));
  return out;
}

i64 CheckpointManager::step_of(const std::string& path) {
  const std::string name = std::filesystem::path(path).filename().string();
  if (name.size() <= 10 || name.rfind("ckpt-", 0) != 0 ||
      name.substr(name.size() - 5) != ".legw") {
    return -1;
  }
  const std::string digits = name.substr(5, name.size() - 10);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return -1;
  }
  return std::stoll(digits);
}

bool CheckpointManager::is_blessed(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path + ".blessed", ec);
}

Result CheckpointManager::maybe_save(const TrainState& state) {
  if (!due(state.step)) return {};
  return save_now(state);
}

Result CheckpointManager::save_now(const TrainState& state) {
  core::MutexLock lock(io_mu_);
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  const std::string path = step_path(config_.dir, state.step);
  const CrashPlan::Crash* crash =
      config_.crash == nullptr ? nullptr : config_.crash->crash_at(state.step);
  if (crash != nullptr && crash->kind != CrashPlan::Kind::kMidStep) {
    // Simulated kill mid-write: emit exactly the bytes a dead process would
    // leave behind — a truncated staging file (kMidWrite, never published;
    // restore must ignore it and use the previous checkpoint) or a truncated
    // file at the final path (kTornPublish, modelling a non-atomic
    // filesystem; restore must detect the damage and fall back). Deliberately
    // not the atomic writer: the injection bypasses it the way a crash would.
    const std::string image = encode(state);
    const double f = std::clamp(crash->write_fraction, 0.0, 1.0);
    const auto cut = static_cast<std::size_t>(f * static_cast<double>(image.size()));
    const std::string target =
        crash->kind == CrashPlan::Kind::kMidWrite ? path + ".tmp" : path;
    // lint-allow: atomic-write — crash injector writes a torn file on purpose.
    std::FILE* out = std::fopen(target.c_str(), "wb");
    if (out != nullptr) {
      std::fwrite(image.data(), 1, cut, out);
      std::fclose(out);
    }
    return Result::error(Status::kSimulatedCrash,
                         "injected kill during write of " + path + " (" +
                             std::to_string(cut) + "/" +
                             std::to_string(image.size()) + " bytes)");
  }
  Result r = save(state, path);
  if (r.ok()) apply_retention();
  return r;
}

namespace {

// Shared newest→oldest restore walk over `files`; `label` distinguishes the
// latest/blessed variants in error messages.
CheckpointManager::RestoreOutcome restore_walk(
    TrainState& state, const std::vector<std::string>& files,
    const std::string& dir, const std::string& label) {
  CheckpointManager::RestoreOutcome out;
  if (files.empty()) {
    out.status =
        Result::error(Status::kNoCheckpoint,
                      "no " + label + " checkpoints in " + dir);
    return out;
  }
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    Result r = load(state, *it);
    if (r.ok()) {
      out.restored = true;
      out.path = *it;
      out.status = std::move(r);
      if (!out.skipped.empty()) {
        // The newest file(s) were corrupt and an older one restored — that
        // fallback is the incident a post-mortem needs to see.
        obs::TraceRecorder::global().add_event(
            "ckpt_fallback",
            {{"restored", out.path},
             {"skipped", std::to_string(out.skipped.size())}});
      }
      return out;
    }
    out.skipped.push_back(
        CheckpointManager::SkippedCheckpoint{*it, r.status, r.message});
    obs::count("ckpt_corrupt_skipped", 1);
    obs::TraceRecorder::global().add_event(
        "ckpt_corrupt_skipped",
        {{"path", *it},
         {"status", status_name(r.status)},
         {"error", r.message}});
    out.status = std::move(r);
  }
  return out;
}

}  // namespace

CheckpointManager::RestoreOutcome CheckpointManager::restore_latest(
    TrainState& state) {
  core::MutexLock lock(io_mu_);
  return restore_walk(state, list_checkpoints(config_.dir), config_.dir,
                      "candidate");
}

CheckpointManager::RestoreOutcome CheckpointManager::restore_blessed(
    TrainState& state) {
  core::MutexLock lock(io_mu_);
  std::vector<std::string> blessed;
  for (const auto& path : list_checkpoints(config_.dir)) {
    if (is_blessed(path)) blessed.push_back(path);
  }
  return restore_walk(state, blessed, config_.dir, "blessed");
}

Result CheckpointManager::bless(i64 step) {
  core::MutexLock lock(io_mu_);
  const std::string path = step_path(config_.dir, step);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Result::error(Status::kNoCheckpoint,
                         "bless: no checkpoint at " + path);
  }
  // The marker is existence-only metadata: is_blessed() never reads the
  // content, and a marker lost to power loss merely ages the rollback
  // target by one blessing. Skipping the atomic-write fsync keeps blessing
  // off the step's critical path (one fsync per cadence would dominate the
  // sentinel's healthy overhead).
  // lint-allow: atomic-write — existence-only marker, loss is safe
  std::FILE* f = std::fopen((path + ".blessed").c_str(), "wb");
  if (f == nullptr) {
    return Result::error(Status::kWriteFailed,
                         "bless: cannot create marker for " + path);
  }
  std::fputs("blessed\n", f);
  if (std::fclose(f) != 0) {
    return Result::error(Status::kWriteFailed,
                         "bless: marker close failed for " + path);
  }
  return {};
}

i64 CheckpointManager::newest_blessed_step() {
  core::MutexLock lock(io_mu_);
  const auto files = list_checkpoints(config_.dir);
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    if (is_blessed(*it)) return step_of(*it);
  }
  return -1;
}

void CheckpointManager::invalidate_after(i64 step) {
  core::MutexLock lock(io_mu_);
  for (const auto& path : list_checkpoints(config_.dir)) {
    if (step_of(path) > step && !is_blessed(path)) {
      std::remove(path.c_str());
    }
  }
}

void CheckpointManager::apply_retention() {
  if (config_.keep_last <= 0) return;
  auto files = list_checkpoints(config_.dir);
  // The newest blessed checkpoint is the run's only known-good rollback
  // target while newer (still-unblessed) files exist ahead of it; retention
  // must not reap it to make room for exactly the files a divergence would
  // invalidate.
  std::string protect;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    if (is_blessed(*it)) {
      if (it != files.rbegin()) protect = *it;  // unblessed files exist ahead
      break;
    }
  }
  // The protected file rides above the budget: the run still keeps its
  // keep_last newest checkpoints for normal resume.
  const std::size_t budget = static_cast<std::size_t>(config_.keep_last) +
                             (protect.empty() ? 0u : 1u);
  std::size_t i = 0;
  while (files.size() > budget && i < files.size()) {
    if (files[i] == protect) {
      ++i;
      continue;
    }
    std::remove(files[i].c_str());
    std::remove((files[i] + ".blessed").c_str());  // stale marker, if any
    files.erase(files.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

}  // namespace legw::ckpt
