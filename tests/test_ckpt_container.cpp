// The shared checkpoint-container codec (ckpt/container.hpp) as seen through
// both of its readers, ckpt::load_image (training restore) and
// serve::read_model_image_bytes (serving): directory paths, entry counts
// bounded by the bytes left, and a seeded mutational differential fuzzer.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/container.hpp"
#include "core/rng.hpp"
#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "optim/ema.hpp"
#include "optim/optimizer.hpp"
#include "serve/container.hpp"
#include "serve/session.hpp"

namespace legw {
namespace {

using core::Rng;
using core::Tensor;
using Sections = std::vector<std::pair<std::string, std::string>>;

// A model with parameters and buffers, so every section the codec knows
// carries entries.
struct Net : nn::Module {
  nn::Linear lin;
  nn::BatchNorm2d bn;
  explicit Net(Rng& rng) : lin(4, 3, rng), bn(2) {
    register_child("lin", &lin);
    register_child("bn", &bn);
  }
};

// A full training state: model, LARS optimizer, EMA, one RNG stream, one
// carried tensor and a pending micro-batch gradient, so an encoded image has
// all eight sections.
struct Live {
  Rng init;
  Net net;
  std::unique_ptr<optim::Optimizer> opt;
  optim::EmaWeights ema;
  Rng dropout;
  Tensor carried;
  ckpt::TrainState state;

  explicit Live(u64 seed)
      : init(seed),
        net(init),
        opt(optim::make_optimizer("lars", net.parameters(), 0.01f)),
        ema(net.parameters(), 0.9f),
        dropout(seed + 1),
        carried(Tensor::randn({2, 3}, init)) {
    for (auto& p : net.parameters()) {
      p.mutable_grad() = Tensor::randn(p.shape(), init);
    }
    opt->step();
    ema.update();
    dropout.normal();
    state.models = {&net};
    state.optimizers = {opt.get()};
    state.emas = {&ema};
    state.rngs = {{"dropout", &dropout}};
    state.extra = {{"h", &carried}};
    state.step = 9;
    state.epoch = 1;
    state.micro_step = 1;
  }
};

// Splits a v2 image into its (name, payload) sections, in file order;
// ckpt::encode_v2 reassembles them with fresh lengths and CRCs.
Sections split(const std::string& image) {
  ckpt::Reader r{image.data(), image.size()};
  r.pos = sizeof ckpt::kMagicV2 + sizeof(u32);
  u32 n = 0;
  EXPECT_TRUE(r.pod(&n));
  Sections out(n);
  for (auto& [name, payload] : out) {
    u64 bytes = 0;
    u32 crc = 0;
    EXPECT_TRUE(r.str(&name) && r.pod(&bytes) && r.pod(&crc));
    const char* p = r.borrow(static_cast<std::size_t>(bytes));
    EXPECT_NE(p, nullptr);
    payload.assign(p, static_cast<std::size_t>(bytes));
  }
  return out;
}

// Overwrites `sizeof(T)` bytes of `s` at `off` (clipped to the end).
template <typename T>
void poke(std::string& s, std::size_t off, T v) {
  if (off >= s.size()) return;
  std::memcpy(s.data() + off, &v, std::min(sizeof v, s.size() - off));
}

long max_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

bool is_v1(const std::string& bytes) {
  return bytes.size() >= sizeof ckpt::kMagicV1 &&
         std::memcmp(bytes.data(), ckpt::kMagicV1, sizeof ckpt::kMagicV1) == 0;
}

// ---- file reading -----------------------------------------------------------

TEST(ContainerFiles, DirectoryPathIsOpenFailedOnEveryEntryPoint) {
  const std::string dir =
      "/tmp/legw_ckpt_container_dir_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  Live live(3);
  const ckpt::Result loaded = ckpt::load(live.state, dir);
  EXPECT_EQ(loaded.status, ckpt::Status::kOpenFailed) << loaded.message;

  serve::ModelImage img;
  const serve::Result read = serve::read_model_image(dir, &img);
  EXPECT_EQ(read.status, serve::Status::kOpenFailed) << read.message;

  std::unique_ptr<serve::ServeSession> session;
  const serve::Result opened =
      serve::ServeSession::load(serve::SessionConfig{}, dir, &session);
  EXPECT_EQ(opened.status, serve::Status::kOpenFailed) << opened.message;
  EXPECT_EQ(session, nullptr);
  std::filesystem::remove_all(dir);
}

// ---- replicas ---------------------------------------------------------------

TEST(ContainerReplicas, EveryReplicaIsMatchedBeforeAnyWrite) {
  Rng rng(4);
  nn::Linear saved(4, 3, rng);
  ckpt::TrainState source;
  source.models = {&saved};
  const std::string image = ckpt::encode(source);

  nn::Linear replica0(4, 3, rng);
  nn::Linear replica1(5, 3, rng);  // a replica whose shapes disagree
  const Tensor before = replica0.weight().value();
  ckpt::TrainState target;
  target.models = {&replica0, &replica1};
  const ckpt::Result res = ckpt::load_image(target, image, "replicas");
  EXPECT_EQ(res.status, ckpt::Status::kStateMismatch) << res.message;
  EXPECT_NE(res.message.find("shape"), std::string::npos) << res.message;
  for (i64 i = 0; i < before.numel(); ++i) {
    ASSERT_EQ(replica0.weight().value()[i], before[i]) << "replica 0 written";
  }
}

// ---- counts bounded by the bytes left ---------------------------------------

TEST(ContainerCounts, HugeEntryCountsAreRejectedWithoutAllocating) {
  Live ref(5);
  const Sections sections = split(ckpt::encode(ref.state));
  // (section, offset of its entry count, count width in bytes)
  const struct {
    const char* section;
    std::size_t offset;
    int width;
  } counts[] = {
      {"params", 0, 8}, {"buffers", 0, 8}, {"ema", 0, 8}, {"extra", 0, 8},
      {"grads", 0, 8},  {"rng", 0, 4},
      // optim: u32 name length | name | u32 tensor count
      {"optim", sizeof(u32) + ref.opt->name().size(), 4},
  };
  constexpr u64 kHuge = (1ull << 24) - 1;
  for (const auto& c : counts) {
    Sections mutated = sections;
    bool found = false;
    for (auto& [name, payload] : mutated) {
      if (name != c.section) continue;
      found = true;
      if (c.width == 8) poke<u64>(payload, c.offset, kHuge);
      else poke<u32>(payload, c.offset, static_cast<u32>(kHuge));
    }
    ASSERT_TRUE(found) << c.section;
    const std::string image = ckpt::encode_v2(mutated);

    Live target(6);
    const long before = max_rss_kb();
    const ckpt::Result res = ckpt::load_image(target.state, image, "counts");
    serve::ModelImage img;
    const serve::Result served = serve::read_model_image_bytes(image, &img);
    const long grown_mb = (max_rss_kb() - before) / 1024;
    EXPECT_LT(grown_mb, 64) << c.section;
    EXPECT_EQ(res.status, ckpt::Status::kTruncated) << c.section << ": "
                                                    << res.message;
    // Serving decodes only meta, params and buffers.
    const bool serve_reads = std::string(c.section) == "params" ||
                             std::string(c.section) == "buffers";
    EXPECT_EQ(served.status,
              serve_reads ? serve::Status::kTruncated : serve::Status::kOk)
        << c.section << ": " << served.message;
  }

  // v1 files: the entry count follows the 8-byte magic and u32 version.
  std::string v1 = ckpt::encode_v1({{"w", &ref.carried}});
  poke<u64>(v1, sizeof ckpt::kMagicV1 + sizeof(u32), kHuge);
  ckpt::TrainState params_only;
  params_only.models = {&ref.net};
  const long before = max_rss_kb();
  const ckpt::Result res = ckpt::load_image(params_only, v1, "v1 counts");
  EXPECT_LT((max_rss_kb() - before) / 1024, 64);
  EXPECT_EQ(res.status, ckpt::Status::kTruncated) << res.message;
}

// ---- seeded mutational differential fuzzer ----------------------------------

// One seeded mutation of `image`: bit flips, truncations, splices, trailing
// bytes, raw header-field rewrites, and payload edits (count/length
// rewrites, cuts, insertions, section drops/duplicates/renames) that are
// re-sealed with fresh lengths and CRCs so they reach the decoders.
std::string mutate(const std::string& image, const Sections& sections,
                   Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(n));
  };
  const u64 interesting[] = {0, 1, 2, 7, 0xff, 0xffff, (1ull << 24) - 1,
                             1ull << 31, 0xffffffffull, ~0ull};
  const auto value = [&]() -> u64 {
    return rng.uniform_int(2) == 0 ? interesting[pick(std::size(interesting))]
                                   : rng.uniform_int(1ull << 40);
  };
  std::string out = image;
  switch (pick(8)) {
    case 0: {  // bit flips anywhere
      const std::size_t flips = 1 + pick(4);
      for (std::size_t i = 0; i < flips; ++i) {
        out[pick(out.size())] ^= static_cast<char>(1 << pick(8));
      }
      return out;
    }
    case 1:  // truncation
      return out.substr(0, pick(out.size()));
    case 2: {  // splice: copy a chunk over, or into, another position
      const std::size_t from = pick(out.size());
      const std::size_t len =
          1 + pick(std::min<std::size_t>(32, out.size() - from));
      const std::string chunk = out.substr(from, len);
      const std::size_t to = pick(out.size());
      if (rng.uniform_int(2) == 0) return out.insert(to, chunk);
      return out.replace(to, std::min(len, out.size() - to), chunk);
    }
    case 3:  // trailing bytes
      return out + std::string(1 + pick(8), static_cast<char>(pick(256)));
    case 4: {  // raw header-field rewrite, CRC left stale
      std::size_t off = 8 + 4 * pick(2);  // version or n_sections
      if (rng.uniform_int(2) == 0) {
        // A section header's name length or payload length.
        std::size_t pos = 16;
        const std::size_t target = pick(sections.size());
        for (std::size_t i = 0; i < target; ++i) {
          pos += 16 + sections[i].first.size() + sections[i].second.size();
        }
        off = rng.uniform_int(2) == 0
                  ? pos
                  : pos + 4 + sections[target].first.size();
      }
      if (rng.uniform_int(2) == 0) {
        poke<u32>(out, off, static_cast<u32>(value()));
      } else {
        poke<u64>(out, off, value());
      }
      return out;
    }
    default: break;
  }
  // Payload edits, re-sealed so the CRCs and lengths match again.
  Sections s = sections;
  auto& [name, payload] = s[pick(s.size())];
  switch (pick(4)) {
    case 0: {  // count/length/dim rewrite at an 8-byte or 4-byte step
      const std::size_t step = rng.uniform_int(2) == 0 ? 4 : 8;
      const std::size_t off = step * pick(payload.size() / step + 1);
      if (step == 8) poke<u64>(payload, off, value());
      else poke<u32>(payload, off, static_cast<u32>(value()));
      break;
    }
    case 1:  // cut the payload short, or insert bytes into it
      if (rng.uniform_int(2) == 0) {
        payload.resize(pick(payload.size() + 1));
      } else {
        payload.insert(pick(payload.size() + 1),
                       std::string(1 + pick(16), static_cast<char>(pick(256))));
      }
      break;
    case 2:  // rename the section (to a sibling's name: a duplicate)
      name = rng.uniform_int(2) == 0 ? s[pick(s.size())].first
                                     : name + "x";
      break;
    default:  // drop a section
      s.erase(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size())));
      break;
  }
  return ckpt::encode_v2(s);
}

TEST(ContainerFuzz, BothReadersAgreeOnEveryContainerFailure) {
  Live ref(11);
  const std::string image = ckpt::encode(ref.state);
  const Sections sections = split(image);
  ASSERT_EQ(ckpt::encode_v2(sections), image);

  Live live(12);
  const std::string baseline = ckpt::encode(live.state);
  Rng rng(2024);
  int rejected = 0, container_failures = 0;
  constexpr int kMutants = 4000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = mutate(image, sections, rng);
    SCOPED_TRACE("mutant " + std::to_string(i));

    const std::string before = ckpt::encode(live.state);
    const ckpt::Result trained = ckpt::load_image(live.state, mutant, "fuzz");
    EXPECT_NE(std::string(ckpt::status_name(trained.status)), "unknown");
    if (trained.ok()) {
      // Valid-but-different bytes restored: go back to the baseline so the
      // next mutant sees the same live schema.
      ASSERT_TRUE(ckpt::load_image(live.state, baseline, "baseline").ok());
    } else {
      ++rejected;
      EXPECT_FALSE(trained.message.empty());
      EXPECT_EQ(ckpt::encode(live.state), before)
          << "rejected load changed the live state: " << trained.message;
    }

    serve::ModelImage img;
    img.step = -7;
    const serve::Result served = serve::read_model_image_bytes(mutant, &img);
    EXPECT_NE(std::string(serve::status_name(served.status)), "unknown");
    if (!served.ok()) {
      EXPECT_FALSE(served.message.empty());
      EXPECT_EQ(img.step, -7);
      EXPECT_TRUE(img.params.empty());
    }

    ckpt::Container c;
    const ckpt::Result parsed = ckpt::parse_container(mutant, &c);
    if (is_v1(mutant)) {
      EXPECT_EQ(served.status, serve::Status::kMissingSection);
    } else if (!parsed.ok()) {
      ++container_failures;
      EXPECT_EQ(trained.status, parsed.status) << trained.message;
      EXPECT_EQ(served.status, parsed.status) << served.message;
    }
  }
  // The mutator must exercise both the container walk and the decoders.
  EXPECT_GT(container_failures, kMutants / 4);
  EXPECT_GT(rejected - container_failures, kMutants / 8);
}

}  // namespace
}  // namespace legw
