#include "ckpt/container.hpp"

#include <iterator>

#include "ckpt/crc32.hpp"

namespace legw::ckpt {

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kOpenFailed: return "open-failed";
    case Status::kTruncated: return "truncated";
    case Status::kBadMagic: return "bad-magic";
    case Status::kBadVersion: return "bad-version";
    case Status::kCrcMismatch: return "crc-mismatch";
    case Status::kMalformed: return "malformed";
    case Status::kStateMismatch: return "state-mismatch";
    case Status::kWriteFailed: return "write-failed";
    case Status::kNoCheckpoint: return "no-checkpoint";
    case Status::kSimulatedCrash: return "simulated-crash";
    case Status::kMissingSection: return "missing-section";
    case Status::kSchemaMismatch: return "schema-mismatch";
    case Status::kInvalidRequest: return "invalid-request";
    case Status::kUnavailable: return "unavailable";
  }
  return "unknown";
}

Result truncated(const std::string& what) {
  return Result::error(Status::kTruncated,
                       "checkpoint truncated/malformed in " + what);
}

// ---- encoding ---------------------------------------------------------------

void append_str(std::string& out, const std::string& s) {
  append_pod(out, static_cast<u32>(s.size()));
  out.append(s);
}

void append_tensor(std::string& out, const core::Tensor& t) {
  append_pod(out, static_cast<u64>(t.dim()));
  for (i64 d = 0; d < t.dim(); ++d) append_pod(out, t.size(d));
  out.append(reinterpret_cast<const char*>(t.data()),
             static_cast<std::size_t>(t.numel()) * sizeof(float));
}

void append_named_tensor(std::string& out, const std::string& name,
                         const core::Tensor& t) {
  append_str(out, name);
  append_tensor(out, t);
}

std::string encode_v1(const NamedTensorRefs& entries) {
  std::string out(kMagicV1, sizeof kMagicV1);
  append_pod(out, kVersionV1);
  append_pod(out, static_cast<u64>(entries.size()));
  for (const auto& [name, t] : entries) append_named_tensor(out, name, *t);
  return out;
}

std::string encode_v2(
    const std::vector<std::pair<std::string, std::string>>& sections) {
  std::size_t bytes = sizeof kMagicV2 + 2 * sizeof(u32);
  for (const auto& [name, payload] : sections) {
    bytes += 2 * sizeof(u32) + sizeof(u64) + name.size() + payload.size();
  }
  std::string out;
  out.reserve(bytes);
  out.append(kMagicV2, sizeof kMagicV2);
  append_pod(out, kVersionV2);
  append_pod(out, static_cast<u32>(sections.size()));
  for (const auto& [name, payload] : sections) {
    append_str(out, name);
    append_pod(out, static_cast<u64>(payload.size()));
    append_pod(out, crc32(payload.data(), payload.size()));
    out.append(payload);
  }
  return out;
}

std::string encode_meta(const Meta& meta) {
  std::string out;
  const std::pair<const char*, i64> ints[] = {
      {"step", meta.step},
      {"epoch", meta.epoch},
      {"micro_step", meta.micro_step},
  };
  append_pod(out, static_cast<u32>(std::size(ints)));
  for (const auto& [key, value] : ints) {
    append_str(out, key);
    append_pod(out, value);
  }
  append_pod(out, static_cast<u32>(1));
  append_str(out, "optimizer");
  append_str(out, meta.optimizer);
  return out;
}

// ---- decoding ---------------------------------------------------------------

bool Reader::str(std::string* out) {
  u32 len = 0;
  if (!pod(&len) || len > kMaxNameLen || len > remaining()) return false;
  out->assign(data + pos, len);
  pos += len;
  return true;
}

const char* Reader::borrow(std::size_t n) {
  if (n > remaining()) return nullptr;
  const char* p = data + pos;
  pos += n;
  return p;
}

bool decode_tensor(Reader& r, bool named, TensorView* out) {
  if (named && !r.str(&out->name)) return false;
  u64 ndim = 0;
  if (!r.pod(&ndim) || ndim > kMaxNdim) return false;
  out->shape.assign(static_cast<std::size_t>(ndim), 0);
  i64 numel = 1;
  for (auto& dim : out->shape) {
    if (!r.pod(&dim) || dim < 0 || dim > kMaxDim) return false;
    if (dim > 0 && numel > kMaxDim / dim) return false;  // overflow guard
    numel *= dim;
  }
  out->numel = numel;
  out->bytes = r.borrow(static_cast<std::size_t>(numel) * sizeof(float));
  return out->bytes != nullptr;
}

Result decode_meta(Reader r, Meta* out) {
  std::size_t n_ints = 0;
  if (!r.count<u32>(&n_ints, kMinNamedI64Bytes)) return truncated("meta");
  for (std::size_t i = 0; i < n_ints; ++i) {
    std::string key;
    i64 value = 0;
    if (!r.str(&key) || !r.pod(&value)) return truncated("meta");
    if (key == "step") out->step = value;
    else if (key == "epoch") out->epoch = value;
    else if (key == "micro_step") out->micro_step = value;
  }
  std::size_t n_strs = 0;
  if (!r.count<u32>(&n_strs, 2 * sizeof(u32))) return truncated("meta");
  for (std::size_t i = 0; i < n_strs; ++i) {
    std::string key, value;
    if (!r.str(&key) || !r.str(&value)) return truncated("meta");
    if (key == "optimizer") out->optimizer = std::move(value);
  }
  if (out->step < 0 || out->micro_step < 0) {
    return Result::error(Status::kMalformed, "negative counters in meta");
  }
  return {};
}

const Reader* Container::find(const std::string& name) const {
  const auto it = sections.find(name);
  return it == sections.end() ? nullptr : &it->second;
}

Result parse_container(const std::string& image, Container* out) {
  Reader r{image.data(), image.size()};
  char magic[8];
  if (!r.bytes(magic, sizeof magic)) {
    return Result::error(Status::kTruncated, "file shorter than a header");
  }
  const bool v1 = std::memcmp(magic, kMagicV1, sizeof magic) == 0;
  if (!v1 && std::memcmp(magic, kMagicV2, sizeof magic) != 0) {
    return Result::error(Status::kBadMagic, "bad magic");
  }
  if (!r.pod(&out->version)) return truncated("header");
  if (out->version != (v1 ? kVersionV1 : kVersionV2)) {
    const std::string what = v1 ? "v1-magic file with" : "unsupported";
    return Result::error(Status::kBadVersion,
                         what + " version " + std::to_string(out->version));
  }
  if (v1) {
    if (!decode_tensors<u64>(r, /*named=*/true, &out->v1_params)) {
      return truncated("v1 entries");
    }
    return {};
  }

  constexpr std::size_t kMinSectionHeader = 2 * sizeof(u32) + sizeof(u64);
  std::size_t n_sections = 0;
  if (!r.count<u32>(&n_sections, kMinSectionHeader)) return truncated("header");
  for (std::size_t i = 0; i < n_sections; ++i) {
    std::string name;
    u64 payload_bytes = 0;
    u32 crc = 0;
    if (!r.str(&name) || !r.pod(&payload_bytes) || !r.pod(&crc)) {
      return truncated("section header");
    }
    if (payload_bytes > r.remaining()) {
      return Result::error(Status::kTruncated,
                           "section '" + name + "' truncated");
    }
    const auto n = static_cast<std::size_t>(payload_bytes);
    const char* payload = r.borrow(n);
    if (crc32(payload, n) != crc) {
      return Result::error(Status::kCrcMismatch,
                           "CRC mismatch in section '" + name + "'");
    }
    if (!out->sections.emplace(name, Reader{payload, n}).second) {
      return Result::error(Status::kMalformed,
                           "duplicate section '" + name + "'");
    }
  }
  if (r.remaining() != 0) {
    return Result::error(Status::kMalformed,
                         std::to_string(r.remaining()) +
                             " trailing bytes after last section");
  }
  return {};
}

}  // namespace legw::ckpt
