// The checkpoint container codec: the one place the on-disk format is
// encoded and decoded. Training restore (ckpt/checkpoint.hpp), the tape-free
// serving reader (serve/container.hpp) and the parameter-only writer
// (nn/serialize.hpp) all go through it, so the file format, its caps and its
// failure taxonomy exist once. It links only legw_core, which keeps
// legw_serve free of the autograd/nn stack.
//
// Container format (little-endian, version 2):
//
//   magic "LEGWCKP2" | u32 version | u32 n_sections
//   per section: u32 name_len | name | u64 payload_bytes | u32 crc32 | payload
//
// Version-1 files (parameters only):
//
//   magic "LEGWCKPT" | u32 version | u64 n_entries | named tensors...
//
// A named tensor is `u32 name_len | name | u64 ndim | i64 dims[ndim] |
// float data[numel]`; an unnamed tensor drops the name. docs/CHECKPOINT.md
// lists every section's payload.
//
// Decoding never aborts and never allocates from an unchecked length: every
// read is bounds-checked, every count is bounded by the bytes left, and
// every failure is a structured Result.
#pragma once

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/tensor.hpp"

namespace legw::ckpt {

// One failure taxonomy for checkpoint files and for the serving runtime that
// loads them (serve::Status and serve::Result are aliases of these).
enum class Status {
  kOk,
  kOpenFailed,       // cannot open/read the file (missing, not a regular file)
  kTruncated,        // file ends inside a declared header/section, or a
                     // count/length field exceeds the bytes left
  kBadMagic,         // neither a v2 container nor a v1 parameter file
  kBadVersion,       // version newer than this reader
  kCrcMismatch,      // a section's payload fails its CRC32
  kMalformed,        // implausible fields, duplicate sections, trailing bytes
  kStateMismatch,    // file disagrees with the live training state's schema
                     // (names, shapes, optimizer type, counts)
  kWriteFailed,      // staging or atomic publication failed
  kNoCheckpoint,     // restore_latest found no candidate files
  kSimulatedCrash,   // a CrashPlan kill fired during this write
  kMissingSection,   // v1 file, or v2 container without a serve-required
                     // section; the message names every missing section
  kSchemaMismatch,   // checkpoint disagrees with a serving session's model
                     // config (missing tensor, wrong shape)
  kInvalidRequest,   // serve request rejected before batching
  kUnavailable,      // serve broker already shut down
};

const char* status_name(Status s);

// [[nodiscard]]: every function returning a Result by value inherits the
// must-check contract (a dropped checkpoint error is silent data loss, a
// dropped serve error serves a stale or broken model).
struct [[nodiscard]] Result {
  Status status = Status::kOk;
  std::string message;  // empty when ok
  bool ok() const { return status == Status::kOk; }

  static Result error(Status status, std::string message) {
    return {status, std::move(message)};
  }
};

inline constexpr char kMagicV1[8] = {'L', 'E', 'G', 'W', 'C', 'K', 'P', 'T'};
inline constexpr char kMagicV2[8] = {'L', 'E', 'G', 'W', 'C', 'K', 'P', '2'};
inline constexpr u32 kVersionV1 = 1;
inline constexpr u32 kVersionV2 = 2;

// Caps no legitimate checkpoint exceeds; values beyond them are bit flips or
// foreign data, not real sizes.
inline constexpr u32 kMaxNameLen = 1u << 16;
inline constexpr u64 kMaxNdim = 16;
inline constexpr i64 kMaxDim = 1ll << 32;

// Smallest encodings of one list entry, used to bound counts by the bytes
// left before any resize().
inline constexpr std::size_t kMinNamedTensorBytes = sizeof(u32) + sizeof(u64);
inline constexpr std::size_t kMinTensorBytes = sizeof(u64);
inline constexpr std::size_t kMinNamedI64Bytes = sizeof(u32) + sizeof(i64);

// ---- encoding ---------------------------------------------------------------

template <typename T>
void append_pod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}
void append_str(std::string& out, const std::string& s);
// `u64 ndim | i64 dims | float data`.
void append_tensor(std::string& out, const core::Tensor& t);
void append_named_tensor(std::string& out, const std::string& name,
                         const core::Tensor& t);

using NamedTensorRefs =
    std::vector<std::pair<std::string, const core::Tensor*>>;

// The whole v1 parameter file for `entries`.
std::string encode_v1(const NamedTensorRefs& entries);
// The whole v2 container: header, then each (name, payload) section with its
// length and CRC32, in the given order.
std::string encode_v2(
    const std::vector<std::pair<std::string, std::string>>& sections);

// ---- decoding ---------------------------------------------------------------

// Bounds-checked cursor over an in-memory image. Every read either succeeds
// completely or returns false and leaves the caller to report truncation.
struct Reader {
  const char* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  std::size_t remaining() const { return size - pos; }
  bool bytes(void* out, std::size_t n) {
    if (n > remaining()) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  template <typename T>
  bool pod(T* v) {
    return bytes(v, sizeof(T));
  }
  bool str(std::string* out);
  // Borrows `n` bytes from the image without copying; nullptr if short.
  const char* borrow(std::size_t n);
  // Reads a list count stored as T and rejects it when that many entries of
  // at least `min_entry` bytes each cannot fit in the bytes left.
  template <typename T>
  bool count(std::size_t* n, std::size_t min_entry) {
    T v = 0;
    if (!pod(&v) || v > remaining() / min_entry) return false;
    *n = static_cast<std::size_t>(v);
    return true;
  }
};

// A decoded tensor whose data still lives in the image.
struct TensorView {
  std::string name;  // empty for unnamed list entries
  core::Shape shape;
  i64 numel = 0;
  const char* bytes = nullptr;  // numel floats, possibly unaligned

  void copy_to(core::Tensor& dst) const {
    std::memcpy(dst.data(), bytes,
                static_cast<std::size_t>(numel) * sizeof(float));
  }
};

bool decode_tensor(Reader& r, bool named, TensorView* out);

// A `Count count | tensors...` list (Count is the on-disk width).
template <typename Count>
bool decode_tensors(Reader& r, bool named, std::vector<TensorView>* out) {
  std::size_t n = 0;
  if (!r.count<Count>(&n, named ? kMinNamedTensorBytes : kMinTensorBytes)) {
    return false;
  }
  out->resize(n);
  for (auto& t : *out) {
    if (!decode_tensor(r, named, &t)) return false;
  }
  return true;
}

// The `meta` section: `u32 n | (str key, i64 value)... | u32 n | (str key,
// str value)...`. Unknown keys are skipped.
struct Meta {
  i64 step = 0;
  i64 epoch = 0;
  i64 micro_step = 0;
  std::string optimizer;  // "" when trained without one
};
std::string encode_meta(const Meta& meta);
[[nodiscard]] Result decode_meta(Reader r, Meta* out);

// A whole file, parsed and integrity-checked.
struct Container {
  u32 version = 0;
  std::vector<TensorView> v1_params;       // version 1: the file's entries
  std::map<std::string, Reader> sections;  // version 2: payloads by name

  // The payload of section `name`, or nullptr when absent.
  const Reader* find(const std::string& name) const;
};

// Checks the magic and version, then decodes a v1 file's entries or walks a
// v2 header into its section map (CRC per section, no duplicates, no
// trailing bytes). Messages name the failing part but not the file; callers
// add their own context.
[[nodiscard]] Result parse_container(const std::string& image, Container* out);

// kTruncated naming the part of the file that failed to decode.
Result truncated(const std::string& what);

}  // namespace legw::ckpt
