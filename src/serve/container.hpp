// The serving runtime's view of a checkpoint file.
//
// The serving path (src/serve) is deliberately tape-free: it links only
// legw_core + legw_mem + legw_obs and the leaf container codec
// (ckpt/container.hpp, itself on legw_core alone), never the autograd/nn/
// ckpt training stack (tools/lint.py's serve-no-tape rule enforces this
// statically). The codec parses and CRC-checks the whole file exactly as
// ckpt::load does; this layer adds serving's policy on top: which sections
// are required, and owned copies of the tensors.
//
// Serving requires a *full-state* v2 checkpoint: `meta` (provenance),
// `params` and `buffers` (inference-mode BatchNorm needs the running stats a
// v1 parameter-only file does not carry). A v1 file or a v2 container
// missing those sections is rejected with kMissingSection naming exactly
// what is absent.
#pragma once

#include <string>
#include <vector>

#include "ckpt/container.hpp"
#include "core/tensor.hpp"

namespace legw::serve {

// One status taxonomy for checkpoints and serving.
using Status = ckpt::Status;
using Result = ckpt::Result;
using ckpt::status_name;

struct NamedTensor {
  std::string name;
  core::Tensor tensor;
};

// Everything serving needs out of a checkpoint: trained parameters,
// non-trainable buffers, and provenance counters. Tensors are heap-owned
// copies of the file bytes (the image outlives any step arena).
struct ModelImage {
  std::vector<NamedTensor> params;   // file order == module registration order
  std::vector<NamedTensor> buffers;
  i64 step = 0;
  i64 epoch = 0;
  std::string optimizer;  // informational ("" when trained without one)

  // nullptr when absent.
  const core::Tensor* find_param(const std::string& name) const;
  const core::Tensor* find_buffer(const std::string& name) const;
};

// Validating reader over a file on disk.
[[nodiscard]] Result read_model_image(const std::string& path,
                                      ModelImage* out);

// Same, over an in-memory byte image — the corruption-corpus tests mutate
// bytes directly and must exercise the identical decode path.
[[nodiscard]] Result read_model_image_bytes(const std::string& image,
                                            ModelImage* out);

}  // namespace legw::serve
