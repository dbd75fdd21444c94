// Parameter-only checkpoint writer: a Module's named parameters in the
// version-1 file format (ckpt/container.hpp has the layout). ckpt::load
// restores these files into a module all-or-nothing, matching entries by
// name and shape; full training state (optimizer, RNG, counters) needs the
// v2 container that ckpt::save writes.
#pragma once

#include <string>

#include "ckpt/container.hpp"
#include "nn/module.hpp"

namespace legw::nn {

// Writes every named parameter of `module` to `path` atomically
// (tmp + fsync + rename via core::AtomicFile): a crash mid-save never
// corrupts an existing checkpoint at `path`. Fails with kWriteFailed.
[[nodiscard]] ckpt::Result save_checkpoint(const Module& module,
                                           const std::string& path);

}  // namespace legw::nn
