#include "nn/serialize.hpp"

#include "core/io.hpp"

namespace legw::nn {

ckpt::Result save_checkpoint(const Module& module, const std::string& path) {
  ckpt::NamedTensorRefs entries;
  for (const auto& p : module.named_parameters()) {
    entries.emplace_back(p.name, &p.var.value());
  }
  const core::Status st =
      core::atomic_write_file(path, ckpt::encode_v1(entries));
  if (!st.ok()) {
    return ckpt::Result::error(ckpt::Status::kWriteFailed,
                               "nn::save_checkpoint: " + st.message());
  }
  return {};
}

}  // namespace legw::nn
