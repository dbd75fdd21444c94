#include "serve/container.hpp"

#include <cstring>

#include "core/io.hpp"

namespace legw::serve {

namespace {

// Decodes the named-tensor list in section `name` into owned tensors.
Result own_section(const ckpt::Container& c, const char* name,
                   std::vector<NamedTensor>* out) {
  ckpt::Reader r = *c.find(name);
  std::vector<ckpt::TensorView> views;
  if (!ckpt::decode_tensors<u64>(r, /*named=*/true, &views)) {
    return ckpt::truncated(name);
  }
  out->reserve(views.size());
  for (const auto& v : views) {
    core::Tensor t = core::Tensor::uninit(v.shape);
    v.copy_to(t);
    out->push_back({v.name, std::move(t)});
  }
  return {};
}

const core::Tensor* find_in(const std::vector<NamedTensor>& list,
                            const std::string& name) {
  for (const auto& e : list) {
    if (e.name == name) return &e.tensor;
  }
  return nullptr;
}

}  // namespace

const core::Tensor* ModelImage::find_param(const std::string& name) const {
  return find_in(params, name);
}

const core::Tensor* ModelImage::find_buffer(const std::string& name) const {
  return find_in(buffers, name);
}

Result read_model_image_bytes(const std::string& image, ModelImage* out) {
  LEGW_CHECK(out != nullptr, "read_model_image: null output");
  if (image.size() >= sizeof ckpt::kMagicV1 &&
      std::memcmp(image.data(), ckpt::kMagicV1, sizeof ckpt::kMagicV1) == 0) {
    // v1 files carry parameters only. Training can restore them (ckpt::load
    // falls back), but serving needs the meta provenance and the buffer
    // section (BatchNorm running stats), so the failure names exactly what a
    // re-save under the v2 writer would add.
    return Result::error(Status::kMissingSection,
                         "v1 parameter-only checkpoint: serving requires the "
                         "v2 sections [meta, buffers]; re-save with "
                         "ckpt::save");
  }
  ckpt::Container c;
  Result res = ckpt::parse_container(image, &c);
  if (!res.ok()) return res;

  // Serving requires these three; collect every absence into one message so
  // the operator fixes the file once, not section by section.
  std::string missing;
  for (const char* required : {"meta", "params", "buffers"}) {
    if (c.find(required) == nullptr) {
      missing += missing.empty() ? "" : ", ";
      missing += required;
    }
  }
  if (!missing.empty()) {
    return Result::error(Status::kMissingSection,
                         "serve checkpoint missing required sections [" +
                             missing + "]");
  }

  ckpt::Meta meta;
  res = ckpt::decode_meta(*c.find("meta"), &meta);
  if (!res.ok()) return res;
  ModelImage staged;
  staged.step = meta.step;
  staged.epoch = meta.epoch;
  staged.optimizer = std::move(meta.optimizer);
  res = own_section(c, "params", &staged.params);
  if (res.ok()) res = own_section(c, "buffers", &staged.buffers);
  if (!res.ok()) return res;
  if (staged.params.empty()) {
    return Result::error(Status::kSchemaMismatch,
                         "serve checkpoint has an empty params section");
  }
  *out = std::move(staged);
  return {};
}

Result read_model_image(const std::string& path, ModelImage* out) {
  std::string image;
  const core::Status st = core::read_file(path, &image);
  if (!st.ok()) return Result::error(Status::kOpenFailed, st.message());
  Result res = read_model_image_bytes(image, out);
  if (!res.ok() && !res.message.empty()) res.message += " (" + path + ")";
  return res;
}

}  // namespace legw::serve
