#include "mri/recon.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "mri/coils.hpp"

namespace nufft::mri {

MultichannelRecon::MultichannelRecon(Nufft& plan, std::vector<cvecf> coil_maps)
    : plan_(plan),
      maps_(std::move(coil_maps)),
      batch_(plan, static_cast<index_t>(maps_.size())) {
  NUFFT_CHECK(!maps_.empty());
  const auto n = static_cast<std::size_t>(plan_.image_elems());
  for (const auto& m : maps_) NUFFT_CHECK(m.size() == n);
  tmp_images_.resize(maps_.size() * n);
  tmp_adjs_.resize(maps_.size() * n);
  tmp_raws_.resize(maps_.size() * static_cast<std::size_t>(plan_.sample_count()));
}

std::vector<cvecf> MultichannelRecon::simulate(const cfloat* truth) {
  const index_t n = plan_.image_elems();
  const auto coils = static_cast<index_t>(maps_.size());
  std::vector<cvecf> data(maps_.size());
  std::vector<const cfloat*> in(maps_.size());
  std::vector<cfloat*> out(maps_.size());
  for (std::size_t c = 0; c < maps_.size(); ++c) {
    cfloat* img = tmp_images_.data() + c * static_cast<std::size_t>(n);
    apply_coil(maps_[c].data(), truth, img, n);
    data[c].resize(static_cast<std::size_t>(plan_.sample_count()));
    in[c] = img;
    out[c] = data[c].data();
  }
  batch_.forward(in.data(), out.data(), coils);
  return data;
}

void MultichannelRecon::normal_op(const cfloat* in, cfloat* out) {
  const index_t n = plan_.image_elems();
  const auto coils = static_cast<index_t>(maps_.size());
  zero_complex(out, static_cast<std::size_t>(n));
  for (std::size_t c = 0; c < maps_.size(); ++c) {
    apply_coil(maps_[c].data(), in, tmp_images_.data() + c * static_cast<std::size_t>(n), n);
  }
  // One batched fwd+adj pass covers every coil: the batch dimension is the
  // coil index.
  batch_.forward(tmp_images_.data(), tmp_raws_.data(), coils);
  batch_.adjoint(tmp_raws_.data(), tmp_adjs_.data(), coils);
  for (std::size_t c = 0; c < maps_.size(); ++c) {
    accumulate_coil_adjoint(maps_[c].data(),
                            tmp_adjs_.data() + c * static_cast<std::size_t>(n), out, n);
    pair_calls_ += 1.0;
  }
}

ReconResult MultichannelRecon::reconstruct(const std::vector<cvecf>& data, const CgOptions& opt) {
  NUFFT_CHECK(data.size() == maps_.size());
  const index_t n = plan_.image_elems();
  const auto coils = static_cast<index_t>(maps_.size());
  ReconResult result;
  result.image.resize(static_cast<std::size_t>(n));

  Timer t;
  // rhs = Aᴴ b = Σ_c conj(S_c) ⊙ adjoint(data_c), adjoints batched over coils
  rhs_.assign(static_cast<std::size_t>(n), cfloat(0.0f, 0.0f));
  {
    std::vector<const cfloat*> in(maps_.size());
    std::vector<cfloat*> out(maps_.size());
    for (std::size_t c = 0; c < maps_.size(); ++c) {
      in[c] = data[c].data();
      out[c] = tmp_adjs_.data() + c * static_cast<std::size_t>(n);
    }
    batch_.adjoint(in.data(), out.data(), coils);
  }
  for (std::size_t c = 0; c < maps_.size(); ++c) {
    accumulate_coil_adjoint(maps_[c].data(),
                            tmp_adjs_.data() + c * static_cast<std::size_t>(n), rhs_.data(), n);
  }

  pair_calls_ = 0.0;
  result.cg = conjugate_gradient([this](const cfloat* in, cfloat* out) { normal_op(in, out); },
                                 rhs_.data(), result.image.data(), n, opt, cg_ws_);
  result.seconds = t.seconds();
  result.nufft_calls = pair_calls_;
  return result;
}

}  // namespace nufft::mri
