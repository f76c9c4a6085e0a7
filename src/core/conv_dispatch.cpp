#include "core/conv_dispatch.hpp"

#include <cmath>
#include <cstdio>

#include "core/conv_variants.hpp"

namespace nufft {

const char* conv_backend_name(ConvBackend b) {
  switch (b) {
    case ConvBackend::kScalar:
      return "scalar";
    case ConvBackend::kSse:
      return "sse";
    case ConvBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

ConvDispatch::ConvDispatch() {
  // 3 backends × 3 dims × (runtime + 5 calibrated widths) × 2 evaluators.
  variants_.reserve(108);
  detail::append_scalar_variants(variants_);
  detail::append_sse_variants(variants_);
  detail::append_avx2_variants(variants_);
  for (ConvVariant& v : variants_) {
    const char* eval = v.key.eval == kernels::KernelEval::kHorner ? "horner" : "lut";
    char name[32];
    if (v.key.width2 == 0) {
      std::snprintf(name, sizeof(name), "%s.d%d.wany.%s", conv_backend_name(v.key.backend),
                    v.key.dim, eval);
    } else {
      std::snprintf(name, sizeof(name), "%s.d%d.w%d.%s", conv_backend_name(v.key.backend),
                    v.key.dim, v.key.width2, eval);
    }
    v.name = name;
  }
}

const ConvDispatch& ConvDispatch::instance() {
  static const ConvDispatch dispatch;
  return dispatch;
}

const ConvVariant* ConvDispatch::find(const ConvVariantKey& key) const {
  // 108 entries, plan-time only — a linear probe beats a hash table here.
  ConvVariantKey runtime = key;
  runtime.width2 = 0;
  const ConvVariant* fallback = nullptr;
  for (const ConvVariant& v : variants_) {
    if (v.key == key) return &v;
    if (v.key == runtime) fallback = &v;
  }
  return fallback;
}

std::uint8_t conv_width2(double kernel_radius) {
  const double doubled = 2.0 * kernel_radius;
  const double rounded = std::nearbyint(doubled);
  if (doubled != rounded) return 0;  // not half-integer → runtime width
  if (rounded < ConvDispatch::kMinWidth2 || rounded > ConvDispatch::kMaxWidth2) return 0;
  return static_cast<std::uint8_t>(rounded);
}

}  // namespace nufft
