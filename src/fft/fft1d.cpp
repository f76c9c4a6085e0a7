#include "fft/fft1d.hpp"

#include <cstring>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "fft/bluestein.hpp"
#include "fft/column_stages.hpp"
#include "fft/twiddle.hpp"

namespace nufft::fft {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

// One Stockham radix-2 stage: reads `src`, writes `dst`.
//   nn — remaining transform length at this stage (before the split)
//   s  — current stride / number of interleaved sub-transforms
// dst[q + s(2p)]   = src[q + s·p] + src[q + s(p+m)]
// dst[q + s(2p+1)] = (src[q + s·p] − src[q + s(p+m)]) · w_p
template <class T>
void stockham_stage(const std::complex<T>* src, std::complex<T>* dst, std::size_t nn,
                    std::size_t s, const std::complex<T>* tw) {
  const std::size_t m = nn / 2;
  for (std::size_t p = 0; p < m; ++p) {
    const std::complex<T> w = tw[p];
    const std::complex<T>* a = src + s * p;
    const std::complex<T>* b = src + s * (p + m);
    std::complex<T>* lo = dst + s * (2 * p);
    std::complex<T>* hi = dst + s * (2 * p + 1);
    for (std::size_t q = 0; q < s; ++q) {
      const std::complex<T> u = a[q];
      const std::complex<T> v = b[q];
      lo[q] = u + v;
      hi[q] = (u - v) * w;
    }
  }
}

// One Stockham radix-4 stage: one pass replaces two radix-2 stages, halving
// the memory traffic of the pow2 path. `tw` holds e^{sign·2πi·p/nn} for
// p < nn/4; the second and third twiddles are its square and cube.
// `sign` distinguishes the ±i rotation of the odd outputs.
template <class T>
void stockham_stage4(const std::complex<T>* src, std::complex<T>* dst, std::size_t nn,
                     std::size_t s, const std::complex<T>* tw, int sign) {
  const std::size_t m = nn / 4;
  for (std::size_t p = 0; p < m; ++p) {
    const std::complex<T> w1 = tw[p];
    const std::complex<T> w2 = w1 * w1;
    const std::complex<T> w3 = w2 * w1;
    const std::complex<T>* a = src + s * p;
    const std::complex<T>* b = src + s * (p + m);
    const std::complex<T>* c = src + s * (p + 2 * m);
    const std::complex<T>* d = src + s * (p + 3 * m);
    std::complex<T>* y0 = dst + s * (4 * p);
    std::complex<T>* y1 = dst + s * (4 * p + 1);
    std::complex<T>* y2 = dst + s * (4 * p + 2);
    std::complex<T>* y3 = dst + s * (4 * p + 3);
    for (std::size_t q = 0; q < s; ++q) {
      const std::complex<T> apc = a[q] + c[q];
      const std::complex<T> amc = a[q] - c[q];
      const std::complex<T> bpd = b[q] + d[q];
      const std::complex<T> bmd = b[q] - d[q];
      // sign·i·(b−d): the quarter-turn of the DFT-4 butterfly.
      const std::complex<T> jbmd =
          sign < 0 ? std::complex<T>(bmd.imag(), -bmd.real())
                   : std::complex<T>(-bmd.imag(), bmd.real());
      y0[q] = apc + bpd;
      y1[q] = (amc + jbmd) * w1;
      y2[q] = (apc - bpd) * w2;
      y3[q] = (amc - jbmd) * w3;
    }
  }
}

}  // namespace

template <class T>
struct Fft1d<T>::Impl {
  // Power-of-two path: per-stage twiddle tables on the stage's base length.
  // Radix-4 stages carry nn/4 twiddles, the optional final radix-2 stage
  // nn/2 (= 1 entry, nn == 2).
  std::vector<aligned_vector<std::complex<T>>> stage_tw;
  std::vector<int> stage_radix;
  // Arbitrary-length path.
  std::unique_ptr<BluesteinPlan<T>> bluestein;
};

template <class T>
Fft1d<T>::Fft1d(std::size_t n, Direction dir) : n_(n), dir_(dir), impl_(new Impl) {
  NUFFT_CHECK(n >= 1);
  const int sign = static_cast<int>(dir);
  if (is_pow2(n)) {
    // Prefer radix-4 stages; a single trailing radix-2 handles odd log2(n).
    for (std::size_t nn = n; nn > 1;) {
      if (nn % 4 == 0) {
        impl_->stage_tw.push_back(make_twiddles<T>(nn / 4, nn, sign));
        impl_->stage_radix.push_back(4);
        nn /= 4;
      } else {
        impl_->stage_tw.push_back(make_twiddles<T>(nn / 2, nn, sign));
        impl_->stage_radix.push_back(2);
        nn /= 2;
      }
    }
  } else {
    impl_->bluestein = std::make_unique<BluesteinPlan<T>>(n, sign);
  }
}

template <class T>
Fft1d<T>::~Fft1d() = default;
template <class T>
Fft1d<T>::Fft1d(Fft1d&&) noexcept = default;
template <class T>
Fft1d<T>& Fft1d<T>::operator=(Fft1d&&) noexcept = default;

template <class T>
std::size_t Fft1d<T>::scratch_size() const {
  if (impl_->bluestein) return impl_->bluestein->scratch_size();
  return n_;
}

template <class T>
void Fft1d<T>::transform(const std::complex<T>* in, std::complex<T>* out,
                         std::complex<T>* scratch) const {
  if (n_ == 1) {
    out[0] = in[0];
    return;
  }
  if (impl_->bluestein) {
    impl_->bluestein->transform(in, out, scratch);
    return;
  }

  const int stages = static_cast<int>(impl_->stage_radix.size());
  // Ping-pong between `out` and `scratch`; pick the first destination so the
  // final stage lands in `out`. When in == out the first stage must not
  // write over its own input, so it targets `scratch` and we fix up with a
  // copy if the parity leaves the result there.
  std::complex<T>* buf_a = out;      // destination of odd-numbered stages (1st, 3rd, ...)
  std::complex<T>* buf_b = scratch;  // destination of even-numbered stages
  bool copy_back = false;
  if (in == out) {
    buf_a = scratch;
    buf_b = out;
    copy_back = (stages % 2) != 0;  // odd stage count ends in scratch
  } else if (stages % 2 == 0) {
    buf_a = scratch;
    buf_b = out;
  }

  const int sign = static_cast<int>(dir_);
  const std::complex<T>* src = in;
  std::size_t nn = n_;
  std::size_t s = 1;
  for (int st = 0; st < stages; ++st) {
    std::complex<T>* dst = (st % 2 == 0) ? buf_a : buf_b;
    const std::complex<T>* tw = impl_->stage_tw[static_cast<std::size_t>(st)].data();
    if (impl_->stage_radix[static_cast<std::size_t>(st)] == 4) {
      stockham_stage4(src, dst, nn, s, tw, sign);
      nn /= 4;
      s *= 4;
    } else {
      stockham_stage(src, dst, nn, s, tw);
      nn /= 2;
      s *= 2;
    }
    src = dst;
  }
  if (copy_back) std::memcpy(out, src, n_ * sizeof(std::complex<T>));
}

template <class T>
std::complex<T>* Fft1d<T>::transform_columns(std::complex<T>* buf, std::complex<T>* alt,
                                             std::size_t cols, bool avx2_fma) const {
  NUFFT_CHECK(impl_->bluestein == nullptr);
  const int sign = static_cast<int>(dir_);
  std::size_t nn = n_;
  std::size_t sc = cols;
  for (std::size_t st = 0; st < impl_->stage_radix.size(); ++st) {
    const std::complex<T>* tw = impl_->stage_tw[st].data();
    const bool radix4 = impl_->stage_radix[st] == 4;
    if constexpr (std::is_same_v<T, float>) {
      if (radix4) {
        (avx2_fma ? stage4_cols_avx2 : stage4_cols)(buf, alt, nn, sc, tw, sign);
      } else {
        (avx2_fma ? stage2_cols_avx2 : stage2_cols)(buf, alt, nn, sc, tw);
      }
    } else {
      NUFFT_CHECK(!avx2_fma);
      if (radix4) {
        stockham_stage4(buf, alt, nn, sc, tw, sign);
      } else {
        stockham_stage(buf, alt, nn, sc, tw);
      }
    }
    nn /= static_cast<std::size_t>(impl_->stage_radix[st]);
    sc *= static_cast<std::size_t>(impl_->stage_radix[st]);
    std::swap(buf, alt);
  }
  return buf;
}

template <class T>
void Fft1d<T>::transform_inplace(std::complex<T>* data) {
  if (own_scratch_.size() < scratch_size()) own_scratch_.resize(scratch_size());
  transform(data, data, own_scratch_.data());
}

template class Fft1d<float>;
template class Fft1d<double>;

}  // namespace nufft::fft
