#include "fft/column_stages.hpp"

#include "simd/vec4f.hpp"

namespace nufft::fft {

namespace {

using simd::Vec4f;

// Complex multiply of two packed (re, im) pairs by one twiddle held as
// wr = splat(w.re) and wi = (−w.im, w.im, −w.im, w.im):
//   x·w = x·wr + swap(x)·wi.
inline Vec4f cmul(Vec4f x, Vec4f wr, Vec4f wi) { return x * wr + x.swap_pairs() * wi; }

inline Vec4f wi_pattern(float im) { return Vec4f(-im, im, -im, im); }

}  // namespace

// One radix-2 Stockham stage over column-interleaved rows. `sc` is the
// sub-transform stride in complex elements (s · cols); the q loop covers the
// sc interleaved columns two complex at a time.
void stage2_cols(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                 const cfloat* tw) {
  const std::size_t m = nn / 2;
  for (std::size_t p = 0; p < m; ++p) {
    const cfloat w = tw[p];
    const Vec4f wr(w.real());
    const Vec4f wi = wi_pattern(w.imag());
    const auto* a = reinterpret_cast<const float*>(src + sc * p);
    const auto* b = reinterpret_cast<const float*>(src + sc * (p + m));
    auto* lo = reinterpret_cast<float*>(dst + sc * (2 * p));
    auto* hi = reinterpret_cast<float*>(dst + sc * (2 * p + 1));
    const std::size_t nf = 2 * sc;
    for (std::size_t q = 0; q < nf; q += 4) {
      const Vec4f u = Vec4f::loadu(a + q);
      const Vec4f v = Vec4f::loadu(b + q);
      (u + v).storeu(lo + q);
      cmul(u - v, wr, wi).storeu(hi + q);
    }
  }
}

// One radix-4 Stockham stage over column-interleaved rows; mirrors
// fft1d.cpp's stockham_stage4 with the stride scaled by the column count.
void stage4_cols(const cfloat* src, cfloat* dst, std::size_t nn, std::size_t sc,
                 const cfloat* tw, int sign) {
  const std::size_t m = nn / 4;
  const Vec4f jpat = sign < 0 ? Vec4f(1.0f, -1.0f, 1.0f, -1.0f) : Vec4f(-1.0f, 1.0f, -1.0f, 1.0f);
  for (std::size_t p = 0; p < m; ++p) {
    const cfloat w1 = tw[p];
    const cfloat w2 = w1 * w1;
    const cfloat w3 = w2 * w1;
    const Vec4f w1r(w1.real()), w1i = wi_pattern(w1.imag());
    const Vec4f w2r(w2.real()), w2i = wi_pattern(w2.imag());
    const Vec4f w3r(w3.real()), w3i = wi_pattern(w3.imag());
    const auto* a = reinterpret_cast<const float*>(src + sc * p);
    const auto* b = reinterpret_cast<const float*>(src + sc * (p + m));
    const auto* c = reinterpret_cast<const float*>(src + sc * (p + 2 * m));
    const auto* d = reinterpret_cast<const float*>(src + sc * (p + 3 * m));
    auto* y0 = reinterpret_cast<float*>(dst + sc * (4 * p));
    auto* y1 = reinterpret_cast<float*>(dst + sc * (4 * p + 1));
    auto* y2 = reinterpret_cast<float*>(dst + sc * (4 * p + 2));
    auto* y3 = reinterpret_cast<float*>(dst + sc * (4 * p + 3));
    const std::size_t nf = 2 * sc;
    for (std::size_t q = 0; q < nf; q += 4) {
      const Vec4f A = Vec4f::loadu(a + q);
      const Vec4f B = Vec4f::loadu(b + q);
      const Vec4f C = Vec4f::loadu(c + q);
      const Vec4f D = Vec4f::loadu(d + q);
      const Vec4f apc = A + C;
      const Vec4f amc = A - C;
      const Vec4f bpd = B + D;
      const Vec4f bmd = B - D;
      const Vec4f jb = bmd.swap_pairs() * jpat;  // sign·i·(b−d)
      (apc + bpd).storeu(y0 + q);
      cmul(amc + jb, w1r, w1i).storeu(y1 + q);
      cmul(apc - bpd, w2r, w2i).storeu(y2 + q);
      cmul(amc - jb, w3r, w3i).storeu(y3 + q);
    }
  }
}

}  // namespace nufft::fft
