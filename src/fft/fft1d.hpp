// One-dimensional complex-to-complex FFT.
//
// The paper offloads its FFTs to Intel MKL; this repo carries its own plan-
// based implementation so the library is self-contained (see DESIGN.md §2).
//
//   * Power-of-two lengths run an iterative Stockham radix-2 autosort
//     network (no bit-reversal pass, ping-pong between two buffers).
//   * Every other length runs Bluestein's chirp-z algorithm on top of a
//     power-of-two plan (declared in bluestein.hpp).
//
// Transforms are unnormalized in both directions: forward computes
// X[k] = Σ x[n]·e^{-2πikn/N} and inverse uses e^{+2πikn/N}; callers apply
// 1/N where their convention requires it (the NUFFT folds it into the
// image-domain scaling map, as the paper's adjoint step 3 does).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>

#include "common/aligned.hpp"

namespace nufft::fft {

enum class Direction : int {
  kForward = -1,  // e^{-i 2π k n / N}
  kInverse = +1,  // e^{+i 2π k n / N}
};

/// Reusable transform plan for a fixed length and direction.
/// Thread-safe for concurrent transform() calls as long as each call uses
/// its own scratch (see scratch_size / transform with explicit scratch).
template <class T>
class Fft1d {
 public:
  /// Build a plan for length n (n >= 1). Non-power-of-two lengths are
  /// handled via Bluestein.
  Fft1d(std::size_t n, Direction dir);
  ~Fft1d();

  Fft1d(Fft1d&&) noexcept;
  Fft1d& operator=(Fft1d&&) noexcept;

  std::size_t size() const { return n_; }
  Direction direction() const { return dir_; }

  /// Number of complex<T> scratch elements a transform call needs.
  std::size_t scratch_size() const;

  /// Out-of-place transform; `in` and `out` may alias. `scratch` must hold
  /// scratch_size() elements and be distinct from in/out.
  void transform(const std::complex<T>* in, std::complex<T>* out,
                 std::complex<T>* scratch) const;

  /// Transform `cols` rows at once, stored element-interleaved: element k of
  /// row c at buf[k·cols + c] (fft/column_stages.hpp). Power-of-two plans
  /// only. The stages ping-pong between `buf` and `alt` (both n·cols
  /// elements); the return value is whichever holds the result. Each row's
  /// result is bit-identical to transform() on that row, except with
  /// `avx2_fma` (float only, cols a multiple of 4, CPU must support AVX2 and
  /// FMA), whose fused stages round differently. float needs an even `cols`.
  std::complex<T>* transform_columns(std::complex<T>* buf, std::complex<T>* alt,
                                     std::size_t cols, bool avx2_fma = false) const;

  /// Convenience in-place transform using internally allocated scratch
  /// (not safe for concurrent calls on the same plan).
  void transform_inplace(std::complex<T>* data);

 private:
  struct Impl;
  std::size_t n_;
  Direction dir_;
  std::unique_ptr<Impl> impl_;
  aligned_vector<std::complex<T>> own_scratch_;
};

/// True when n is a power of two (n >= 1).
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

}  // namespace nufft::fft
