// Unit and property tests for the FFT substrate: Stockham power-of-two path,
// Bluestein arbitrary-length path, multi-dimensional row-column transform.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fft/fft1d.hpp"
#include "fft/fftnd.hpp"
#include "fft/twiddle.hpp"
#include "parallel/thread_pool.hpp"

namespace nufft::fft {
namespace {

// O(n²) reference DFT in double precision.
template <class T>
std::vector<cdouble> naive_dft(const std::complex<T>* in, std::size_t n, int sign) {
  std::vector<cdouble> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cdouble acc(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const double a = sign * kTwoPi * static_cast<double>(k) * static_cast<double>(j) /
                       static_cast<double>(n);
      acc += cdouble(in[j].real(), in[j].imag()) * cdouble(std::cos(a), std::sin(a));
    }
    out[k] = acc;
  }
  return out;
}

template <class T>
aligned_vector<std::complex<T>> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  aligned_vector<std::complex<T>> v(n);
  for (auto& x : v) {
    x = std::complex<T>(static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1)));
  }
  return v;
}

template <class T>
double rel_err_vs(const std::complex<T>* got, const std::vector<cdouble>& want) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const cdouble d = cdouble(got[i].real(), got[i].imag()) - want[i];
    num += std::norm(d);
    den += std::norm(want[i]);
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

TEST(Twiddle, UnitCircleValues) {
  auto tw = make_twiddles<double>(8, 8, -1);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(std::abs(tw[k]), 1.0, 1e-15);
    EXPECT_NEAR(std::arg(tw[k]), std::remainder(-kTwoPi * k / 8.0, kTwoPi), 1e-12);
  }
}

TEST(Fft1d, LengthOneIsIdentity) {
  Fft1d<double> plan(1, Direction::kForward);
  cdouble in(3, -4), out(0, 0);
  aligned_vector<cdouble> scratch(plan.scratch_size() + 1);
  plan.transform(&in, &out, scratch.data());
  EXPECT_EQ(out, in);
}

TEST(Fft1d, IsPow2Helper) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(640));
}

TEST(Fft1d, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(640), 1024u);
}

// ---- parameterized accuracy sweep over lengths (pow2 and Bluestein) ----

class FftLength : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftLength, ForwardMatchesNaiveDftDouble) {
  const std::size_t n = GetParam();
  auto sig = random_signal<double>(n, 100 + n);
  Fft1d<double> plan(n, Direction::kForward);
  aligned_vector<cdouble> out(n), scratch(plan.scratch_size());
  plan.transform(sig.data(), out.data(), scratch.data());
  EXPECT_LT(rel_err_vs(out.data(), naive_dft(sig.data(), n, -1)), 1e-11) << "n=" << n;
}

TEST_P(FftLength, InverseMatchesNaiveDftDouble) {
  const std::size_t n = GetParam();
  auto sig = random_signal<double>(n, 200 + n);
  Fft1d<double> plan(n, Direction::kInverse);
  aligned_vector<cdouble> out(n), scratch(plan.scratch_size());
  plan.transform(sig.data(), out.data(), scratch.data());
  EXPECT_LT(rel_err_vs(out.data(), naive_dft(sig.data(), n, +1)), 1e-11) << "n=" << n;
}

TEST_P(FftLength, SinglePrecisionAccuracy) {
  const std::size_t n = GetParam();
  auto sig = random_signal<float>(n, 300 + n);
  Fft1d<float> plan(n, Direction::kForward);
  aligned_vector<cfloat> out(n), scratch(plan.scratch_size());
  plan.transform(sig.data(), out.data(), scratch.data());
  EXPECT_LT(rel_err_vs(out.data(), naive_dft(sig.data(), n, -1)), 2e-5) << "n=" << n;
}

TEST_P(FftLength, RoundTripRecoversSignal) {
  const std::size_t n = GetParam();
  auto sig = random_signal<double>(n, 400 + n);
  Fft1d<double> fwd(n, Direction::kForward);
  Fft1d<double> inv(n, Direction::kInverse);
  aligned_vector<cdouble> mid(n), back(n);
  aligned_vector<cdouble> scratch(std::max(fwd.scratch_size(), inv.scratch_size()));
  fwd.transform(sig.data(), mid.data(), scratch.data());
  inv.transform(mid.data(), back.data(), scratch.data());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(back[i].real() / static_cast<double>(n), sig[i].real(), 1e-11);
    ASSERT_NEAR(back[i].imag() / static_cast<double>(n), sig[i].imag(), 1e-11);
  }
}

TEST_P(FftLength, InPlaceMatchesOutOfPlace) {
  const std::size_t n = GetParam();
  auto sig = random_signal<double>(n, 500 + n);
  Fft1d<double> plan(n, Direction::kForward);
  aligned_vector<cdouble> out(n), scratch(plan.scratch_size());
  plan.transform(sig.data(), out.data(), scratch.data());
  aligned_vector<cdouble> inplace = sig;
  plan.transform_inplace(inplace.data());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(std::abs(inplace[i] - out[i]), 0.0, 1e-12);
  }
}

TEST_P(FftLength, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto sig = random_signal<double>(n, 600 + n);
  Fft1d<double> plan(n, Direction::kForward);
  aligned_vector<cdouble> out(n), scratch(plan.scratch_size());
  plan.transform(sig.data(), out.data(), scratch.data());
  double e_time = 0, e_freq = 0;
  for (std::size_t i = 0; i < n; ++i) {
    e_time += std::norm(sig[i]);
    e_freq += std::norm(out[i]);
  }
  EXPECT_NEAR(e_freq, e_time * static_cast<double>(n), 1e-8 * e_freq + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftLength,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 12, 13, 16, 30, 32, 64, 100, 128,
                                           160, 240, 256, 320, 344, 480, 512, 640),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

TEST(Fft1d, LinearityProperty) {
  const std::size_t n = 128;
  auto a = random_signal<double>(n, 1);
  auto b = random_signal<double>(n, 2);
  const cdouble alpha(1.5, -0.5), beta(-2.0, 0.25);
  Fft1d<double> plan(n, Direction::kForward);
  aligned_vector<cdouble> fa(n), fb(n), fc(n), combo(n), scratch(plan.scratch_size());
  plan.transform(a.data(), fa.data(), scratch.data());
  plan.transform(b.data(), fb.data(), scratch.data());
  for (std::size_t i = 0; i < n; ++i) combo[i] = alpha * a[i] + beta * b[i];
  plan.transform(combo.data(), fc.data(), scratch.data());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(std::abs(fc[i] - (alpha * fa[i] + beta * fb[i])), 0.0, 1e-10);
  }
}

TEST(Fft1d, ImpulseGivesFlatSpectrum) {
  const std::size_t n = 64;
  aligned_vector<cdouble> sig(n, cdouble(0, 0));
  sig[0] = cdouble(1, 0);
  Fft1d<double> plan(n, Direction::kForward);
  aligned_vector<cdouble> out(n), scratch(plan.scratch_size());
  plan.transform(sig.data(), out.data(), scratch.data());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(out[i].real(), 1.0, 1e-12);
    ASSERT_NEAR(out[i].imag(), 0.0, 1e-12);
  }
}

TEST(Fft1d, ShiftedImpulseGivesTwiddleRamp) {
  const std::size_t n = 32;
  aligned_vector<cdouble> sig(n, cdouble(0, 0));
  sig[1] = cdouble(1, 0);
  Fft1d<double> plan(n, Direction::kForward);
  aligned_vector<cdouble> out(n), scratch(plan.scratch_size());
  plan.transform(sig.data(), out.data(), scratch.data());
  for (std::size_t k = 0; k < n; ++k) {
    const double a = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    ASSERT_NEAR(out[k].real(), std::cos(a), 1e-12);
    ASSERT_NEAR(out[k].imag(), std::sin(a), 1e-12);
  }
}

// ---- multi-dimensional ----

TEST(FftNd, TwoDMatchesSeparableNaive) {
  const std::size_t n0 = 12, n1 = 16;
  auto sig = random_signal<double>(n0 * n1, 7);
  FftNd<double> plan({n0, n1}, Direction::kForward);
  aligned_vector<cdouble> data = sig;
  plan.transform(data.data());
  // Naive 2D DFT.
  for (std::size_t k0 = 0; k0 < n0; ++k0) {
    for (std::size_t k1 = 0; k1 < n1; ++k1) {
      cdouble acc(0, 0);
      for (std::size_t j0 = 0; j0 < n0; ++j0) {
        for (std::size_t j1 = 0; j1 < n1; ++j1) {
          const double a = -kTwoPi * (static_cast<double>(k0 * j0) / n0 +
                                      static_cast<double>(k1 * j1) / n1);
          acc += sig[j0 * n1 + j1] * cdouble(std::cos(a), std::sin(a));
        }
      }
      ASSERT_NEAR(std::abs(data[k0 * n1 + k1] - acc), 0.0, 1e-9);
    }
  }
}

TEST(FftNd, ThreeDRoundTrip) {
  const std::size_t n = 8;
  auto sig = random_signal<float>(n * n * n, 9);
  FftNd<float> fwd({n, n, n}, Direction::kForward);
  FftNd<float> inv({n, n, n}, Direction::kInverse);
  aligned_vector<cfloat> data = sig;
  fwd.transform(data.data());
  inv.transform(data.data());
  const float scale = static_cast<float>(n * n * n);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_NEAR(data[i].real() / scale, sig[i].real(), 1e-5);
    ASSERT_NEAR(data[i].imag() / scale, sig[i].imag(), 1e-5);
  }
}

TEST(FftNd, AnisotropicDimsRoundTrip) {
  const std::size_t d0 = 4, d1 = 10, d2 = 16;
  auto sig = random_signal<double>(d0 * d1 * d2, 10);
  FftNd<double> fwd({d0, d1, d2}, Direction::kForward);
  FftNd<double> inv({d0, d1, d2}, Direction::kInverse);
  aligned_vector<cdouble> data = sig;
  fwd.transform(data.data());
  inv.transform(data.data());
  const double scale = static_cast<double>(d0 * d1 * d2);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_NEAR(std::abs(data[i] / scale - sig[i]), 0.0, 1e-11);
  }
}

TEST(FftNd, ThreadCountDoesNotChangeResult) {
  const std::size_t n = 16;
  auto sig = random_signal<float>(n * n * n, 11);
  FftNd<float> plan({n, n, n}, Direction::kForward);

  aligned_vector<cfloat> serial = sig;
  plan.transform(serial.data());

  for (int threads : {2, 4, 7}) {
    ThreadPool pool(threads);
    aligned_vector<cfloat> parallel = sig;
    plan.transform(parallel.data(), pool);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i], serial[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(FftNd, SeparableImpulseIn3d) {
  const std::size_t n = 8;
  aligned_vector<cdouble> data(n * n * n, cdouble(0, 0));
  data[0] = cdouble(1, 0);
  FftNd<double> plan({n, n, n}, Direction::kForward);
  plan.transform(data.data());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_NEAR(data[i].real(), 1.0, 1e-12);
    ASSERT_NEAR(data[i].imag(), 0.0, 1e-12);
  }
}

TEST(FftNd, OneDimensionalDegenerateCase) {
  const std::size_t n = 64;
  auto sig = random_signal<double>(n, 12);
  FftNd<double> plan({n}, Direction::kForward);
  aligned_vector<cdouble> data = sig;
  plan.transform(data.data());
  EXPECT_LT(rel_err_vs(data.data(), naive_dft(sig.data(), n, -1)), 1e-12);
}

// ---- column-blocked and pruned passes ----

// The row-column walk done the slow way: every row of every axis (last axis
// first, as FftNd walks them) gathered and run through Fft1d::transform.
template <class T>
void per_row_reference(const std::vector<std::size_t>& dims, Direction dir,
                       std::complex<T>* data) {
  std::size_t total = 1;
  for (const std::size_t d : dims) total *= d;
  for (std::size_t a = dims.size(); a-- > 0;) {
    const std::size_t len = dims[a];
    std::size_t inner = 1;
    for (std::size_t b = a + 1; b < dims.size(); ++b) inner *= dims[b];
    const Fft1d<T> plan(len, dir);
    aligned_vector<std::complex<T>> row(len), fs(plan.scratch_size());
    for (std::size_t o = 0; o < total / (len * inner); ++o) {
      for (std::size_t i = 0; i < inner; ++i) {
        std::complex<T>* base = data + o * len * inner + i;
        for (std::size_t k = 0; k < len; ++k) row[k] = base[k * inner];
        plan.transform(row.data(), row.data(), fs.data());
        for (std::size_t k = 0; k < len; ++k) base[k * inner] = row[k];
      }
    }
  }
}

std::size_t total_of(const std::vector<std::size_t>& dims) {
  std::size_t t = 1;
  for (const std::size_t d : dims) t *= d;
  return t;
}

// Run `body(dir, pool)` for both directions and pool widths 1/2/4, so one
// test body covers every combination.
template <class Body>
void for_both_directions_and_pools(Body&& body) {
  for (const Direction dir : {Direction::kForward, Direction::kInverse}) {
    for (const int threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      SCOPED_TRACE(::testing::Message() << (dir == Direction::kForward ? "forward" : "inverse")
                                        << " threads=" << threads);
      body(dir, pool);
    }
  }
}

template <class T>
void expect_blocked_matches_rows(const std::vector<std::size_t>& dims) {
  const auto sig = random_signal<T>(total_of(dims), 31);
  for_both_directions_and_pools([&](Direction dir, ThreadPool& pool) {
    aligned_vector<std::complex<T>> want = sig;
    per_row_reference(dims, dir, want.data());
    aligned_vector<std::complex<T>> got = sig;
    FftNd<T>(dims, dir).transform(got.data(), pool);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(std::complex<T>)), 0);
  });
}

TEST(FftNdBlocked, OneDimensional) {
  expect_blocked_matches_rows<float>({64});
  expect_blocked_matches_rows<double>({64});
}

TEST(FftNdBlocked, TwoDimensional) {
  expect_blocked_matches_rows<float>({32, 64});
  expect_blocked_matches_rows<double>({32, 64});
}

TEST(FftNdBlocked, ThreeDimensional) {
  expect_blocked_matches_rows<float>({16, 16, 16});
  expect_blocked_matches_rows<double>({16, 16, 16});
}

TEST(FftNdBlocked, Anisotropic) {
  expect_blocked_matches_rows<float>({8, 64, 2});
  expect_blocked_matches_rows<float>({2, 4, 128});
}

TEST(FftNdBlocked, BlockTailsNotAMultipleOfEight) {
  // Blocks of 8 rows leave tails of 4 (20 = 8 + 8 + 4) and, for the float
  // path's even column count, an odd tail of 5 padded with a zero column.
  expect_blocked_matches_rows<float>({12, 20, 24});
  expect_blocked_matches_rows<float>({20, 16});
  expect_blocked_matches_rows<float>({16, 32, 13});
  expect_blocked_matches_rows<double>({16, 32, 13});
}

TEST(FftNdBlocked, BluesteinAxis) {
  // The middle axis (12) runs row by row through Bluestein; the
  // power-of-two axes around it block along it and along the last axis.
  expect_blocked_matches_rows<float>({16, 12, 32});
}

// The NUFFT's support: per dimension the wrapped image indices of an n-wide
// image on an m-point grid, [0, n − n/2) ∪ [m − n/2, m). For odd n the two
// corner runs differ in length.
std::vector<std::vector<index_t>> corner_support(const std::vector<std::size_t>& m,
                                                 const std::vector<std::size_t>& n) {
  std::vector<std::vector<index_t>> s(m.size());
  for (std::size_t d = 0; d < m.size(); ++d) {
    const auto md = static_cast<index_t>(m[d]);
    const auto nd = static_cast<index_t>(n[d]);
    for (index_t i = 0; i < nd - nd / 2; ++i) s[d].push_back(i);
    for (index_t i = md - nd / 2; i < md; ++i) s[d].push_back(i);
  }
  return s;
}

bool in_support(std::size_t flat, const std::vector<std::size_t>& dims,
                const std::vector<std::vector<index_t>>& support) {
  for (std::size_t d = dims.size(); d-- > 0;) {
    const auto c = static_cast<index_t>(flat % dims[d]);
    flat /= dims[d];
    const auto& rows = support[d];
    if (!std::binary_search(rows.begin(), rows.end(), c)) return false;
  }
  return true;
}

void expect_pruned_matches_full(const std::vector<std::size_t>& dims,
                                const std::vector<std::size_t>& image) {
  const auto support = corner_support(dims, image);
  const auto sig = random_signal<float>(total_of(dims), 37);
  for_both_directions_and_pools([&](Direction dir, ThreadPool& pool) {
    const FftNd<float> plan(dims, dir, support);
    aligned_vector<cfloat> input = sig;
    if (dir == Direction::kForward) {
      // The forward contract: the input is zero outside the support box.
      for (std::size_t i = 0; i < input.size(); ++i) {
        if (!in_support(i, dims, support)) input[i] = cfloat(0.0f, 0.0f);
      }
    }
    aligned_vector<cfloat> full = input;
    plan.transform(full.data(), pool);
    aligned_vector<cfloat> pruned = input;
    plan.transform_pruned(pruned.data(), pool);
    std::size_t checked = 0;
    for (std::size_t i = 0; i < full.size(); ++i) {
      // Forward: every cell; inverse: the support cells only.
      if (dir == Direction::kInverse && !in_support(i, dims, support)) continue;
      ASSERT_EQ(pruned[i], full[i]) << "cell " << i;
      ++checked;
    }
    EXPECT_GT(checked, 0u);
  });
}

TEST(FftNdPruned, MatchesFullOnSupportCells) {
  expect_pruned_matches_full({64}, {21});
  expect_pruned_matches_full({32, 16}, {16, 8});
  expect_pruned_matches_full({32, 16}, {13, 7});
  expect_pruned_matches_full({16, 32, 16}, {8, 16, 8});
  expect_pruned_matches_full({16, 24, 32}, {7, 11, 15});
}

TEST(FftNdPruned, FullSupportIsTheFullTransform) {
  const std::vector<std::size_t> dims{8, 16, 32};
  const auto sig = random_signal<float>(total_of(dims), 41);
  for_both_directions_and_pools([&](Direction dir, ThreadPool& pool) {
    const FftNd<float> plan(dims, dir);
    aligned_vector<cfloat> full = sig;
    plan.transform(full.data(), pool);
    aligned_vector<cfloat> pruned = sig;
    plan.transform_pruned(pruned.data(), pool);
    EXPECT_EQ(std::memcmp(full.data(), pruned.data(), full.size() * sizeof(cfloat)), 0);
  });
}

TEST(FftNdPruned, RejectsMalformedSupport) {
  EXPECT_THROW(FftNd<float>({8, 8}, Direction::kForward, {{0, 1}}), Error);
  EXPECT_THROW(FftNd<float>({8, 8}, Direction::kForward, {{0, 1}, {3, 2}}), Error);
  EXPECT_THROW(FftNd<float>({8, 8}, Direction::kForward, {{0, 8}, {0}}), Error);
}

}  // namespace
}  // namespace nufft::fft
