#include "signal/plan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <list>
#include <mutex>
#include <numbers>
#include <unordered_map>
#include <utility>

#include "util/annotated.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ftio::signal {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// The planar aliasing contract shared by every planar entry point: an
/// input lane and an output lane must either be the same array (full
/// alias, the documented in-place form) or not overlap at all. Partial
/// overlap silently corrupts the permuted gather, so Debug/sanitizer
/// builds reject it here instead of producing a plausible wrong
/// spectrum.
inline bool alias_full_or_disjoint(const double* in, const double* out,
                                   std::size_t n) {
  if (in == out) return true;
  return in + n <= out || out + n <= in;
}

/// exp(-2*pi*i*k/n) with the quarter-period points snapped to their exact
/// values. sin(pi) rounds to ~1.22e-16 rather than 0, and that residue
/// multiplied into a nonzero bin turns an exactly-zero spectrum line into
/// noise (visible on constant signals, whose off-DC bins cancel exactly).
/// The power-of-two tables keep this one-evaluation-per-root form: their
/// few sizes stay cached, and their bits are the ones every FFT
/// autocorrelation runs on.
Complex unit_root(std::size_t k, std::size_t n) {
  if (k == 0) return Complex(1.0, 0.0);
  if (4 * k == n) return Complex(0.0, -1.0);
  if (2 * k == n) return Complex(-1.0, 0.0);
  if (4 * k == 3 * n) return Complex(0.0, 1.0);
  const double angle = -kTwoPi * static_cast<double>(k) /
                       static_cast<double>(n);
  return Complex(std::cos(angle), std::sin(angle));
}

/// w_j = exp(-2*pi*i*j/n) for j in [0, n/2] into re/im (resized to
/// n/2 + 1). Only the fundamental domain of the root symmetries pays a
/// cos/sin evaluation — [0, n/8] when 4 divides n, [0, n/4] for other
/// even n, [0, n/2] for odd n — and every other root is a sign change or
/// a cos/sin swap of one of those: w_{n/4-j} = (-Im w_j, -Re w_j) and
/// w_{n/2-j} = (-Re w_j, Im w_j). The quarter-period points come out
/// exact, as in unit_root. The value at j depends only on (j, n), so two
/// tables of the same n agree bit for bit whichever plan built them.
/// Roots past n/2 are the conjugates w_{n-j} = conj(w_j). Every table
/// except the power-of-two ones is built this way.
void half_unit_roots(std::size_t n, std::vector<double>& re,
                     std::vector<double>& im) {
  const std::size_t half = n / 2;
  re.resize(half + 1);
  im.resize(half + 1);
  const std::size_t domain =
      n % 4 == 0 ? n / 8 : (n % 2 == 0 ? n / 4 : half);
  for (std::size_t j = 0; j <= domain; ++j) {
    const double angle =
        kTwoPi * static_cast<double>(j) / static_cast<double>(n);
    re[j] = std::cos(angle);
    im[j] = -std::sin(angle);
  }
  if (n % 2 != 0) return;
  std::size_t j = domain + 1;
  if (n % 4 == 0) {
    for (; j <= n / 4; ++j) {
      re[j] = -im[n / 4 - j];
      im[j] = -re[n / 4 - j];
    }
  }
  for (; j <= half; ++j) {
    re[j] = -re[half - j];
    im[j] = im[half - j];
  }
}

/// Bit-reversal permutation for a power-of-two n, the classic in-place
/// increment loop stored once. Shared by the plan constructor and the
/// detail:: reference tables (the kernels are independent; the
/// permutation is just data).
std::vector<std::uint32_t> build_bitrev(std::size_t n) {
  std::vector<std::uint32_t> bitrev(n);
  if (n < 2) return bitrev;
  bitrev[0] = 0;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev[i] = static_cast<std::uint32_t>(j);
  }
  return bitrev;
}

/// Calls fn(p) for every node of length `len` in the split-radix
/// recursion tree over a size-n root — the classic is/id block
/// enumeration (Sorensen et al.): positions of size-len sub-transforms
/// in bit-reversed data are exactly these scattered arithmetic runs.
template <class Fn>
void for_each_split_node(std::size_t n, std::size_t len, Fn&& fn) {
  std::size_t ix = 0;
  std::size_t id = 2 * len;
  while (ix < n) {
    for (std::size_t p = ix; p < n; p += id) fn(p);
    ix = 2 * id - len;
    id *= 4;
  }
}

/// Per-thread scratch. Each member is dedicated to one call site so that
/// nested transforms (forward_real_half_planar -> half plan -> chirp-z
/// -> direct core) never step on each other's buffer:
///   re/im   — the bit-reversed lanes the split core runs on: the packed
///             real path's N/2 signal, the chirp-z convolution, and the
///             full spectrum of the N = 3, 5 real transforms
///   re2/im2 — secondary planar scratch: the linear-order side of the
///             chirp-z convolution, the linearised fold of the
///             inverse-real path (blocked powers of two and r * 2^k
///             halves), and the copy that makes the in-place direct
///             entry points alias-safe
///   hre/him — the packed N/2 signal (and its spectrum, in place) of an
///             even N whose half runs chirp-z, the rebuilt full spectrum
///             of the odd-N real inverse, and the zero imaginary lane of
///             the N = 3, 5 real forward
/// Buffers only grow, so steady-state transforms do no allocation at all.
struct Workspace {
  std::vector<double> re;
  std::vector<double> im;
  std::vector<double> re2;
  std::vector<double> im2;
  std::vector<double> bre;  ///< transposed batch-tile lanes (batch entry
  std::vector<double> bim;  ///  points only; never nested)
  std::vector<double> hre;
  std::vector<double> him;
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

// ---------------------------------------------------------------------------
// Bit-reversal permutation: simple and cache-blocked (COBRA) forms
// ---------------------------------------------------------------------------

constexpr std::size_t kTileBits = 5;
constexpr std::size_t kTile = std::size_t{1} << kTileBits;  // 32x32 tiles

/// Blocked out[i] = in[bitrev[i]] for n >= 2^(2*kTileBits). Index i is
/// split (hi:mid:lo) with kTileBits hi/lo bits; for each mid value the
/// 32x32 (hi, lo) tile is gathered with stride-1 reads, transposed
/// through an L1-resident buffer, and written with stride-1 stores —
/// both big arrays stream one 256-byte run at a time instead of striding
/// across the whole array per element (Carter & Gatlin's COBRA).
void permute_planar_blocked(const std::uint32_t* bitrev, std::size_t n,
                            const double* in_re, const double* in_im,
                            double* out_re, double* out_im) {
  const unsigned sh =
      static_cast<unsigned>(std::countr_zero(n)) - kTileBits;
  const std::size_t mid = n >> (2 * kTileBits);
  std::uint8_t revt[kTile];  // kTileBits-bit reversal, read off the table
  for (std::size_t i = 0; i < kTile; ++i) {
    revt[i] = static_cast<std::uint8_t>(bitrev[i] >> sh);
  }
  double tre[kTile * kTile];
  double tim[kTile * kTile];
  for (std::size_t m = 0; m < mid; ++m) {
    const std::size_t mr = bitrev[m << kTileBits] >> kTileBits;
    for (std::size_t jh = 0; jh < kTile; ++jh) {
      const double* __restrict sr = in_re + (jh << sh) + (m << kTileBits);
      const double* __restrict si = in_im + (jh << sh) + (m << kTileBits);
      for (std::size_t jl = 0; jl < kTile; ++jl) {
        const std::size_t slot =
            static_cast<std::size_t>(revt[jl]) * kTile + jh;
        tre[slot] = sr[jl];
        tim[slot] = si[jl];
      }
    }
    for (std::size_t ih = 0; ih < kTile; ++ih) {
      double* __restrict dr = out_re + (ih << sh) + (mr << kTileBits);
      double* __restrict di = out_im + (ih << sh) + (mr << kTileBits);
      const double* __restrict rr = tre + ih * kTile;
      const double* __restrict ri = tim + ih * kTile;
      for (std::size_t il = 0; il < kTile; ++il) {
        dr[il] = rr[revt[il]];
        di[il] = ri[revt[il]];
      }
    }
  }
}

/// Blocked deinterleaving gather, same tiling with paired source reads.
void permute_pairs_blocked(const std::uint32_t* bitrev, std::size_t n,
                           const double* pairs, double* out_re,
                           double* out_im) {
  const unsigned sh =
      static_cast<unsigned>(std::countr_zero(n)) - kTileBits;
  const std::size_t mid = n >> (2 * kTileBits);
  std::uint8_t revt[kTile];
  for (std::size_t i = 0; i < kTile; ++i) {
    revt[i] = static_cast<std::uint8_t>(bitrev[i] >> sh);
  }
  double tre[kTile * kTile];
  double tim[kTile * kTile];
  for (std::size_t m = 0; m < mid; ++m) {
    const std::size_t mr = bitrev[m << kTileBits] >> kTileBits;
    for (std::size_t jh = 0; jh < kTile; ++jh) {
      const double* __restrict src =
          pairs + 2 * ((jh << sh) + (m << kTileBits));
      for (std::size_t jl = 0; jl < kTile; ++jl) {
        const std::size_t slot =
            static_cast<std::size_t>(revt[jl]) * kTile + jh;
        tre[slot] = src[2 * jl];
        tim[slot] = src[2 * jl + 1];
      }
    }
    for (std::size_t ih = 0; ih < kTile; ++ih) {
      double* __restrict dr = out_re + (ih << sh) + (mr << kTileBits);
      double* __restrict di = out_im + (ih << sh) + (mr << kTileBits);
      const double* __restrict rr = tre + ih * kTile;
      const double* __restrict ri = tim + ih * kTile;
      for (std::size_t il = 0; il < kTile; ++il) {
        dr[il] = rr[revt[il]];
        di[il] = ri[revt[il]];
      }
    }
  }
}

}  // namespace

namespace detail {

void bitrev_permute_planar(const std::uint32_t* bitrev, std::size_t n,
                           const double* in_re, const double* in_im,
                           double* out_re, double* out_im) {
  if (n >= kBlockedBitrevMinN) {
    permute_planar_blocked(bitrev, n, in_re, in_im, out_re, out_im);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = bitrev[i];
    out_re[i] = in_re[s];
    out_im[i] = in_im[s];
  }
}

void bitrev_permute_pairs(const std::uint32_t* bitrev, std::size_t n,
                          const double* pairs, double* out_re,
                          double* out_im) {
  if (n >= kBlockedBitrevMinN) {
    permute_pairs_blocked(bitrev, n, pairs, out_re, out_im);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = 2 * static_cast<std::size_t>(bitrev[i]);
    out_re[i] = pairs[s];
    out_im[i] = pairs[s + 1];
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// FftPlan
// ---------------------------------------------------------------------------

FftPlan::FftPlan(std::size_t n) : n_(n) {
  ftio::util::expect(n >= 1, "FftPlan: size must be >= 1");
  ftio::util::expect(n <= (std::size_t{1} << 31),
                     "FftPlan: size exceeds 2^31");
  if (!is_direct_size(n_)) return;  // chirp-z: every table is lazy
  radix_ = n_ >> std::countr_zero(n_);
  pow2_ = radix_ == 1;
  if (n_ < 2) return;

  // Every twiddle below is an N-th root of unity — the split-radix stage-L
  // twiddle exp(-2*pi*i*k/L) of the power-of-two factor L = N/r is root
  // k*N/L — so for N = r * 2^k one half table of the N-th roots (N/8
  // cos/sin pairs) serves them all.
  const std::size_t len = n_ / radix_;
  std::vector<double> wre, wim;
  if (!pow2_) half_unit_roots(n_, wre, wim);
  const auto root = [&](std::size_t j) {
    if (pow2_) return unit_root(j, n_);
    return 2 * j <= n_ ? Complex(wre[j], wim[j])
                       : Complex(wre[n_ - j], -wim[n_ - j]);
  };

  bitrev_ = build_bitrev(len);
  if (len >= 4) {
    // Leaf schedule for the fused (2,4) base pass: enumerate the
    // size-2 and size-4 nodes of the split-radix tree and type every
    // aligned 4-block. The tree guarantees each block is either one
    // size-4 node or a pair of size-2 nodes; expect() pins that
    // invariant so a schedule bug fails at plan build, not as silent
    // numerical corruption.
    std::vector<std::uint8_t> is2(len / 2, 0);
    for_each_split_node(len, 2, [&](std::size_t p) { is2[p / 2] = 1; });
    base4_.assign(len / 4, 0);
    for_each_split_node(len, 4, [&](std::size_t p) { base4_[p / 4] = 1; });
    for (std::size_t b = 0; b < base4_.size(); ++b) {
      if (base4_[b]) {
        ftio::util::expect(is2[2 * b] && !is2[2 * b + 1],
                           "FftPlan: bad split-radix leaf schedule");
      } else {
        ftio::util::expect(is2[2 * b] && is2[2 * b + 1],
                           "FftPlan: bad split-radix leaf schedule");
      }
    }
  }

  // Combine stages of length 8..L with the (w^k, w^{3k}) twiddle pair,
  // all folded out of one root-stage table: the stage-S twiddle
  // exp(-2*pi*i*k/S) is the root-stage twiddle at index k*L/S, bit for
  // bit, so only the root stage evaluates roots and every shorter stage
  // is a strided copy.
  if (len >= 8) {
    const std::size_t root_quarter = len / 4;
    SplitStage top;
    top.len = len;
    top.w1re.resize(root_quarter);
    top.w1im.resize(root_quarter);
    top.w3re.resize(root_quarter);
    top.w3im.resize(root_quarter);
    for (std::size_t k = 0; k < root_quarter; ++k) {
      const Complex w1 = root(k * radix_);
      const Complex w3 = root(3 * k * radix_);
      top.w1re[k] = w1.real();
      top.w1im[k] = w1.imag();
      top.w3re[k] = w3.real();
      top.w3im[k] = w3.imag();
    }
    for (std::size_t stage_len = 8; stage_len < len; stage_len <<= 1) {
      SplitStage stage;
      stage.len = stage_len;
      const std::size_t quarter = stage_len / 4;
      const std::size_t step = len / stage_len;
      stage.w1re.resize(quarter);
      stage.w1im.resize(quarter);
      stage.w3re.resize(quarter);
      stage.w3im.resize(quarter);
      for (std::size_t k = 0; k < quarter; ++k) {
        stage.w1re[k] = top.w1re[k * step];
        stage.w1im[k] = top.w1im[k * step];
        stage.w3re[k] = top.w3re[k * step];
        stage.w3im[k] = top.w3im[k * step];
      }
      stages_.push_back(std::move(stage));
    }
    stages_.push_back(std::move(top));
  }

  // Outer-pass twiddles w^{qk}, q in [1, r), k < L: every index is < N.
  if (radix_ > 1) {
    outer_re_.resize((radix_ - 1) * len);
    outer_im_.resize((radix_ - 1) * len);
    for (std::size_t q = 1; q < radix_; ++q) {
      for (std::size_t k = 0; k < len; ++k) {
        const Complex w = root(q * k);
        outer_re_[(q - 1) * len + k] = w.real();
        outer_im_[(q - 1) * len + k] = w.imag();
      }
    }
  }
}

namespace {

/// One split-radix L-combine over planar lanes rooted at `re`/`im`
/// (an L-long block in bit-reversed order whose halves/quarters already
/// hold their sub-spectra): U = first half, Z = third quarter, Z' =
/// fourth quarter. For k < L/4, with w = exp(-2*pi*i*k/L):
///   t1 = w^k Z_k + w^{3k} Z'_k        t2 = w^k Z_k - w^{3k} Z'_k
///   X_k = U_k + t1                    X_{k+L/2}  = U_k - t1
///   X_{k+L/4} = U_{k+L/4} -+ i t2     X_{k+3L/4} = U_{k+L/4} +- i t2
/// (upper signs forward, lower inverse; inverse also conjugates the
/// twiddles). Four loads and four stores per k across four disjoint
/// stride-1 lanes. Left to its cost model, GCC runs the 12-stream loop
/// scalar; `#pragma omp simd` asserts what the __restrict lanes already
/// promise (no loop-carried dependency) and makes it packed code, which
/// performs the same IEEE operations per element, so the bits do not
/// change.
template <bool Inv>
void split_combine(double* re, double* im, std::size_t quarter,
                   const double* w1re, const double* w1im,
                   const double* w3re, const double* w3im) {
  double* __restrict ur = re;
  double* __restrict ui = im;
  double* __restrict vr = re + quarter;
  double* __restrict vi = im + quarter;
  double* __restrict zr = re + 2 * quarter;
  double* __restrict zi = im + 2 * quarter;
  double* __restrict sr = re + 3 * quarter;
  double* __restrict si = im + 3 * quarter;
  const double* __restrict w1r = w1re;
  const double* __restrict w1i = w1im;
  const double* __restrict w3r = w3re;
  const double* __restrict w3i = w3im;
#pragma omp simd
  for (std::size_t k = 0; k < quarter; ++k) {
    const double a1r = w1r[k];
    const double a1i = Inv ? -w1i[k] : w1i[k];
    const double a3r = w3r[k];
    const double a3i = Inv ? -w3i[k] : w3i[k];
    const double tzr = a1r * zr[k] - a1i * zi[k];
    const double tzi = a1r * zi[k] + a1i * zr[k];
    const double tsr = a3r * sr[k] - a3i * si[k];
    const double tsi = a3r * si[k] + a3i * sr[k];
    const double t1r = tzr + tsr, t1i = tzi + tsi;
    const double t2r = tzr - tsr, t2i = tzi - tsi;
    const double u0r = ur[k], u0i = ui[k];
    const double u1r = vr[k], u1i = vi[k];
    ur[k] = u0r + t1r;
    ui[k] = u0i + t1i;
    zr[k] = u0r - t1r;
    zi[k] = u0i - t1i;
    if constexpr (Inv) {
      vr[k] = u1r - t2i;
      vi[k] = u1i + t2r;
      sr[k] = u1r + t2i;
      si[k] = u1i - t2r;
    } else {
      vr[k] = u1r + t2i;
      vi[k] = u1i - t2r;
      sr[k] = u1r - t2i;
      si[k] = u1i + t2r;
    }
  }
}

/// The stride-r split of a direct r * L transform folded into the
/// sub-transforms' bit-reversal: block q of the output lanes receives
/// x[r*n + q] in bit-reversed order, out[q*L + i] = x[r*bitrev[i] + q],
/// so each source read takes r neighbouring samples and each block is
/// written stride-1. Element j of the input is
/// (in_re[j * step], in_im[j * step]). in and out must not overlap.
template <std::size_t R>
void radix_gather(const std::uint32_t* __restrict bitrev, std::size_t len,
                  const double* in_re, const double* in_im,
                  std::size_t step, double* __restrict out_re,
                  double* __restrict out_im) {
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t src = R * static_cast<std::size_t>(bitrev[i]) * step;
    for (std::size_t q = 0; q < R; ++q) {
      out_re[q * len + i] = in_re[src + q * step];
      out_im[q * len + i] = in_im[src + q * step];
    }
  }
}

/// The radix-3 decimation-in-time outer pass of an N = 3L transform, in
/// place over the three natural-order L-point sub-spectra Y_q (block q of
/// the lanes, the DFT of x[3n + q]): for k < L, with t_q = w^{qk} Y_q[k]
/// and w = exp(-2*pi*i/N), X[k + sL] = sum_q t_q exp(-2*pi*i*qs/3).
/// Position k of every block is read before position k of any block is
/// written, so the pass needs no scratch.
template <bool Inv>
void radix3_pass(double* re, double* im, std::size_t len,
                 const double* w_re, const double* w_im) {
  constexpr double kSin60 = 0.86602540378443864676;  // sin(2*pi/3)
  double* __restrict ar = re;
  double* __restrict ai = im;
  double* __restrict br = re + len;
  double* __restrict bi = im + len;
  double* __restrict cr = re + 2 * len;
  double* __restrict ci = im + 2 * len;
  const double* __restrict w1r = w_re;
  const double* __restrict w1i = w_im;
  const double* __restrict w2r = w_re + len;
  const double* __restrict w2i = w_im + len;
#pragma omp simd
  for (std::size_t k = 0; k < len; ++k) {
    const double a1r = w1r[k];
    const double a1i = Inv ? -w1i[k] : w1i[k];
    const double a2r = w2r[k];
    const double a2i = Inv ? -w2i[k] : w2i[k];
    const double x0r = ar[k], x0i = ai[k];
    const double x1r = a1r * br[k] - a1i * bi[k];
    const double x1i = a1r * bi[k] + a1i * br[k];
    const double x2r = a2r * cr[k] - a2i * ci[k];
    const double x2i = a2r * ci[k] + a2i * cr[k];
    const double tr = x1r + x2r, ti = x1i + x2i;
    const double dr = kSin60 * (x1r - x2r), di = kSin60 * (x1i - x2i);
    const double mr = x0r - 0.5 * tr, mi = x0i - 0.5 * ti;
    ar[k] = x0r + tr;
    ai[k] = x0i + ti;
    // X_1 = m -+ i d, X_2 = m +- i d (upper signs forward).
    if constexpr (Inv) {
      br[k] = mr - di;
      bi[k] = mi + dr;
      cr[k] = mr + di;
      ci[k] = mi - dr;
    } else {
      br[k] = mr + di;
      bi[k] = mi - dr;
      cr[k] = mr - di;
      ci[k] = mi + dr;
    }
  }
}

/// The radix-5 outer pass of an N = 5L transform, same layout and
/// in-place order as radix3_pass, with the 5-point DFT written out
/// straight-line: with t1 = x1 + x4, t2 = x2 + x3, d1 = x1 - x4,
/// d2 = x2 - x3 and c_j/s_j = cos/sin(2*pi*j/5),
///   X_0 = x0 + t1 + t2
///   X_1, X_4 = x0 + c1 t1 + c2 t2 -+ i (s1 d1 + s2 d2)
///   X_2, X_3 = x0 + c2 t1 + c1 t2 -+ i (s2 d1 - s1 d2)
/// (upper signs forward; the inverse swaps them).
template <bool Inv>
void radix5_pass(double* re, double* im, std::size_t len,
                 const double* w_re, const double* w_im) {
  constexpr double kC1 = 0.30901699437494742410;   // cos(2*pi/5)
  constexpr double kC2 = -0.80901699437494742410;  // cos(4*pi/5)
  constexpr double kS1 = 0.95105651629515357212;   // sin(2*pi/5)
  constexpr double kS2 = 0.58778525229247312917;   // sin(4*pi/5)
  double* __restrict r0 = re;
  double* __restrict i0 = im;
  double* __restrict r1 = re + len;
  double* __restrict i1 = im + len;
  double* __restrict r2 = re + 2 * len;
  double* __restrict i2 = im + 2 * len;
  double* __restrict r3 = re + 3 * len;
  double* __restrict i3 = im + 3 * len;
  double* __restrict r4 = re + 4 * len;
  double* __restrict i4 = im + 4 * len;
  const double* __restrict w1r = w_re;
  const double* __restrict w1i = w_im;
  const double* __restrict w2r = w_re + len;
  const double* __restrict w2i = w_im + len;
  const double* __restrict w3r = w_re + 2 * len;
  const double* __restrict w3i = w_im + 2 * len;
  const double* __restrict w4r = w_re + 3 * len;
  const double* __restrict w4i = w_im + 3 * len;
#pragma omp simd
  for (std::size_t k = 0; k < len; ++k) {
    const double a1r = w1r[k], a1i = Inv ? -w1i[k] : w1i[k];
    const double a2r = w2r[k], a2i = Inv ? -w2i[k] : w2i[k];
    const double a3r = w3r[k], a3i = Inv ? -w3i[k] : w3i[k];
    const double a4r = w4r[k], a4i = Inv ? -w4i[k] : w4i[k];
    const double x0r = r0[k], x0i = i0[k];
    const double x1r = a1r * r1[k] - a1i * i1[k];
    const double x1i = a1r * i1[k] + a1i * r1[k];
    const double x2r = a2r * r2[k] - a2i * i2[k];
    const double x2i = a2r * i2[k] + a2i * r2[k];
    const double x3r = a3r * r3[k] - a3i * i3[k];
    const double x3i = a3r * i3[k] + a3i * r3[k];
    const double x4r = a4r * r4[k] - a4i * i4[k];
    const double x4i = a4r * i4[k] + a4i * r4[k];
    const double t1r = x1r + x4r, t1i = x1i + x4i;
    const double t2r = x2r + x3r, t2i = x2i + x3i;
    const double d1r = x1r - x4r, d1i = x1i - x4i;
    const double d2r = x2r - x3r, d2i = x2i - x3i;
    const double m1r = x0r + kC1 * t1r + kC2 * t2r;
    const double m1i = x0i + kC1 * t1i + kC2 * t2i;
    const double m2r = x0r + kC2 * t1r + kC1 * t2r;
    const double m2i = x0i + kC2 * t1i + kC1 * t2i;
    const double v1r = kS1 * d1r + kS2 * d2r, v1i = kS1 * d1i + kS2 * d2i;
    const double v2r = kS2 * d1r - kS1 * d2r, v2i = kS2 * d1i - kS1 * d2i;
    r0[k] = x0r + t1r + t2r;
    i0[k] = x0i + t1i + t2i;
    if constexpr (Inv) {
      r1[k] = m1r - v1i;
      i1[k] = m1i + v1r;
      r4[k] = m1r + v1i;
      i4[k] = m1i - v1r;
      r2[k] = m2r - v2i;
      i2[k] = m2i + v2r;
      r3[k] = m2r + v2i;
      i3[k] = m2i - v2r;
    } else {
      r1[k] = m1r + v1i;
      i1[k] = m1i - v1r;
      r4[k] = m1r - v1i;
      i4[k] = m1i + v1r;
      r2[k] = m2r + v2i;
      i2[k] = m2i - v2r;
      r3[k] = m2r - v2i;
      i3[k] = m2i + v2r;
    }
  }
}

// ---------------------------------------------------------------------------
// Batched stage-major kernels. A batch group is kBatchGroup rows stored
// interleaved down the batch axis: element k of group row g lives at
// lane[k * kBatchGroup + g]. Every split-radix pass keeps its original
// stride-1 loop shape — the index space just grows by the group factor,
// with the twiddle tables duplicated group-wise so twiddle loads stay
// vectorisable — which means the long combine stages vectorise exactly
// like the single-signal core while the short L=8/16 combines (2-4
// iteration loops there) get kBatchGroup times the trip count and
// vectorise down the batch axis. The arithmetic per row is the verbatim
// single-signal formulas (the L-combine literally reuses split_combine;
// plan.cpp is compiled with -ffp-contract=off), so row b of a batch call
// is bit-identical to the single-signal call on row b.
// ---------------------------------------------------------------------------

/// Rows per interleaved batch group. Measured on the 1-core container, 2
/// beats 4 and 8: the kernels are load/store- and L1-traffic-bound, so a
/// small group (working set 2 x N x 16 B, twiddle streams only 2x) that
/// keeps the depth-first sub-blocks L1-resident wins over wider groups
/// whose extra SIMD lanes the memory ports cannot feed.
constexpr std::size_t kBatchGroup = 2;

// The batch kernels are explicitly SIMD: every loop below is free of
// loop-carried dependencies (each iteration touches only its own index
// across disjoint lanes), which `#pragma omp simd` asserts so the
// vectoriser stops versioning for aliasing and emits packed code; what
// the batch layout adds over the single-signal split_combine is packed
// execution of the short L=8/16 combines, whose 2-4 iteration loops are
// too short to fill a vector within one signal. On
// x86-64 each kernel additionally carries a runtime-dispatched
// x86-64-v3 clone (FFTW-style), so the portable SSE2 binary runs the
// batch axis 256 bits wide on AVX2 hosts. plan.cpp is compiled with
// -ffp-contract=off, so every clone performs the same IEEE operations
// and batch results stay bit-identical to the single-signal path.
// GCC only: clang's target_clones support on function templates is not
// reliable across the versions CI builds with; its builds simply run the
// portable codegen (still correct, still SIMD via the pragmas — and the
// FTIO_X86_64_V3 build compiles everything at v3 anyway).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    defined(__has_attribute)
#if __has_attribute(target_clones)
#define FTIO_BATCH_KERNEL \
  __attribute__((target_clones("default", "arch=x86-64-v3")))
#endif
#endif
#ifndef FTIO_BATCH_KERNEL
#define FTIO_BATCH_KERNEL
#endif

/// The fused (2,4) base pass of split_iterative over an interleaved
/// group: per 4-block the G-wide butterflies are contiguous 4*G doubles
/// per lane.
template <bool Inv>
FTIO_BATCH_KERNEL void gbatch_base_pass(double* __restrict re,
                                        double* __restrict im,
                                        std::size_t n,
                                        const std::uint8_t* __restrict t4) {
  constexpr std::size_t G = kBatchGroup;
  for (std::size_t i = 0, b = 0; i < n; i += 4, ++b) {
    double* __restrict r = re + i * G;
    double* __restrict m = im + i * G;
    if (t4[b]) {
#pragma omp simd
      for (std::size_t g = 0; g < G; ++g) {
        const double ar = r[g], ai = m[g];
        const double br = r[G + g], bi = m[G + g];
        const double cr = r[2 * G + g], ci = m[2 * G + g];
        const double dr = r[3 * G + g], di = m[3 * G + g];
        const double t0r = ar + br, t0i = ai + bi;
        const double t1r = ar - br, t1i = ai - bi;
        const double t2r = cr + dr, t2i = ci + di;
        const double t3r = cr - dr, t3i = ci - di;
        r[g] = t0r + t2r;
        m[g] = t0i + t2i;
        r[2 * G + g] = t0r - t2r;
        m[2 * G + g] = t0i - t2i;
        if constexpr (Inv) {
          r[G + g] = t1r - t3i;
          m[G + g] = t1i + t3r;
          r[3 * G + g] = t1r + t3i;
          m[3 * G + g] = t1i - t3r;
        } else {
          r[G + g] = t1r + t3i;
          m[G + g] = t1i - t3r;
          r[3 * G + g] = t1r - t3i;
          m[3 * G + g] = t1i + t3r;
        }
      }
    } else {
      // Two independent size-2 nodes: (columns i, i+1) and (i+2, i+3).
#pragma omp simd
      for (std::size_t g = 0; g < G; ++g) {
        const double ar = r[g], ai = m[g];
        const double br = r[G + g], bi = m[G + g];
        const double cr = r[2 * G + g], ci = m[2 * G + g];
        const double dr = r[3 * G + g], di = m[3 * G + g];
        r[g] = ar + br;
        m[g] = ai + bi;
        r[G + g] = ar - br;
        m[G + g] = ai - bi;
        r[2 * G + g] = cr + dr;
        m[2 * G + g] = ci + di;
        r[3 * G + g] = cr - dr;
        m[3 * G + g] = ci - di;
      }
    }
  }
}

/// gbatch_base_pass with the bit-reversal gather fused in: the butterfly
/// operands load straight from the G source rows (the elements the base
/// pass was about to read anyway) and only the results are written to the
/// interleaved scratch — sequentially — so the separate permutation pass
/// over the group working set disappears. Loads stream each row's
/// L1-sized window; `sel` maps a permuted index to its lane offset within
/// a row (identity for planar lanes, 2*s / 2*s+1 for packed real pairs).
template <bool Inv, class SelRe, class SelIm>
FTIO_BATCH_KERNEL void gbatch_base_gather(
    const double* __restrict row_re, const double* __restrict row_im,
    std::size_t stride, const std::uint32_t* __restrict bp, std::size_t n,
    const std::uint8_t* __restrict t4, double* __restrict re,
    double* __restrict im, SelRe sel_re, SelIm sel_im) {
  constexpr std::size_t G = kBatchGroup;
  for (std::size_t i = 0, b = 0; i < n; i += 4, ++b) {
    const std::size_t s0 = bp[i];
    const std::size_t s1 = bp[i + 1];
    const std::size_t s2 = bp[i + 2];
    const std::size_t s3 = bp[i + 3];
    // Prefetch the next block's operand lines: the bit-reversed columns
    // land on fresh cache lines in every row window, and the windows
    // together exceed L1, so demand loads would stall otherwise.
    if (i + 16 < n) {
      const std::size_t p0 = bp[i + 12];
      const std::size_t p2 = bp[i + 14];
      const bool planar = row_im != row_re;
      for (std::size_t g = 0; g < G; ++g) {
        const double* __restrict rr = row_re + g * stride;
        __builtin_prefetch(rr + sel_re(p0));
        __builtin_prefetch(rr + sel_re(p2));
        if (planar) {
          const double* __restrict ri = row_im + g * stride;
          __builtin_prefetch(ri + sel_im(p0));
          __builtin_prefetch(ri + sel_im(p2));
        }
      }
    }
    double* __restrict r = re + i * G;
    double* __restrict m = im + i * G;
    if (t4[b]) {
#pragma omp simd
      for (std::size_t g = 0; g < G; ++g) {
        const double* __restrict rr = row_re + g * stride;
        const double* __restrict ri = row_im + g * stride;
        const double ar = rr[sel_re(s0)], ai = ri[sel_im(s0)];
        const double br = rr[sel_re(s1)], bi = ri[sel_im(s1)];
        const double cr = rr[sel_re(s2)], ci = ri[sel_im(s2)];
        const double dr = rr[sel_re(s3)], di = ri[sel_im(s3)];
        const double t0r = ar + br, t0i = ai + bi;
        const double t1r = ar - br, t1i = ai - bi;
        const double t2r = cr + dr, t2i = ci + di;
        const double t3r = cr - dr, t3i = ci - di;
        r[g] = t0r + t2r;
        m[g] = t0i + t2i;
        r[2 * G + g] = t0r - t2r;
        m[2 * G + g] = t0i - t2i;
        if constexpr (Inv) {
          r[G + g] = t1r - t3i;
          m[G + g] = t1i + t3r;
          r[3 * G + g] = t1r + t3i;
          m[3 * G + g] = t1i - t3r;
        } else {
          r[G + g] = t1r + t3i;
          m[G + g] = t1i - t3r;
          r[3 * G + g] = t1r - t3i;
          m[3 * G + g] = t1i + t3r;
        }
      }
    } else {
#pragma omp simd
      for (std::size_t g = 0; g < G; ++g) {
        const double* __restrict rr = row_re + g * stride;
        const double* __restrict ri = row_im + g * stride;
        const double ar = rr[sel_re(s0)], ai = ri[sel_im(s0)];
        const double br = rr[sel_re(s1)], bi = ri[sel_im(s1)];
        const double cr = rr[sel_re(s2)], ci = ri[sel_im(s2)];
        const double dr = rr[sel_re(s3)], di = ri[sel_im(s3)];
        r[g] = ar + br;
        m[g] = ai + bi;
        r[G + g] = ar - br;
        m[G + g] = ai - bi;
        r[2 * G + g] = cr + dr;
        m[2 * G + g] = ci + di;
        r[3 * G + g] = cr - dr;
        m[3 * G + g] = ci - di;
      }
    }
  }
}

/// split_combine over the G-times-larger interleaved index space with the
/// group-duplicated twiddle streams: identical per-row formulas, explicit
/// SIMD (the quarter*G-long loop is dependency-free). Kept as a plain
/// always-inline body so the cloned kernels below absorb it into their
/// own ISA level instead of paying a dispatched call per tree node.
template <bool Inv>
[[gnu::always_inline]] inline void gbatch_combine_body(
    double* __restrict re, double* __restrict im, std::size_t quarter,
    const double* __restrict w1r, const double* __restrict w1i,
    const double* __restrict w3r, const double* __restrict w3i) {
  double* __restrict ur = re;
  double* __restrict ui = im;
  double* __restrict vr = re + quarter;
  double* __restrict vi = im + quarter;
  double* __restrict zr = re + 2 * quarter;
  double* __restrict zi = im + 2 * quarter;
  double* __restrict sr = re + 3 * quarter;
  double* __restrict si = im + 3 * quarter;
#pragma omp simd
  for (std::size_t k = 0; k < quarter; ++k) {
    const double a1r = w1r[k];
    const double a1i = Inv ? -w1i[k] : w1i[k];
    const double a3r = w3r[k];
    const double a3i = Inv ? -w3i[k] : w3i[k];
    const double tzr = a1r * zr[k] - a1i * zi[k];
    const double tzi = a1r * zi[k] + a1i * zr[k];
    const double tsr = a3r * sr[k] - a3i * si[k];
    const double tsi = a3r * si[k] + a3i * sr[k];
    const double t1r = tzr + tsr, t1i = tzi + tsi;
    const double t2r = tzr - tsr, t2i = tzi - tsi;
    const double u0r = ur[k], u0i = ui[k];
    const double u1r = vr[k], u1i = vi[k];
    ur[k] = u0r + t1r;
    ui[k] = u0i + t1i;
    zr[k] = u0r - t1r;
    zi[k] = u0i - t1i;
    if constexpr (Inv) {
      vr[k] = u1r - t2i;
      vi[k] = u1i + t2r;
      sr[k] = u1r + t2i;
      si[k] = u1i - t2r;
    } else {
      vr[k] = u1r + t2i;
      vi[k] = u1i - t2r;
      sr[k] = u1r - t2i;
      si[k] = u1i + t2r;
    }
  }
}

/// One combine node (the block-top combine of the depth-first recursion).
template <bool Inv>
FTIO_BATCH_KERNEL void gbatch_combine(double* __restrict re,
                                      double* __restrict im,
                                      std::size_t quarter,
                                      const double* __restrict w1r,
                                      const double* __restrict w1i,
                                      const double* __restrict w3r,
                                      const double* __restrict w3i) {
  gbatch_combine_body<Inv>(re, im, quarter, w1r, w1i, w3r, w3i);
}

/// One whole combine stage over a leaf block: the is/id node enumeration
/// runs inside the cloned kernel, so the short stages (hundreds of
/// length-8/16 nodes per block) pay one dispatched call per stage
/// instead of one per node.
template <bool Inv>
FTIO_BATCH_KERNEL void gbatch_stage_sweep(
    double* __restrict re, double* __restrict im, std::size_t block_len,
    std::size_t stage_len, std::size_t g, const double* __restrict w1r,
    const double* __restrict w1i, const double* __restrict w3r,
    const double* __restrict w3i) {
  const std::size_t quarterG = (stage_len / 4) * g;
  std::size_t ix = 0;
  std::size_t id = 2 * stage_len;
  while (ix < block_len) {
    for (std::size_t p = ix; p < block_len; p += id) {
      gbatch_combine_body<Inv>(re + p * g, im + p * g, quarterG, w1r, w1i,
                               w3r, w3i);
    }
    ix = 2 * id - stage_len;
    id *= 4;
  }
}

}  // namespace

template <bool Inv>
void FftPlan::split_iterative(double* re, double* im, std::size_t len,
                              std::size_t pos) const {
  double* __restrict r = re + pos;
  double* __restrict m = im + pos;
  if (len == 2) {
    const double ar = r[0], ai = m[0];
    const double br = r[1], bi = m[1];
    r[0] = ar + br;
    m[0] = ai + bi;
    r[1] = ar - br;
    m[1] = ai - bi;
    return;
  }
  // Fused (2,4) base pass: every 4-block is either one 4-point DFT
  // (size-4 node, type 1) or two independent radix-2 butterflies (a pair
  // of size-2 nodes, type 0); the radix-2 halves t0..t3 are shared.
  const std::uint8_t* __restrict t4 = base4_.data() + pos / 4;
  for (std::size_t i = 0, b = 0; i < len; i += 4, ++b) {
    const double ar = r[i], ai = m[i];
    const double br = r[i + 1], bi = m[i + 1];
    const double cr = r[i + 2], ci = m[i + 2];
    const double dr = r[i + 3], di = m[i + 3];
    const double t0r = ar + br, t0i = ai + bi;
    const double t1r = ar - br, t1i = ai - bi;
    const double t2r = cr + dr, t2i = ci + di;
    const double t3r = cr - dr, t3i = ci - di;
    if (t4[b]) {
      r[i] = t0r + t2r;
      m[i] = t0i + t2i;
      r[i + 2] = t0r - t2r;
      m[i + 2] = t0i - t2i;
      if constexpr (Inv) {
        r[i + 1] = t1r - t3i;
        m[i + 1] = t1i + t3r;
        r[i + 3] = t1r + t3i;
        m[i + 3] = t1i - t3r;
      } else {
        r[i + 1] = t1r + t3i;
        m[i + 1] = t1i - t3r;
        r[i + 3] = t1r - t3i;
        m[i + 3] = t1i + t3r;
      }
    } else {
      r[i] = t0r;
      m[i] = t0i;
      r[i + 1] = t1r;
      m[i + 1] = t1i;
      r[i + 2] = t2r;
      m[i + 2] = t2i;
      r[i + 3] = t3r;
      m[i + 3] = t3i;
    }
  }
  // Combine stages 8..len over the nodes the is/id enumeration names.
  for (const auto& st : stages_) {
    if (st.len > len) break;
    for_each_split_node(len, st.len, [&](std::size_t p) {
      split_combine<Inv>(r + p, m + p, st.len / 4, st.w1re.data(),
                         st.w1im.data(), st.w3re.data(), st.w3im.data());
    });
  }
}

template <bool Inv>
void FftPlan::split_subtree(double* re, double* im, std::size_t len,
                            std::size_t pos) const {
  if (len <= detail::kSplitRadixLeafLen) {
    split_iterative<Inv>(re, im, len, pos);
    return;
  }
  // Depth-first: finish each half/quarter while it is cache-resident,
  // then run the single top combine over the whole block.
  const std::size_t half = len / 2;
  const std::size_t quarter = len / 4;
  split_subtree<Inv>(re, im, half, pos);
  split_subtree<Inv>(re, im, quarter, pos + half);
  split_subtree<Inv>(re, im, quarter, pos + half + quarter);
  const auto& st =
      stages_[static_cast<std::size_t>(std::countr_zero(len)) - 3];
  split_combine<Inv>(re + pos, im + pos, quarter, st.w1re.data(),
                     st.w1im.data(), st.w3re.data(), st.w3im.data());
}

void FftPlan::split_passes(double* re, double* im, bool invert) const {
  if (invert) {
    split_subtree<true>(re, im, n_, 0);
  } else {
    split_subtree<false>(re, im, n_, 0);
  }
}

template <bool Inv>
void FftPlan::run_direct(const double* in_re, const double* in_im,
                         std::size_t step, double* out_re,
                         double* out_im) const {
  if (n_ == 1) {
    out_re[0] = in_re[0];
    out_im[0] = in_im[0];
    return;
  }
  if (pow2_) {
    if (step == 1) {
      detail::bitrev_permute_planar(bitrev_.data(), n_, in_re, in_im, out_re,
                                    out_im);
    } else {
      detail::bitrev_permute_pairs(bitrev_.data(), n_, in_re, out_re, out_im);
    }
    split_subtree<Inv>(out_re, out_im, n_, 0);
    return;
  }
  const std::size_t len = n_ / radix_;
  if (radix_ == 3) {
    radix_gather<3>(bitrev_.data(), len, in_re, in_im, step, out_re, out_im);
  } else {
    radix_gather<5>(bitrev_.data(), len, in_re, in_im, step, out_re, out_im);
  }
  if (len >= 2) {
    for (std::size_t q = 0; q < radix_; ++q) {
      split_subtree<Inv>(out_re + q * len, out_im + q * len, len, 0);
    }
  }
  if (radix_ == 3) {
    radix3_pass<Inv>(out_re, out_im, len, outer_re_.data(), outer_im_.data());
  } else {
    radix5_pass<Inv>(out_re, out_im, len, outer_re_.data(), outer_im_.data());
  }
}

void FftPlan::ensure_batch_tables() const {
  std::call_once(batch_once_, [this] {
    batch_stages_.reserve(stages_.size());
    for (const auto& st : stages_) {
      SplitStage g;
      g.len = st.len;
      const std::size_t quarter = st.len / 4;
      g.w1re.resize(quarter * kBatchGroup);
      g.w1im.resize(quarter * kBatchGroup);
      g.w3re.resize(quarter * kBatchGroup);
      g.w3im.resize(quarter * kBatchGroup);
      for (std::size_t k = 0; k < quarter; ++k) {
        for (std::size_t r = 0; r < kBatchGroup; ++r) {
          g.w1re[k * kBatchGroup + r] = st.w1re[k];
          g.w1im[k * kBatchGroup + r] = st.w1im[k];
          g.w3re[k * kBatchGroup + r] = st.w3re[k];
          g.w3im[k * kBatchGroup + r] = st.w3im[k];
        }
      }
      batch_stages_.push_back(std::move(g));
    }
  });
}

template <bool Inv>
void FftPlan::split_passes_batch(double* re, double* im) const {
  // Precondition: n_ % 4 == 0 — every grouped batch path requires the
  // packed transform length to be at least 4 (n_ >= 8 at the real-input
  // entry points), so the (2,4) base pass always applies.
  gbatch_base_pass<Inv>(re, im, n_, base4_.data());
  split_stages_batch<Inv>(re, im);
}

template <bool Inv>
void FftPlan::split_stages_batch(double* re, double* im) const {
  split_subtree_batch<Inv>(re, im, n_, 0);
}

template <bool Inv>
void FftPlan::split_subtree_batch(double* re, double* im, std::size_t len,
                                  std::size_t pos) const {
  constexpr std::size_t G = kBatchGroup;
  if (len * G <= detail::kBatchLeafElems) {
    // Stage-major sweep of this block: every length-L combine runs across
    // the whole group (a valid topological order of the split-radix tree
    // — children always complete before their parent's combine, so each
    // row's values match the depth-first single-signal order bit for
    // bit). The L-combine is the single-signal split_combine arithmetic
    // on the G-times-larger index space with the group-duplicated
    // twiddle streams.
    for (const auto& st : batch_stages_) {
      if (st.len > len) break;
      gbatch_stage_sweep<Inv>(re + pos * G, im + pos * G, len, st.len, G,
                              st.w1re.data(), st.w1im.data(),
                              st.w3re.data(), st.w3im.data());
    }
    return;
  }
  const std::size_t half = len / 2;
  const std::size_t quarter = len / 4;
  split_subtree_batch<Inv>(re, im, half, pos);
  split_subtree_batch<Inv>(re, im, quarter, pos + half);
  split_subtree_batch<Inv>(re, im, quarter, pos + half + quarter);
  const auto& st =
      batch_stages_[static_cast<std::size_t>(std::countr_zero(len)) - 3];
  gbatch_combine<Inv>(re + pos * G, im + pos * G, (len / 4) * G,
                      st.w1re.data(), st.w1im.data(), st.w3re.data(),
                      st.w3im.data());
}

std::size_t FftPlan::batch_tile_rows(bool real_input) const {
  const std::size_t len = real_input ? n_ / 2 : n_;
  if (len < 2) return 1;
  const std::size_t per_row = 2 * len * sizeof(double);
  const std::size_t rows = detail::kBatchTileBytes / per_row;
  if (rows < kBatchGroup) return 1;
  return rows - rows % kBatchGroup;
}

template <bool Inv>
void FftPlan::planar_batch_group(std::size_t stride, const double* in_re,
                                 const double* in_im, double* out_re,
                                 double* out_im) const {
  constexpr std::size_t G = kBatchGroup;
  auto& ws = workspace();
  double* __restrict sre = ws.bre.data();
  double* __restrict sim = ws.bim.data();
  // The base pass runs fused with the bit-reversal gather: operands load
  // straight from the G source rows, results land sequentially in the
  // interleaved scratch. The group's entire input is consumed before any
  // output write, so fully aliased out lanes are safe (other rows are
  // never touched here).
  const auto id = [](std::size_t s) { return s; };
  gbatch_base_gather<Inv>(in_re, in_im, stride, bitrev_.data(), n_,
                          base4_.data(), sre, sim, id, id);
  split_stages_batch<Inv>(sre, sim);
  const double scale = 1.0 / static_cast<double>(n_);
  for (std::size_t g = 0; g < G; ++g) {
    double* __restrict orr = out_re + g * stride;
    double* __restrict ori = out_im + g * stride;
    const double* __restrict cr = sre + g;
    const double* __restrict ci = sim + g;
    if constexpr (Inv) {
      for (std::size_t k = 0; k < n_; ++k) {
        orr[k] = cr[k * G] * scale;
        ori[k] = ci[k * G] * scale;
      }
    } else {
      for (std::size_t k = 0; k < n_; ++k) {
        orr[k] = cr[k * G];
        ori[k] = ci[k * G];
      }
    }
  }
}

void FftPlan::forward_planar_batch(std::size_t batch, std::size_t stride,
                                   std::span<const double> in_re,
                                   std::span<const double> in_im,
                                   std::span<double> out_re,
                                   std::span<double> out_im) const {
  if (batch == 0) return;
  ftio::util::expect(stride >= n_,
                     "FftPlan::forward_planar_batch: stride < row length");
  const std::size_t need = (batch - 1) * stride + n_;
  ftio::util::expect(in_re.size() >= need && in_im.size() >= need &&
                         out_re.size() >= need && out_im.size() >= need,
                     "FftPlan::forward_planar_batch: lanes too short");
  FTIO_CONTRACT(
      alias_full_or_disjoint(in_re.data(), out_re.data(), need) &&
          alias_full_or_disjoint(in_im.data(), out_im.data(), need),
      "batch lanes must fully alias (same bases and stride) or not overlap");
  const bool grouped =
      pow2_ && n_ >= 4 && batch >= kBatchGroup && batch_tile_rows(false) > 1;
  std::size_t b = 0;
  if (grouped) {
    ensure_batch_tables();
    auto& ws = workspace();
    ws.bre.resize(n_ * kBatchGroup);
    ws.bim.resize(n_ * kBatchGroup);
    for (; b + kBatchGroup <= batch; b += kBatchGroup) {
      planar_batch_group<false>(stride, in_re.data() + b * stride,
                                in_im.data() + b * stride,
                                out_re.data() + b * stride,
                                out_im.data() + b * stride);
    }
  }
  for (; b < batch; ++b) {
    forward_planar(in_re.subspan(b * stride, n_),
                   in_im.subspan(b * stride, n_),
                   out_re.subspan(b * stride, n_),
                   out_im.subspan(b * stride, n_));
  }
}

void FftPlan::inverse_planar_batch(std::size_t batch, std::size_t stride,
                                   std::span<const double> in_re,
                                   std::span<const double> in_im,
                                   std::span<double> out_re,
                                   std::span<double> out_im) const {
  if (batch == 0) return;
  ftio::util::expect(stride >= n_,
                     "FftPlan::inverse_planar_batch: stride < row length");
  const std::size_t need = (batch - 1) * stride + n_;
  ftio::util::expect(in_re.size() >= need && in_im.size() >= need &&
                         out_re.size() >= need && out_im.size() >= need,
                     "FftPlan::inverse_planar_batch: lanes too short");
  FTIO_CONTRACT(
      alias_full_or_disjoint(in_re.data(), out_re.data(), need) &&
          alias_full_or_disjoint(in_im.data(), out_im.data(), need),
      "batch lanes must fully alias (same bases and stride) or not overlap");
  const bool grouped =
      pow2_ && n_ >= 4 && batch >= kBatchGroup && batch_tile_rows(false) > 1;
  std::size_t b = 0;
  if (grouped) {
    ensure_batch_tables();
    auto& ws = workspace();
    ws.bre.resize(n_ * kBatchGroup);
    ws.bim.resize(n_ * kBatchGroup);
    for (; b + kBatchGroup <= batch; b += kBatchGroup) {
      planar_batch_group<true>(stride, in_re.data() + b * stride,
                               in_im.data() + b * stride,
                               out_re.data() + b * stride,
                               out_im.data() + b * stride);
    }
  }
  for (; b < batch; ++b) {
    inverse_planar(in_re.subspan(b * stride, n_),
                   in_im.subspan(b * stride, n_),
                   out_re.subspan(b * stride, n_),
                   out_im.subspan(b * stride, n_));
  }
}

void FftPlan::rfft_half_batch_group(std::size_t in_stride, const double* in,
                                    std::size_t out_stride, double* out_re,
                                    double* out_im) const {
  constexpr std::size_t G = kBatchGroup;
  const std::size_t h = n_ / 2;
  auto& ws = workspace();
  double* __restrict sre = ws.bre.data();
  double* __restrict sim = ws.bim.data();
  // The half plan's base pass runs fused with the deinterleaving pair
  // gather: operand pair bitrev[k] of each row loads straight from the
  // packed real source, results land sequentially in the interleaved
  // scratch.
  gbatch_base_gather<false>(in, in, in_stride, half_->bitrev_.data(), h,
                            half_->base4_.data(), sre, sim,
                            [](std::size_t s) { return 2 * s; },
                            [](std::size_t s) { return 2 * s + 1; });
  half_->split_stages_batch<false>(sre, sim);
  // Single-sided unpack straight into the output rows, bin-major so the
  // twiddle pair and both source columns load once per bin for all rows.
  // Formulas verbatim from forward_real_half_planar's unpack.
  const double* __restrict twr = rtw_re_.data();
  const double* __restrict twi = rtw_im_.data();
  for (std::size_t g = 0; g < G; ++g) {
    const double z0r = sre[g], z0i = sim[g];
    out_re[g * out_stride] = z0r + z0i;
    out_im[g * out_stride] = 0.0;
    out_re[g * out_stride + h] = z0r - z0i;
    out_im[g * out_stride + h] = 0.0;
  }
  for (std::size_t k = 1; k < h; ++k) {
    const double wr = twr[k];
    const double wi = twi[k];
    const double* __restrict zkr = sre + k * G;
    const double* __restrict zki = sim + k * G;
    const double* __restrict zhr = sre + (h - k) * G;
    const double* __restrict zhi = sim + (h - k) * G;
    double* __restrict orow = out_re + k;
    double* __restrict irow = out_im + k;
#pragma omp simd
    for (std::size_t g = 0; g < G; ++g) {
      const double zr = zkr[g], zi = zki[g];
      const double zmr = zhr[g], zmi = -zhi[g];
      const double er = 0.5 * (zr + zmr);
      const double ei = 0.5 * (zi + zmi);
      const double odr = 0.5 * (zi - zmi);
      const double odi = -0.5 * (zr - zmr);
      orow[g * out_stride] = er + wr * odr - wi * odi;
      irow[g * out_stride] = ei + wr * odi + wi * odr;
    }
  }
}

void FftPlan::rfft_half_planar_batch_into(std::size_t batch,
                                          std::size_t in_stride,
                                          std::span<const double> in,
                                          std::size_t out_stride,
                                          std::span<double> out_re,
                                          std::span<double> out_im) const {
  if (batch == 0) return;
  const std::size_t bins = n_ / 2 + 1;
  ftio::util::expect(in_stride >= n_ && out_stride >= bins,
                     "FftPlan::rfft_half_planar_batch_into: stride too small");
  ftio::util::expect(
      in.size() >= (batch - 1) * in_stride + n_ &&
          out_re.size() >= (batch - 1) * out_stride + bins &&
          out_im.size() >= (batch - 1) * out_stride + bins,
      "FftPlan::rfft_half_planar_batch_into: lanes too short");
  bool grouped = n_ >= 8 && n_ % 2 == 0 && batch >= kBatchGroup &&
                 batch_tile_rows(true) > 1;
  if (grouped) {
    ensure_real_tables();
    grouped = half_->pow2_;
  }
  std::size_t b = 0;
  if (grouped) {
    half_->ensure_batch_tables();
    auto& ws = workspace();
    ws.bre.resize((n_ / 2) * kBatchGroup);
    ws.bim.resize((n_ / 2) * kBatchGroup);
    for (; b + kBatchGroup <= batch; b += kBatchGroup) {
      rfft_half_batch_group(in_stride, in.data() + b * in_stride,
                            out_stride, out_re.data() + b * out_stride,
                            out_im.data() + b * out_stride);
    }
  }
  for (; b < batch; ++b) {
    forward_real_half_planar(in.subspan(b * in_stride, n_),
                             out_re.subspan(b * out_stride, bins),
                             out_im.subspan(b * out_stride, bins));
  }
}

void FftPlan::irfft_half_batch_group(std::size_t in_stride,
                                     const double* in_re,
                                     const double* in_im,
                                     std::size_t out_stride,
                                     double* out) const {
  constexpr std::size_t G = kBatchGroup;
  const std::size_t h = n_ / 2;
  auto& ws = workspace();
  double* __restrict sre = ws.bre.data();
  double* __restrict sim = ws.bim.data();
  // Fold the half spectra back into packed half-size signals, scattering
  // into bit-reversed interleaved columns (bitrev[0] == 0, so the peeled
  // DC/Nyquist fold lands in column 0). Formulas verbatim from
  // inverse_real_half_planar's z0/z_at.
  const std::uint32_t* bp = half_->bitrev_.data();
  for (std::size_t g = 0; g < G; ++g) {
    const double dc = in_re[g * in_stride];
    const double ny = in_re[g * in_stride + h];
    sre[g] = 0.5 * (dc + ny);
    sim[g] = 0.5 * (dc - ny);
  }
  const double* __restrict rwr = rtw_re_.data();
  const double* __restrict rwi = rtw_im_.data();
  for (std::size_t k = 1; k < h; ++k) {
    const double wr = rwr[k];
    const double wi = rwi[k];
    const std::size_t d = bp[k];
    const double* __restrict akr = in_re + k;
    const double* __restrict aki = in_im + k;
    const double* __restrict bkr = in_re + (h - k);
    const double* __restrict bki = in_im + (h - k);
    double* __restrict dr = sre + d * G;
    double* __restrict di = sim + d * G;
#pragma omp simd
    for (std::size_t g = 0; g < G; ++g) {
      const double ar = akr[g * in_stride];
      const double ai = aki[g * in_stride];
      const double br = bkr[g * in_stride];
      const double bi = -bki[g * in_stride];
      const double er = 0.5 * (ar + br);
      const double ei = 0.5 * (ai + bi);
      const double fr = 0.5 * (ar - br);
      const double fi = 0.5 * (ai - bi);
      const double odr = wr * fr + wi * fi;
      const double odi = wr * fi - wi * fr;
      dr[g] = er - odi;
      di[g] = ei + odr;
    }
  }
  half_->split_passes_batch<true>(sre, sim);
  const double scale = 1.0 / static_cast<double>(h);
  for (std::size_t g = 0; g < G; ++g) {
    double* __restrict orow = out + g * out_stride;
    const double* __restrict cr = sre + g;
    const double* __restrict ci = sim + g;
#pragma omp simd
    for (std::size_t j = 0; j < h; ++j) {
      orow[2 * j] = cr[j * G] * scale;
      orow[2 * j + 1] = ci[j * G] * scale;
    }
  }
}

void FftPlan::irfft_half_planar_batch_into(std::size_t batch,
                                           std::size_t in_stride,
                                           std::span<const double> in_re,
                                           std::span<const double> in_im,
                                           std::size_t out_stride,
                                           std::span<double> out) const {
  if (batch == 0) return;
  const std::size_t bins = n_ / 2 + 1;
  ftio::util::expect(in_stride >= bins && out_stride >= n_,
                     "FftPlan::irfft_half_planar_batch_into: stride too "
                     "small");
  ftio::util::expect(
      in_re.size() >= (batch - 1) * in_stride + bins &&
          in_im.size() >= (batch - 1) * in_stride + bins &&
          out.size() >= (batch - 1) * out_stride + n_,
      "FftPlan::irfft_half_planar_batch_into: lanes too short");
  bool grouped = n_ >= 8 && n_ % 2 == 0 && batch >= kBatchGroup &&
                 batch_tile_rows(true) > 1;
  if (grouped) {
    ensure_real_tables();
    grouped = half_->pow2_;
  }
  std::size_t b = 0;
  if (grouped) {
    half_->ensure_batch_tables();
    auto& ws = workspace();
    ws.bre.resize((n_ / 2) * kBatchGroup);
    ws.bim.resize((n_ / 2) * kBatchGroup);
    for (; b + kBatchGroup <= batch; b += kBatchGroup) {
      irfft_half_batch_group(in_stride, in_re.data() + b * in_stride,
                             in_im.data() + b * in_stride, out_stride,
                             out.data() + b * out_stride);
    }
  }
  for (; b < batch; ++b) {
    inverse_real_half_planar(in_re.subspan(b * in_stride, bins),
                             in_im.subspan(b * in_stride, bins),
                             out.subspan(b * out_stride, n_));
  }
}

void FftPlan::ensure_real_tables() const {
  std::call_once(real_once_, [this] {
    const std::size_t h = n_ / 2;
    half_ = get_plan(h);
    if (pow2_) {
      rtw_re_.resize(h + 1);
      rtw_im_.resize(h + 1);
      for (std::size_t k = 0; k <= h; ++k) {
        const Complex w = unit_root(k, n_);
        rtw_re_[k] = w.real();
        rtw_im_[k] = w.imag();
      }
    } else {
      half_unit_roots(n_, rtw_re_, rtw_im_);
    }
    // The packed real path always runs the half plan's complex transform,
    // so finish its lazy state here rather than on first use. A chirp-z
    // half plan of size h = N/2 needs the 2h-th roots over [0, h] — this
    // plan's unpack roots, so its chirp costs no trigonometry at all. A
    // cached half plan whose tables another caller built first holds the
    // same bits: both come from half_unit_roots(N).
    if (half_->radix_ == 0) {
      (void)half_->chirp_z_tables(/*half_output=*/false, rtw_re_.data(),
                                  rtw_im_.data());
    }
  });
}

const FftPlan::ChirpZ& FftPlan::chirp_z_tables(bool half_output,
                                               const double* roots_re,
                                               const double* roots_im) const {
  ChirpZ& t = half_output ? half_cz_ : full_cz_;
  std::call_once(half_output ? half_once_ : full_once_, [&] {
    const std::size_t n = n_;
    t.bins = half_output ? n / 2 + 1 : n;
    const std::size_t m = convolution_size(n + t.bins - 1);
    t.sub = get_plan(m);

    // Chirp c_k = exp(-i*pi*k^2/N) = w_{k^2 mod 2N} over the 2N-th roots
    // w_j = exp(-i*pi*j/N). The exact phase index k^2 mod 2N is
    // accumulated through (k+1)^2 = k^2 + 2k + 1 without a division, and
    // only k <= N/2 is looked up: since (N-k)^2 = k^2 + N (N - 2k),
    // c_{N-k} = (-1)^N c_k.
    std::vector<double> own_re, own_im;
    if (roots_re == nullptr) {
      half_unit_roots(2 * n, own_re, own_im);
      roots_re = own_re.data();
      roots_im = own_im.data();
    }
    t.cre.resize(n);
    t.cim.resize(n);
    std::size_t k2 = 0;
    for (std::size_t k = 0; 2 * k <= n; ++k) {
      if (k2 <= n) {
        t.cre[k] = roots_re[k2];
        t.cim[k] = roots_im[k2];
      } else {
        t.cre[k] = roots_re[2 * n - k2];
        t.cim[k] = -roots_im[2 * n - k2];
      }
      k2 += 2 * k + 1;
      if (k2 >= 2 * n) k2 -= 2 * n;
    }
    const double mirror = n % 2 == 0 ? 1.0 : -1.0;
    for (std::size_t k = n / 2 + 1; k < n; ++k) {
      t.cre[k] = mirror * t.cre[n - k];
      t.cim[k] = mirror * t.cim[n - k];
    }

    // Kernel spectrum: transform the wrapped conjugate chirp on the
    // direct core, then conjugate and pre-scale by 1/M so the
    // execution's pointwise product feeds a plain forward pass.
    auto& ws = workspace();
    ws.re.resize(m);
    ws.im.resize(m);
    t.kre.assign(m, 0.0);
    t.kim.assign(m, 0.0);
    for (std::size_t j = 0; j < t.bins; ++j) {
      t.kre[j] = t.cre[j];
      t.kim[j] = -t.cim[j];
    }
    for (std::size_t j = 1; j < n; ++j) {
      t.kre[m - j] = t.cre[j];
      t.kim[m - j] = -t.cim[j];
    }
    t.sub->run_direct<false>(t.kre.data(), t.kim.data(), 1, ws.re.data(),
                             ws.im.data());
    const double inv_m = 1.0 / static_cast<double>(m);
    for (std::size_t i = 0; i < m; ++i) {
      t.kre[i] = ws.re[i] * inv_m;
      t.kim[i] = -ws.im[i] * inv_m;
    }
  });
  return t;
}

void FftPlan::prepare(bool for_real_input) const {
  if (n_ < 2) return;
  if (for_real_input && n_ % 2 == 0) {
    ensure_real_tables();
    return;
  }
  if (radix_ == 0) (void)chirp_z_tables(/*half_output=*/for_real_input);
}

void FftPlan::chirp_z(const ChirpZ& t, const double* in_re,
                      const double* in_im, bool inverse, double* out_re,
                      double* out_im) const {
  const std::size_t n = n_;
  const std::size_t m = t.sub->n_;
  auto& ws = workspace();
  ws.re.resize(m);
  ws.im.resize(m);
  ws.re2.resize(m);
  ws.im2.resize(m);
  double* __restrict pr = ws.re.data();
  double* __restrict pi = ws.im.data();
  double* __restrict lr = ws.re2.data();
  double* __restrict li = ws.im2.data();
  const double* __restrict cr = t.cre.data();
  const double* __restrict ci = t.cim.data();

  // a_n = x_n c_n (x conjugated for the inverse), zero-padded to M.
  if (in_im == nullptr) {
    for (std::size_t k = 0; k < n; ++k) {
      lr[k] = in_re[k] * cr[k];
      li[k] = in_re[k] * ci[k];
    }
  } else {
    const double sign = inverse ? -1.0 : 1.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double xr = in_re[k];
      const double xi = sign * in_im[k];
      lr[k] = xr * cr[k] - xi * ci[k];
      li[k] = xr * ci[k] + xi * cr[k];
    }
  }
  std::fill(lr + n, lr + m, 0.0);
  std::fill(li + n, li + m, 0.0);
  t.sub->run_direct<false>(lr, li, 1, pr, pi);

  // conj(A * B) / M = conj(A) * K with the stored kernel K, so one more
  // forward pass yields conj(a (*) b): the inverse without an inverse.
  const double* __restrict kr = t.kre.data();
  const double* __restrict ki = t.kim.data();
  for (std::size_t i = 0; i < m; ++i) {
    const double ar = pr[i];
    const double ai = pi[i];
    pr[i] = ar * kr[i] + ai * ki[i];
    pi[i] = ar * ki[i] - ai * kr[i];
  }
  t.sub->run_direct<false>(pr, pi, 1, lr, li);

  // X_k = c_k * conj(R_k); the inverse conjugates and scales on the way out.
  const double scale = inverse ? 1.0 / static_cast<double>(n) : 1.0;
  const double scale_im = inverse ? -scale : scale;
  for (std::size_t k = 0; k < t.bins; ++k) {
    const double rr = lr[k];
    const double ri = li[k];
    out_re[k] = (cr[k] * rr + ci[k] * ri) * scale;
    out_im[k] = (ci[k] * rr - cr[k] * ri) * scale_im;
  }
}

void FftPlan::forward_planar(std::span<const double> in_re,
                             std::span<const double> in_im,
                             std::span<double> out_re,
                             std::span<double> out_im) const {
  ftio::util::expect(in_re.size() == n_ && in_im.size() == n_ &&
                         out_re.size() == n_ && out_im.size() == n_,
                     "FftPlan::forward_planar: size mismatch");
  FTIO_CONTRACT(alias_full_or_disjoint(in_re.data(), out_re.data(), n_) &&
                    alias_full_or_disjoint(in_im.data(), out_im.data(), n_),
                "planar lanes must fully alias or not overlap");
  if (n_ == 1) {
    out_re[0] = in_re[0];
    out_im[0] = in_im[0];
    return;
  }
  auto& ws = workspace();
  if (radix_ != 0) {
    const double* sr = in_re.data();
    const double* si = in_im.data();
    if (sr == out_re.data() || si == out_im.data()) {
      // In-place call: the permuted gather cannot run in place, so stage
      // the input through scratch (full aliasing only; partial overlap
      // is undefined).
      ws.re2.assign(in_re.begin(), in_re.end());
      ws.im2.assign(in_im.begin(), in_im.end());
      sr = ws.re2.data();
      si = ws.im2.data();
    }
    run_direct<false>(sr, si, 1, out_re.data(), out_im.data());
    return;
  }
  chirp_z(chirp_z_tables(/*half_output=*/false), in_re.data(), in_im.data(),
          /*inverse=*/false, out_re.data(), out_im.data());
}

void FftPlan::inverse_planar(std::span<const double> in_re,
                             std::span<const double> in_im,
                             std::span<double> out_re,
                             std::span<double> out_im) const {
  ftio::util::expect(in_re.size() == n_ && in_im.size() == n_ &&
                         out_re.size() == n_ && out_im.size() == n_,
                     "FftPlan::inverse_planar: size mismatch");
  FTIO_CONTRACT(alias_full_or_disjoint(in_re.data(), out_re.data(), n_) &&
                    alias_full_or_disjoint(in_im.data(), out_im.data(), n_),
                "planar lanes must fully alias or not overlap");
  if (n_ == 1) {
    out_re[0] = in_re[0];
    out_im[0] = in_im[0];
    return;
  }
  auto& ws = workspace();
  const double scale = 1.0 / static_cast<double>(n_);
  if (radix_ != 0) {
    const double* sr = in_re.data();
    const double* si = in_im.data();
    if (sr == out_re.data() || si == out_im.data()) {
      ws.re2.assign(in_re.begin(), in_re.end());
      ws.im2.assign(in_im.begin(), in_im.end());
      sr = ws.re2.data();
      si = ws.im2.data();
    }
    run_direct<true>(sr, si, 1, out_re.data(), out_im.data());
    for (std::size_t i = 0; i < n_; ++i) {
      out_re[i] *= scale;
      out_im[i] *= scale;
    }
    return;
  }
  chirp_z(chirp_z_tables(/*half_output=*/false), in_re.data(), in_im.data(),
          /*inverse=*/true, out_re.data(), out_im.data());
}

void FftPlan::forward_real_half_planar(std::span<const double> in,
                                       std::span<double> out_re,
                                       std::span<double> out_im) const {
  ftio::util::expect(in.size() == n_ && out_re.size() == n_ / 2 + 1 &&
                         out_im.size() == n_ / 2 + 1,
                     "FftPlan::forward_real_half_planar: size mismatch");
  if (n_ == 1) {
    out_re[0] = in[0];
    out_im[0] = 0.0;
    return;
  }
  if (n_ % 2 != 0) {
    if (radix_ != 0) {
      // N = 3 or 5: the complex transform of (x, 0), which keeps direct
      // plans free of chirp-z tables (and the plan graph free of cycles).
      auto& ws = workspace();
      ws.him.assign(n_, 0.0);
      ws.re.resize(n_);
      ws.im.resize(n_);
      run_direct<false>(in.data(), ws.him.data(), 1, ws.re.data(),
                        ws.im.data());
      std::copy_n(ws.re.data(), out_re.size(), out_re.data());
      std::copy_n(ws.im.data(), out_im.size(), out_im.data());
      return;
    }
    chirp_z(chirp_z_tables(/*half_output=*/true), in.data(), nullptr,
            /*inverse=*/false, out_re.data(), out_im.data());
    return;
  }

  // Pack x[2j] + i*x[2j+1] into an N/2-point signal, transform it, then
  // untangle the single-sided even/odd spectra with the precomputed
  // unpack twiddles. The mirror bins X[N-k] are never formed. `zre`/`zim`
  // read bin k of the packed transform from whichever buffer the branch
  // below produced it in.
  ensure_real_tables();
  auto& ws = workspace();
  const std::size_t h = n_ / 2;
  const auto unpack = [&](auto&& zre, auto&& zim) {
    const double* __restrict twr = rtw_re_.data();
    const double* __restrict twi = rtw_im_.data();
    // DC and Nyquist both read bin 0 of the packed transform (k and h-k
    // wrap to 0); peeling them keeps the interior loop free of the
    // index-wrapping modulo — two hardware divides per bin that used to
    // dominate the whole unpack at large N.
    const double z0r = zre(std::size_t{0}), z0i = zim(std::size_t{0});
    out_re[0] = z0r + z0i;
    out_im[0] = 0.0;
    out_re[h] = z0r - z0i;
    out_im[h] = 0.0;
    for (std::size_t k = 1; k < h; ++k) {
      const double zkr = zre(k), zki = zim(k);
      const double zmr = zre(h - k), zmi = -zim(h - k);
      const double er = 0.5 * (zkr + zmr);
      const double ei = 0.5 * (zki + zmi);
      // odd = -i/2 * (z_k - conj(z_{h-k}))
      const double odr = 0.5 * (zki - zmi);
      const double odi = -0.5 * (zkr - zmr);
      out_re[k] = er + twr[k] * odr - twi[k] * odi;
      out_im[k] = ei + twr[k] * odi + twi[k] * odr;
    }
  };
  if (half_->radix_ != 0) {
    // Fast path: the half plan's gather reads the real pairs straight
    // into the planar split buffers, permuting as it goes — no
    // interleaved complex copy at all.
    ws.re.resize(h);
    ws.im.resize(h);
    double* re = ws.re.data();
    double* im = ws.im.data();
    half_->run_direct<false>(in.data(), in.data() + 1, 2, re, im);
    unpack([&](std::size_t k) { return re[k]; },
           [&](std::size_t k) { return im[k]; });
    return;
  }

  // Even N with a chirp-z half: the packed half-size signal runs through
  // the half plan's chirp-z transform in place.
  ws.hre.resize(h);
  ws.him.resize(h);
  double* hr = ws.hre.data();
  double* hi = ws.him.data();
  for (std::size_t j = 0; j < h; ++j) {
    hr[j] = in[2 * j];
    hi[j] = in[2 * j + 1];
  }
  half_->chirp_z(half_->chirp_z_tables(/*half_output=*/false), hr, hi,
                 /*inverse=*/false, hr, hi);
  unpack([&](std::size_t k) { return hr[k]; },
         [&](std::size_t k) { return hi[k]; });
}

void FftPlan::inverse_real_half_planar(std::span<const double> in_re,
                                       std::span<const double> in_im,
                                       std::span<double> out) const {
  ftio::util::expect(in_re.size() == n_ / 2 + 1 &&
                         in_im.size() == n_ / 2 + 1 && out.size() == n_,
                     "FftPlan::inverse_real_half_planar: size mismatch");
  if (n_ == 1) {
    out[0] = in_re[0];
    return;
  }
  auto& ws = workspace();
  if (n_ % 2 != 0) {
    // Odd N: rebuild the full conjugate-symmetric spectrum and run the
    // complex inverse; the imaginary parts of the result are rounding
    // noise and land back in the scratch lane.
    const std::size_t h = n_ / 2;
    ws.hre.resize(n_);
    ws.him.resize(n_);
    double* hr = ws.hre.data();
    double* hi = ws.him.data();
    hr[0] = in_re[0];
    hi[0] = 0.0;
    for (std::size_t k = 1; k <= h; ++k) {
      hr[k] = in_re[k];
      hi[k] = in_im[k];
      hr[n_ - k] = in_re[k];
      hi[n_ - k] = -in_im[k];
    }
    if (radix_ != 0) {  // N = 3 or 5, as in forward_real_half_planar
      ws.re.resize(n_);
      ws.im.resize(n_);
      run_direct<true>(hr, hi, 1, ws.re.data(), ws.im.data());
      const double scale = 1.0 / static_cast<double>(n_);
      for (std::size_t k = 0; k < n_; ++k) out[k] = ws.re[k] * scale;
      return;
    }
    chirp_z(chirp_z_tables(/*half_output=*/false), hr, hi, /*inverse=*/true,
            out.data(), hi);
    return;
  }

  // Even N: fold the half spectrum back into the N/2-point packed signal
  // Z_k = E_k + i*O_k (E/O the even/odd-sample spectra, O recovered with
  // the conjugate unpack twiddle), inverse-transform it, and deinterleave
  // z_j = x[2j] + i*x[2j+1]. DC and Nyquist imaginary parts are forced to
  // zero — a real signal cannot produce them.
  ensure_real_tables();
  const std::size_t h = n_ / 2;
  struct Z {
    double r, i;
  };
  // Bin 0 of the packed signal folds DC with Nyquist (both forced real);
  // peeling it keeps the interior fold branch-free.
  const Z z0{0.5 * (in_re[0] + in_re[h]), 0.5 * (in_re[0] - in_re[h])};
  const auto z_at = [&](std::size_t k) -> Z {  // k in [1, h)
    const double ar = in_re[k];
    const double ai = in_im[k];
    const double br = in_re[h - k];
    const double bi = -in_im[h - k];
    const double er = 0.5 * (ar + br);
    const double ei = 0.5 * (ai + bi);
    const double dr = 0.5 * (ar - br);
    const double di = 0.5 * (ai - bi);
    // odd = conj(tw_k) * d;  Z_k = E_k + i * O_k
    const double odr = rtw_re_[k] * dr + rtw_im_[k] * di;
    const double odi = rtw_re_[k] * di - rtw_im_[k] * dr;
    return {er - odi, ei + odr};
  };
  if (half_->radix_ != 0) {
    ws.re.resize(h);
    ws.im.resize(h);
    double* re = ws.re.data();
    double* im = ws.im.data();
    if (half_->pow2_ && h > 1 && h < detail::kBlockedBitrevMinN) {
      // Scatter into bit-reversed order so the split passes run directly
      // (bitrev[0] == 0: z0 lands in slot 0).
      const std::uint32_t* bp = half_->bitrev_.data();
      re[0] = z0.r;
      im[0] = z0.i;
      for (std::size_t k = 1; k < h; ++k) {
        const Z z = z_at(k);
        const std::size_t d = bp[k];
        re[d] = z.r;
        im[d] = z.i;
      }
      half_->split_passes(re, im, /*invert=*/true);
    } else {
      // Materialise the fold in linear order and let the half plan's own
      // gather permute it: the cache-blocked permutation at large powers
      // of two, the radix-r gather otherwise. Same values into the same
      // slots as the direct scatter above, so the choice never changes
      // results.
      ws.re2.resize(h);
      ws.im2.resize(h);
      ws.re2[0] = z0.r;
      ws.im2[0] = z0.i;
      for (std::size_t k = 1; k < h; ++k) {
        const Z z = z_at(k);
        ws.re2[k] = z.r;
        ws.im2[k] = z.i;
      }
      half_->run_direct<true>(ws.re2.data(), ws.im2.data(), 1, re, im);
    }
    const double scale = 1.0 / static_cast<double>(h);
    for (std::size_t j = 0; j < h; ++j) {
      out[2 * j] = re[j] * scale;
      out[2 * j + 1] = im[j] * scale;
    }
    return;
  }

  ws.hre.resize(h);
  ws.him.resize(h);
  double* hr = ws.hre.data();
  double* hi = ws.him.data();
  hr[0] = z0.r;
  hi[0] = z0.i;
  for (std::size_t k = 1; k < h; ++k) {
    const Z z = z_at(k);
    hr[k] = z.r;
    hi[k] = z.i;
  }
  // In place, including the 1/(N/2) scaling.
  half_->chirp_z(half_->chirp_z_tables(/*half_output=*/false), hr, hi,
                 /*inverse=*/true, hr, hi);
  for (std::size_t j = 0; j < h; ++j) {
    out[2 * j] = hr[j];
    out[2 * j + 1] = hi[j];
  }
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

struct PlanCache::Impl {
  mutable ftio::util::Mutex mutex;
  std::size_t capacity FTIO_GUARDED_BY(mutex);
  // MRU-ordered list of (size, plan); map values point into the list.
  std::list<std::pair<std::size_t, std::shared_ptr<const FftPlan>>> lru
      FTIO_GUARDED_BY(mutex);
  std::unordered_map<std::size_t,
                     std::list<std::pair<std::size_t,
                                         std::shared_ptr<const FftPlan>>>::
                         iterator>
      index FTIO_GUARDED_BY(mutex);
  // In-flight constructions, keyed by size: late arrivals block on the
  // winner's future instead of duplicating a potentially multi-ms build.
  // The Build objects themselves are unguarded — the winning thread owns
  // the promise, waiters only touch their shared_future copy.
  struct Build {
    std::promise<std::shared_ptr<const FftPlan>> promise;
    std::shared_future<std::shared_ptr<const FftPlan>> future;
  };
  std::unordered_map<std::size_t, std::shared_ptr<Build>> building
      FTIO_GUARDED_BY(mutex);
  std::uint64_t hits FTIO_GUARDED_BY(mutex) = 0;
  std::uint64_t misses FTIO_GUARDED_BY(mutex) = 0;
  std::uint64_t miss_waits FTIO_GUARDED_BY(mutex) = 0;
  std::uint64_t evictions FTIO_GUARDED_BY(mutex) = 0;

  void evict_to_capacity_locked() FTIO_REQUIRES(mutex) {
    while (lru.size() > capacity) {
      index.erase(lru.back().first);
      lru.pop_back();
      ++evictions;
    }
  }
};

PlanCache::PlanCache(std::size_t capacity) : impl_(new Impl) {
  impl_->capacity = capacity == 0 ? 1 : capacity;
}

PlanCache::~PlanCache() = default;

std::shared_ptr<const FftPlan> PlanCache::get(std::size_t n) {
  std::shared_ptr<Impl::Build> build;
  std::shared_future<std::shared_ptr<const FftPlan>> wait_on;
  {
    const ftio::util::LockGuard lock(impl_->mutex);
    auto it = impl_->index.find(n);
    if (it != impl_->index.end()) {
      impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
      ++impl_->hits;
      return it->second->second;
    }
    auto in_flight = impl_->building.find(n);
    if (in_flight != impl_->building.end()) {
      // Another thread is constructing this size right now: block on its
      // future instead of building a duplicate. The wait happens outside
      // this scope — the builder needs the mutex to publish its result.
      ++impl_->miss_waits;
      wait_on = in_flight->second->future;
    } else {
      build = std::make_shared<Impl::Build>();
      build->future = build->promise.get_future().share();
      impl_->building.emplace(n, build);
    }
  }
  if (wait_on.valid()) return wait_on.get();
  // Construct outside the lock: plan construction can recurse into the
  // cache (Bluestein's power-of-two sub-plan, the real-path half plan) and
  // may take milliseconds for large N. The `building` slot guarantees this
  // thread is the only one constructing size n.
  std::shared_ptr<const FftPlan> plan;
  try {
    plan = std::make_shared<const FftPlan>(n);
  } catch (...) {
    {
      const ftio::util::LockGuard lock(impl_->mutex);
      impl_->building.erase(n);
    }
    build->promise.set_exception(std::current_exception());
    throw;
  }
  {
    const ftio::util::LockGuard lock(impl_->mutex);
    ++impl_->misses;
    impl_->lru.emplace_front(n, plan);
    impl_->index[n] = impl_->lru.begin();
    impl_->building.erase(n);
    impl_->evict_to_capacity_locked();
  }
  build->promise.set_value(plan);
  return plan;
}

PlanCache::Stats PlanCache::stats() const {
  const ftio::util::LockGuard lock(impl_->mutex);
  Stats s;
  s.hits = impl_->hits;
  s.misses = impl_->misses;
  s.miss_waits = impl_->miss_waits;
  s.evictions = impl_->evictions;
  s.size = impl_->lru.size();
  return s;
}

std::size_t PlanCache::capacity() const {
  const ftio::util::LockGuard lock(impl_->mutex);
  return impl_->capacity;
}

void PlanCache::set_capacity(std::size_t capacity) {
  const ftio::util::LockGuard lock(impl_->mutex);
  impl_->capacity = capacity == 0 ? 1 : capacity;
  impl_->evict_to_capacity_locked();
}

void PlanCache::clear() {
  const ftio::util::LockGuard lock(impl_->mutex);
  impl_->lru.clear();
  impl_->index.clear();
  impl_->hits = 0;
  impl_->misses = 0;
  impl_->miss_waits = 0;
  impl_->evictions = 0;
}

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const FftPlan> get_plan(std::size_t n) {
  return plan_cache().get(n);
}

// ---------------------------------------------------------------------------
// Allocation-free entry points
// ---------------------------------------------------------------------------

void fft_planar_into(std::span<const double> in_re,
                     std::span<const double> in_im,
                     std::span<double> out_re, std::span<double> out_im) {
  ftio::util::expect(!in_re.empty(), "fft_planar_into: empty input");
  get_plan(in_re.size())->forward_planar(in_re, in_im, out_re, out_im);
}

void ifft_planar_into(std::span<const double> in_re,
                      std::span<const double> in_im,
                      std::span<double> out_re, std::span<double> out_im) {
  ftio::util::expect(!in_re.empty(), "ifft_planar_into: empty input");
  get_plan(in_re.size())->inverse_planar(in_re, in_im, out_re, out_im);
}

void rfft_half_planar_into(std::span<const double> in,
                           std::span<double> out_re,
                           std::span<double> out_im) {
  ftio::util::expect(!in.empty(), "rfft_half_planar_into: empty input");
  get_plan(in.size())->forward_real_half_planar(in, out_re, out_im);
}

void irfft_half_planar_into(std::span<const double> in_re,
                            std::span<const double> in_im,
                            std::span<double> out) {
  ftio::util::expect(!out.empty(), "irfft_half_planar_into: empty output");
  get_plan(out.size())->inverse_real_half_planar(in_re, in_im, out);
}

// ---------------------------------------------------------------------------
// detail: scalar radix-2 reference kernel
// ---------------------------------------------------------------------------

namespace detail {

Radix2Tables::Radix2Tables(std::size_t n) {
  ftio::util::expect(is_power_of_two(n), "Radix2Tables: n must be 2^k");
  bitrev = build_bitrev(n);
  twiddle.resize(n / 2);
  for (std::size_t j = 0; j < n / 2; ++j) twiddle[j] = unit_root(j, n);
}

namespace {

template <bool Invert>
void radix2_core(std::span<Complex> a,
                 const std::vector<std::uint32_t>& bitrev,
                 const std::vector<Complex>& twiddle) {
  const std::size_t n = a.size();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    const Complex u = a[i];
    const Complex v = a[i + 1];
    a[i] = u + v;
    a[i + 1] = u - v;
  }
  for (std::size_t len = 4; len <= n; len <<= 1) {
    const std::size_t stride = n / len;  // twiddle table stride
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        Complex w = twiddle[j * stride];
        if constexpr (Invert) w = std::conj(w);
        const Complex u = a[i + j];
        const Complex v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
      }
    }
  }
}

}  // namespace

void radix2_scalar(std::span<Complex> a, const Radix2Tables& tables,
                   bool invert) {
  ftio::util::expect(a.size() == tables.bitrev.size() || a.size() <= 1,
                     "radix2_scalar: size mismatch");
  if (a.size() < 2) return;
  if (invert) {
    radix2_core<true>(a, tables.bitrev, tables.twiddle);
  } else {
    radix2_core<false>(a, tables.bitrev, tables.twiddle);
  }
}

}  // namespace detail

}  // namespace ftio::signal
