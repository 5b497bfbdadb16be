/**
 * @file
 * The band kernel template (banded_native.hh), instantiated once
 * per native i16 backend. Private to sw_striped_native.cc and
 * sw_striped_avx2.cc — everything else goes through
 * bandedScoreNative().
 *
 * Column j of the band is a run of lanes, lane k holding row
 * i = j - d_hi + k, laid over ceil(width / lanes) registers and
 * mirrored in two linear buffers (H and E of the previous column).
 * Per register the recurrence of banded_impl.hh becomes:
 *
 *   E  = max(0, H[k+1] - open, E[k+1] - ext)   unaligned +1 loads
 *   H' = max(diag + score, E)                  diag = same lane
 *   F  = max(0, H'[k-1] - open, F[k-1] - ext)  prefix over lanes
 *   H  = max(H', F)
 *
 * F from H' rather than H is exact because open >= ext: a cell
 * whose H is its F passes F - ext down, never less than H - open.
 * The prefix runs in log2(lanes) shift/subtract/max steps inside a
 * register; the flow from earlier registers enters as the previous
 * register's last-lane outflow, decayed by k * ext across lanes.
 *
 * Lanes above row 0, below the window's last row, or past the band
 * width are masked to 0 in H and E. The scalar band treats every
 * such neighbour as 0 too, so scores are bit-identical.
 */

#ifndef BIOARCH_ALIGN_BANDED_NATIVE_IMPL_HH
#define BIOARCH_ALIGN_BANDED_NATIVE_IMPL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "banded_native.hh"
#include "bio/alphabet.hh"

namespace bioarch::align::detail
{

/** Lanes of H/E buffer the widest band needs on any backend, plus
 * the zero register the last +1 load reads past the band. */
inline constexpr int bandBufferLanes =
    (2 * BandProfile::maxHalfWidth + 1 + 15) / 16 * 16 + 16;

/** One log-step of the F prefix: lanes take the value K lanes up,
 * decayed by K gap extensions. */
template <class V, int K>
inline typename V::Reg
prefixStep(typename V::Reg f, typename V::Reg k_ext)
{
    return V::max(f, V::subs(V::template shiftInZero<K>(f), k_ext));
}

/** @p k extension costs, clamped to the lane range. */
inline std::int16_t
extRun(int k, int ext_cost)
{
    return static_cast<std::int16_t>(std::min(32767, k * ext_cost));
}

/**
 * Best H of the band over query rows [qlo, qlo + m) and
 * subject[0, n), in saturating 16-bit lanes (the caller checks the
 * result against the saturation bound). Requires
 * 0 <= half_width <= BandProfile::maxHalfWidth and
 * 0 <= ext_cost <= open_cost <= 32767.
 *
 * @param scores BandProfile::scores() of the whole query
 * @param stride BandProfile::stride()
 */
template <class V>
int
bandedScoreI16(const std::int16_t *scores, std::size_t stride, int qlo,
               int m, const bio::Residue *subject, int n, int open_cost,
               int ext_cost, int center, int half_width)
{
    using Reg = typename V::Reg;
    using Elem = typename V::Elem;
    constexpr int lanes = V::lanes;
    static_assert(lanes == 8 || lanes == 16);

    const int d_lo = center - half_width;
    const int d_hi = center + half_width;
    const int width = 2 * half_width + 1;
    const int regs = (width + lanes - 1) / lanes;
    // Columns whose band meets rows [0, m).
    const int j_begin = std::max(0, d_lo);
    const int j_end = std::min(n, m + d_hi);
    if (m <= 0 || j_begin >= j_end)
        return 0;

    // H and E of the previous column, updated in place: register r
    // reads lanes up to (r + 1) * lanes before it is overwritten.
    alignas(64) Elem h[bandBufferLanes] = {};
    alignas(64) Elem e[bandBufferLanes] = {};

    const Reg v_zero = V::zero();
    const Reg v_open = V::splat(static_cast<Elem>(open_cost));
    const Reg v_ext = V::splat(static_cast<Elem>(ext_cost));
    const Reg v_ext2 = V::splat(extRun(2, ext_cost));
    const Reg v_ext4 = V::splat(extRun(4, ext_cost));
    const Reg v_ext8 = V::splat(extRun(8, ext_cost));
    const Reg v_lanes = V::splat(static_cast<Elem>(lanes));
    alignas(64) Elem ramp[lanes];
    alignas(64) Elem decay[lanes];
    for (int k = 0; k < lanes; ++k) {
        ramp[k] = static_cast<Elem>(k);
        decay[k] = extRun(k, ext_cost);
    }
    const Reg v_ramp = V::load(ramp);
    const Reg v_decay = V::load(decay);

    Reg v_best = v_zero;
    for (int j = j_begin; j < j_end; ++j) {
        // Lane k holds row j - d_hi + k: valid for
        // d_hi - j <= k < min(width, m + d_hi - j).
        const Reg v_lo =
            V::splat(static_cast<Elem>(std::max(-1, d_hi - j - 1)));
        const Reg v_hi =
            V::splat(static_cast<Elem>(std::min(width, m + d_hi - j)));
        const Elem *prof =
            scores + static_cast<std::size_t>(subject[j]) * stride
            + (qlo + j - d_hi);
        Reg lane = v_ramp;
        Reg inflow = v_zero;
        for (int r = 0; r < regs; ++r) {
            Elem *hr = h + r * lanes;
            Elem *er = e + r * lanes;
            const Reg mask = V::band(V::cmpgt(lane, v_lo),
                                     V::cmpgt(v_hi, lane));
            const Reg v_e = V::band(
                V::max(V::max(V::subs(V::loadu(hr + 1), v_open),
                              V::subs(V::loadu(er + 1), v_ext)),
                       v_zero),
                mask);
            const Reg h_pre = V::band(
                V::max(V::adds(V::load(hr), V::loadu(prof + r * lanes)),
                       v_e),
                mask);
            const Reg out = V::max(V::subs(h_pre, v_open), v_zero);
            Reg f = V::shiftInZero(out);
            f = prefixStep<V, 1>(f, v_ext);
            f = prefixStep<V, 2>(f, v_ext2);
            f = prefixStep<V, 4>(f, v_ext4);
            if constexpr (lanes == 16)
                f = prefixStep<V, 8>(f, v_ext8);
            f = V::max(f, V::subs(V::broadcastLast(inflow), v_decay));
            const Reg v_h = V::band(V::max(h_pre, f), mask);
            V::store(hr, v_h);
            V::store(er, v_e);
            v_best = V::max(v_best, v_h);
            // What flows into the next register's lane 0.
            inflow = V::max(out, V::subs(f, v_ext));
            lane = V::adds(lane, v_lanes);
        }
    }
    return V::hmax(v_best);
}

} // namespace bioarch::align::detail

#endif // BIOARCH_ALIGN_BANDED_NATIVE_IMPL_HH
