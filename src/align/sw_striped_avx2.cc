/**
 * @file
 * The only translation unit compiled with -mavx2: the AVX2 kernel
 * instantiations (striped u8/i16, the traceback's i16 end pass,
 * the i16 band kernel and inter-sequence u8), reached through plain function pointers so
 * the rest of the library stays at the baseline ISA and dispatch
 * is guarded by runtime CPUID
 * (sw_striped_native.cc / sw_intersequence_native.cc).
 */

#include "banded_native_impl.hh"
#include "sw_intersequence_native_impl.hh"
#include "sw_striped_native_impl.hh"

#include "vec/simd_native.hh"

#if !defined(__AVX2__)
#error "sw_striped_avx2.cc must be compiled with -mavx2"
#endif

namespace bioarch::align::detail
{

LocalScore
scanU8Avx2(const std::uint8_t *profile, int seg,
           const bio::Residue *subject, std::size_t n,
           int open_cost, int ext_cost, int bias, bool *saturated)
{
    return stripedScanU8<vec::native::Avx2U8>(
        profile, seg, subject, n, open_cost, ext_cost, bias,
        saturated);
}

LocalScore
scanI16Avx2(const std::int16_t *profile, int seg,
            const bio::Residue *subject, std::size_t n,
            int open_cost, int ext_cost, bool *saturated)
{
    return stripedScanI16<vec::native::Avx2I16>(
        profile, seg, subject, n, open_cost, ext_cost, saturated);
}

LocalScore
endI16Avx2(const std::int16_t *profile, int seg,
           const bio::Residue *subject, std::size_t n, int open_cost,
           int ext_cost, int target)
{
    return stripedEndI16<vec::native::Avx2I16>(
        profile, seg, subject, n, open_cost, ext_cost, target);
}

int
bandI16Avx2(const std::int16_t *scores, std::size_t stride, int qlo,
            int m, const bio::Residue *subject, int n, int open_cost,
            int ext_cost, int center, int half_width)
{
    return bandedScoreI16<vec::native::Avx2I16>(
        scores, stride, qlo, m, subject, n, open_cost, ext_cost, center,
        half_width);
}

void
interScanU8Avx2(const std::uint8_t *mat_t, const bio::Residue *query,
                int m, const InterSubject *subjects,
                std::size_t count, int open_cost, int ext_cost,
                int bias, InterLaneResult *results)
{
    interScanU8<vec::native::Avx2U8>(mat_t, query, m, subjects,
                                     count, open_cost, ext_cost,
                                     bias, results);
}

} // namespace bioarch::align::detail
