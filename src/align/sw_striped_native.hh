/**
 * @file
 * Native hardware-SIMD striped Smith-Waterman — the execution
 * backend the serving engine scans the database with.
 *
 * Strictly separate from the traced/simulated kernels: those keep
 * using the portable vector *model* (vec/simd.hh) so the paper's
 * Table III instruction counts are untouched. This backend exists
 * to make `bioarch-serve` run as fast as the hardware allows
 * (Farrar-striped layout, 8-bit saturating lanes, lazy-F loop —
 * the SSW/SWIPE lineage the paper's SW kernels led to).
 *
 * Overflow ladder (classic Farrar/SSW): every subject is scanned
 * with unsigned 8-bit lanes first; a subject whose score enters the
 * 8-bit saturation range is rescanned with signed 16-bit lanes; a
 * subject that saturates those too falls back to the scalar
 * reference. Final scores are therefore bit-identical to
 * align::smithWatermanScore for every input (asserted by
 * tests/sw_native_test.cc across all compiled backends).
 *
 * Backend selection: the BIOARCH_NATIVE_SIMD CMake option compiles
 * the intrinsic variants (SSE2 on x86-64, AVX2 in its own -mavx2
 * TU, NEON on aarch64); the portable autovectorizable variant is
 * always compiled. bestNativeBackend() picks the widest variant the
 * running CPU supports (AVX2 is additionally guarded by runtime
 * CPUID), and the BIOARCH_SIMD_BACKEND environment variable forces
 * a specific backend — including "model", which tells the serving
 * layer to keep using the instruction-accurate model kernels.
 */

#ifndef BIOARCH_ALIGN_SW_STRIPED_NATIVE_HH
#define BIOARCH_ALIGN_SW_STRIPED_NATIVE_HH

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "bio/scoring.hh"
#include "bio/sequence.hh"
#include "types.hh"
#include "vec/simd_native.hh"

namespace bioarch::align
{

/**
 * Which kernel implementation scans the database. Model is the
 * software Altivec model (vec/simd.hh) — not a native backend, but
 * part of this enum so the serving engine and the benches can A/B
 * the two layers through one switch.
 */
enum class SimdBackend
{
    Model,
    Portable,
    SSE2,
    AVX2,
    NEON,
};

/** Lower-case display name ("model", "sse2", ...). */
std::string_view backendName(SimdBackend backend);

/** Parse a backend name; "auto" maps to bestNativeBackend(). */
std::optional<SimdBackend> parseBackend(std::string_view name);

/**
 * The native backends this binary can actually run, best first:
 * compiled in (BIOARCH_NATIVE_SIMD + ISA availability) and passing
 * the runtime CPUID guard. Always contains at least Portable.
 */
const std::vector<SimdBackend> &compiledNativeBackends();

/** The widest runnable native backend (never Model). */
SimdBackend bestNativeBackend();

/**
 * The backend the serving layer uses when nothing else is
 * specified: BIOARCH_SIMD_BACKEND if set (unknown or unrunnable
 * values fall back to auto), else bestNativeBackend().
 */
SimdBackend defaultScanBackend();

/** Ladder accounting, for tests and bench/obs reporting. */
struct NativeScanStats
{
    std::uint64_t scans = 0;         ///< subjects scanned
    std::uint64_t rescans16 = 0;     ///< 8-bit saturated, redone @16
    std::uint64_t rescansScalar = 0; ///< 16-bit saturated too
    /** Subjects whose 8-bit pass ran in the inter-sequence kernel. */
    std::uint64_t interSequence = 0;
    /** Subjects scanned by the striped kernel. */
    std::uint64_t striped = 0;
    /** Score-only bands (FASTA opt, BLAST gapped) run by the SIMD
     * band kernel, and by the scalar band (no profile, or a band
     * the kernel declined). */
    std::uint64_t bandSimd = 0;
    std::uint64_t bandScalar = 0;
};

/** Merge per-task ladder counts (e.g. per-shard into per-batch). */
inline NativeScanStats &
operator+=(NativeScanStats &a, const NativeScanStats &b)
{
    a.scans += b.scans;
    a.rescans16 += b.rescans16;
    a.rescansScalar += b.rescansScalar;
    a.interSequence += b.interSequence;
    a.striped += b.striped;
    a.bandSimd += b.bandSimd;
    a.bandScalar += b.bandScalar;
    return a;
}

/**
 * A 16-bit striped score profile of one residue string, padded to
 * the backend's i16 lane count and 64-byte aligned:
 * scores[residue][segment][lane] = matrix(residue, query[s + lane *
 * seg]), pad rows NativeQueryProfile::padScore.
 */
struct StripedProfile16
{
    vec::native::AlignedArray<std::int16_t> scores;
    int seg = 0; ///< segment length, ceil(m / lanes)
};

/** Build the 16-bit striped profile of @p query[0..m). */
StripedProfile16 makeStripedProfile16(const bio::Residue *query,
                                      int m,
                                      const bio::ScoringMatrix &matrix,
                                      SimdBackend backend);

/**
 * Striped query profile for one native backend: the 8-bit biased
 * and 16-bit raw score layouts, both padded to the backend's lane
 * count and 64-byte aligned. Built once per query and shared
 * read-only across every shard-scan task. The query and matrix
 * must outlive the profile (it keeps references for the scalar
 * fallback level).
 */
class NativeQueryProfile
{
  public:
    /** Pad sentinel of the 16-bit level (as the model profile). */
    static constexpr std::int16_t padScore = -1000;

    NativeQueryProfile(const bio::Sequence &query,
                       const bio::ScoringMatrix &matrix,
                       SimdBackend backend);

    SimdBackend backend() const { return _backend; }
    const bio::Sequence &query() const { return *_query; }
    int queryLength() const { return _m; }
    /** Bias added to every 8-bit profile score (= -min score). */
    int bias() const { return _bias; }
    /** False when the matrix range does not fit 8-bit lanes. */
    bool hasU8() const { return _u8 != nullptr; }

    int segmentLength8() const { return _seg8; }
    int segmentLength16() const { return _p16.seg; }
    const std::uint8_t *profile8() const { return _u8.get(); }
    const std::int16_t *profile16() const { return _p16.scores.get(); }
    /** The 16-bit level as a whole (the traceback's end pass). */
    const StripedProfile16 &striped16() const { return _p16; }
    const bio::ScoringMatrix &matrix() const { return *_matrix; }

    /**
     * Transposed biased matrix for the inter-sequence kernel: one
     * row per *subject* symbol (numSymbols rows plus one all-zero
     * pad row for idle lanes), each row numSymbols biased scores
     * indexed by *query* residue. Built whenever the 8-bit level
     * exists (hasU8()); nullptr otherwise.
     */
    const std::uint8_t *interMatrix() const { return _matT.get(); }

  private:
    const bio::Sequence *_query;
    const bio::ScoringMatrix *_matrix;
    SimdBackend _backend;
    int _m;
    int _bias;
    int _seg8;
    StripedProfile16 _p16;
    vec::native::AlignedArray<std::uint8_t> _u8;
    vec::native::AlignedArray<std::uint8_t> _matT;
};

/**
 * Scan one subject with the profile's backend, climbing the
 * 8-bit -> 16-bit -> scalar overflow ladder as levels saturate.
 * The score is exactly align::smithWatermanScore's; like the model
 * striped kernel, queryEnd is not tracked (-1) unless the scalar
 * fallback level ran.
 *
 * @param subject encoded residues (any contiguous storage — a
 *        Sequence's own vector or the database's packed arena)
 * @param[out] cells optional logical DP cell counter (m*n per call)
 * @param[out] stats optional ladder accounting
 */
LocalScore swStripedNativeScan(const NativeQueryProfile &profile,
                               const bio::Residue *subject,
                               std::size_t n,
                               const bio::GapPenalties &gaps,
                               std::uint64_t *cells = nullptr,
                               NativeScanStats *stats = nullptr);

/** Convenience overload scanning a Sequence. */
LocalScore swStripedNativeScan(const NativeQueryProfile &profile,
                               const bio::Sequence &subject,
                               const bio::GapPenalties &gaps,
                               std::uint64_t *cells = nullptr,
                               NativeScanStats *stats = nullptr);

/**
 * The upper half of the overflow ladder on its own: scan at 16
 * bits, falling back to the scalar reference (counted in
 * stats->rescansScalar) if those lanes saturate too. Used by the
 * striped scan after 8-bit saturation and by the inter-sequence
 * driver to rescan clipped lanes — both climbs are the same code,
 * so the two kernels share one ladder contract. Does not touch
 * stats->scans/rescans16 or the cell count; the caller owns those.
 */
LocalScore swStripedScan16Tail(const NativeQueryProfile &profile,
                               const bio::Residue *subject,
                               std::size_t n,
                               const bio::GapPenalties &gaps,
                               NativeScanStats *stats = nullptr);

/**
 * The traceback's end-cell pass (detail::stripedEndI16) on
 * @p backend: a 16-bit striped local pass of the query profiled in
 * @p profile16 over subject[0..n) that stops at the first column
 * whose best cell reaches @p target. Returns the score reached
 * (== target on success) with subjectEnd = that first column and
 * queryEnd = the smallest row in it with H == target. @p target
 * must be positive and below 32767, and the gap costs must fit
 * 16-bit lanes.
 */
LocalScore swStripedEnd16(SimdBackend backend,
                          const StripedProfile16 &profile16,
                          const bio::Residue *subject, std::size_t n,
                          const bio::GapPenalties &gaps, int target);

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_SW_STRIPED_NATIVE_HH
