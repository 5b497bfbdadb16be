/**
 * @file
 * Correctness gates of the traceback reporting tier.
 *
 * The central contracts:
 *  - hirschbergAlign's score is bit-identical to the full-matrix
 *    smithWatermanAlign on fuzzed pairs, and its CIGAR replays to
 *    exactly that score through the cigarScore oracle;
 *  - the linear-space guarantee holds: peak live DP cells stay
 *    O(min(m, n)) even on long pairs;
 *  - bandedExtendAlign with the X-drop disabled scores
 *    bit-identically to the score-only banded scan;
 *  - blastAlign / blastnAlign reproduce exactly the score their
 *    score-only twins ranked by;
 *  - nativeTraceback (SIMD end/begin passes + doubling band) scores
 *    bit-identically to smithWatermanScore on every compiled
 *    backend, ends at the full matrix's first-column /
 *    smallest-row argmax, and reports which path emitted it.
 */

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "align/banded.hh"
#include "align/blast.hh"
#include "align/blastn.hh"
#include "align/smith_waterman.hh"
#include "align/sw_striped_native.hh"
#include "align/traceback/banded_extend.hh"
#include "align/traceback/cigar.hh"
#include "align/traceback/hirschberg.hh"
#include "align/traceback/native_traceback.hh"
#include "bio/nucleotide.hh"
#include "bio/random.hh"
#include "bio/scoring.hh"
#include "bio/synthetic.hh"

namespace
{

using namespace bioarch;
using namespace bioarch::align;

bio::Sequence
randomDnaSeq(bio::Rng &rng, int length)
{
    std::vector<bio::Residue> res(static_cast<std::size_t>(length));
    for (auto &r : res)
        r = static_cast<bio::Residue>(rng.below(4));
    return bio::Sequence("DNA", "", std::move(res));
}

bio::Sequence
mutateDnaSeq(bio::Rng &rng, const bio::Sequence &src, double identity)
{
    std::vector<bio::Residue> res;
    res.reserve(src.length());
    for (std::size_t i = 0; i < src.length(); ++i) {
        const double p =
            static_cast<double>(rng.below(1000)) / 1000.0;
        if (p < identity) {
            res.push_back(src[i]);
        } else if (rng.below(8) == 0) {
            // Short indel: skip a base or insert a random one.
            if (rng.below(2) == 0)
                continue;
            res.push_back(static_cast<bio::Residue>(rng.below(4)));
            res.push_back(src[i]);
        } else {
            res.push_back(static_cast<bio::Residue>(rng.below(4)));
        }
    }
    if (res.empty())
        res.push_back(0);
    return bio::Sequence("MUT", "", std::move(res));
}

/** Assert every reporting-tier invariant of one alignment. */
void
checkAlignment(const CigarAlignment &aln, const bio::Sequence &q,
               const bio::Sequence &s,
               const bio::ScoringMatrix &matrix,
               const bio::GapPenalties &gaps)
{
    if (aln.empty()) {
        EXPECT_EQ(aln.score, 0);
        EXPECT_GT(aln.qBegin, aln.qEnd);
        return;
    }
    EXPECT_GT(aln.score, 0);
    EXPECT_GE(aln.qBegin, 0);
    EXPECT_GE(aln.sBegin, 0);
    EXPECT_LT(aln.qEnd, static_cast<int>(q.length()));
    EXPECT_LT(aln.sEnd, static_cast<int>(s.length()));
    EXPECT_LE(aln.qBegin, aln.qEnd);
    EXPECT_LE(aln.sBegin, aln.sEnd);
    EXPECT_EQ(cigarQuerySpan(aln.cigar), aln.qEnd - aln.qBegin + 1);
    EXPECT_EQ(cigarSubjectSpan(aln.cigar),
              aln.sEnd - aln.sBegin + 1);
    EXPECT_GE(aln.identities, 0);
    EXPECT_LE(aln.identities, aln.columns);
    // The oracle: the CIGAR must replay to exactly the reported
    // score (throws on any out-of-bounds or span inconsistency).
    EXPECT_EQ(cigarScore(aln, q, s, matrix, gaps), aln.score);
}

const std::vector<bio::GapPenalties> &
extremeGaps()
{
    // Default, near-free open, brutal open, linear-ish heavy extend.
    static const std::vector<bio::GapPenalties> gaps = {
        {10, 1}, {1, 1}, {40, 2}, {0, 5}};
    return gaps;
}

TEST(Cigar, AppendMergesAdjacentRunsAndFormats)
{
    Cigar c;
    cigarAppend(c, 'M', 3);
    cigarAppend(c, 'M', 2);
    cigarAppend(c, 'I', 1);
    cigarAppend(c, 'I', 4);
    cigarAppend(c, 'D', 2);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(cigarToString(c), "5M5I2D");
    EXPECT_EQ(cigarQuerySpan(c), 10);
    EXPECT_EQ(cigarSubjectSpan(c), 7);
}

TEST(Cigar, ScoreOracleRejectsMalformedAlignments)
{
    bio::Rng rng(1);
    const bio::Sequence q = bio::makeRandomSequence(rng, 20);
    const bio::Sequence s = bio::makeRandomSequence(rng, 20);
    const bio::GapPenalties gaps;
    const bio::ScoringMatrix &m = bio::blosum62();

    CigarAlignment walk_out;
    walk_out.qBegin = 15;
    walk_out.qEnd = 24;
    walk_out.sBegin = 0;
    walk_out.sEnd = 9;
    walk_out.cigar = {{'M', 10}};
    EXPECT_THROW(cigarScore(walk_out, q, s, m, gaps),
                 std::invalid_argument);

    CigarAlignment span_lie;
    span_lie.qBegin = 0;
    span_lie.qEnd = 9;
    span_lie.sBegin = 0;
    span_lie.sEnd = 8; // CIGAR consumes 10 subject residues
    span_lie.cigar = {{'M', 10}};
    EXPECT_THROW(cigarScore(span_lie, q, s, m, gaps),
                 std::invalid_argument);

    CigarAlignment bad_op;
    bad_op.qBegin = 0;
    bad_op.qEnd = 1;
    bad_op.sBegin = 0;
    bad_op.sEnd = 1;
    bad_op.cigar = {{'X', 2}};
    EXPECT_THROW(cigarScore(bad_op, q, s, m, gaps),
                 std::invalid_argument);
}

TEST(Cigar, ScoreChargesSplitGapRunsAsOneGap)
{
    // Two adjacent I runs must cost one open + 3 extends, exactly
    // like the merged 3I — the oracle must not double-charge the
    // open that Myers-Miller boundary splits would expose.
    bio::Rng rng(2);
    const bio::Sequence q = bio::makeRandomSequence(rng, 5);
    const bio::Sequence s = bio::makeRandomSequence(rng, 2);
    const bio::GapPenalties gaps{10, 1};
    const bio::ScoringMatrix &m = bio::blosum62();

    CigarAlignment split;
    split.qBegin = 0;
    split.qEnd = 4;
    split.sBegin = 0;
    split.sEnd = 1;
    split.cigar = {{'M', 1}, {'I', 1}, {'I', 2}, {'M', 1}};
    CigarAlignment merged = split;
    merged.cigar = {{'M', 1}, {'I', 3}, {'M', 1}};
    EXPECT_EQ(cigarScore(split, q, s, m, gaps),
              cigarScore(merged, q, s, m, gaps));
}

TEST(Hirschberg, MatchesFullMatrixOnFuzzedProteinPairs)
{
    bio::Rng rng(0xA11C0DE);
    const bio::ScoringMatrix &matrix = bio::blosum62();
    for (int iter = 0; iter < 500; ++iter) {
        const int m = 5 + static_cast<int>(rng.below(116));
        const bio::Sequence q = bio::makeRandomSequence(rng, m);
        // Alternate unrelated and homologous subjects so both the
        // score-0 path and long gapped alignments are exercised.
        const bio::Sequence s = (iter % 2 == 0)
            ? bio::makeRandomSequence(
                  rng, 5 + static_cast<int>(rng.below(116)))
            : bio::mutate(rng, q, 0.4 + 0.05 * (iter % 10), "HOM",
                          "");
        const bio::GapPenalties gaps =
            extremeGaps()[static_cast<std::size_t>(iter)
                          % extremeGaps().size()];

        const Alignment full =
            smithWatermanAlign(q, s, matrix, gaps);
        TracebackStats stats;
        const CigarAlignment aln =
            hirschbergAlign(q, s, matrix, gaps, &stats);
        ASSERT_EQ(aln.score, full.score)
            << "pair " << iter << " open=" << gaps.open
            << " extend=" << gaps.extend;
        checkAlignment(aln, q, s, matrix, gaps);
        const std::uint64_t short_side = std::min(q.length(),
                                                  s.length());
        EXPECT_LE(stats.peakCells, 16 * (short_side + 1))
            << "linear-space bound violated at pair " << iter;
    }
}

TEST(Hirschberg, MatchesFullMatrixOnFuzzedNucleotidePairs)
{
    bio::Rng rng(0xD7A);
    const bio::ScoringMatrix m13 = bio::makeMatchMismatch(1, -3);
    const bio::ScoringMatrix m24 = bio::makeMatchMismatch(2, -4);
    for (int iter = 0; iter < 500; ++iter) {
        const int m = 8 + static_cast<int>(rng.below(150));
        const bio::Sequence q = randomDnaSeq(rng, m);
        const bio::Sequence s = (iter % 2 == 0)
            ? randomDnaSeq(rng,
                           8 + static_cast<int>(rng.below(150)))
            : mutateDnaSeq(rng, q, 0.6 + 0.04 * (iter % 10));
        const bio::ScoringMatrix &matrix =
            (iter % 4 < 2) ? m13 : m24;
        const bio::GapPenalties gaps =
            extremeGaps()[static_cast<std::size_t>(iter)
                          % extremeGaps().size()];

        const Alignment full =
            smithWatermanAlign(q, s, matrix, gaps);
        TracebackStats stats;
        const CigarAlignment aln =
            hirschbergAlign(q, s, matrix, gaps, &stats);
        ASSERT_EQ(aln.score, full.score) << "pair " << iter;
        checkAlignment(aln, q, s, matrix, gaps);
        const std::uint64_t short_side = std::min(q.length(),
                                                  s.length());
        EXPECT_LE(stats.peakCells, 16 * (short_side + 1));
    }
}

TEST(Hirschberg, AnchoredMatchesUnanchoredOnFuzzedPairs)
{
    bio::Rng rng(0xBEEF);
    const bio::ScoringMatrix &matrix = bio::blosum62();
    for (int iter = 0; iter < 200; ++iter) {
        const int m = 5 + static_cast<int>(rng.below(116));
        const bio::Sequence q = bio::makeRandomSequence(rng, m);
        const bio::Sequence s = (iter % 2 == 0)
            ? bio::makeRandomSequence(
                  rng, 5 + static_cast<int>(rng.below(116)))
            : bio::mutate(rng, q, 0.4 + 0.05 * (iter % 10), "HOM",
                          "");
        const bio::GapPenalties gaps =
            extremeGaps()[static_cast<std::size_t>(iter)
                          % extremeGaps().size()];
        const Alignment full =
            smithWatermanAlign(q, s, matrix, gaps);
        if (full.score <= 0)
            continue;
        // Full anchor (both ends from the exact scan), then the
        // half anchors the striped kernels actually produce
        // (queryEnd unknown), then an out-of-range anchor; every
        // variant must reproduce the optimal score and replay.
        const int anchors[][2] = {
            {full.queryEnd, full.subjectEnd},
            {-1, full.subjectEnd},
            {full.queryEnd, -1},
            {static_cast<int>(q.length()) + 7, -1},
        };
        for (const auto &anchor : anchors) {
            const CigarAlignment aln = hirschbergAlignAnchored(
                q.residues().data(), q.length(),
                s.residues().data(), s.length(), anchor[0],
                anchor[1], matrix, gaps);
            ASSERT_EQ(aln.score, full.score)
                << "pair " << iter << " anchor " << anchor[0]
                << "," << anchor[1];
            checkAlignment(aln, q, s, matrix, gaps);
        }
    }
}

TEST(Hirschberg, LinearSpaceHoldsOnLongPairs)
{
    bio::Rng rng(0x10E6);
    const bio::Sequence q = bio::makeRandomSequence(rng, 3000);
    const bio::Sequence s = bio::mutate(rng, q, 0.7, "HOM", "");
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;

    TracebackStats stats;
    const CigarAlignment aln =
        hirschbergAlign(q, s, matrix, gaps, &stats);
    ASSERT_FALSE(aln.empty());
    checkAlignment(aln, q, s, matrix, gaps);

    const std::uint64_t short_side = std::min(q.length(),
                                              s.length());
    const std::uint64_t full_matrix =
        static_cast<std::uint64_t>(q.length()) * s.length();
    // The whole point of the tier: peak live DP state is a few
    // linear arrays, never the full matrix.
    EXPECT_LE(stats.peakCells, 16 * (short_side + 1));
    EXPECT_LT(stats.peakCells, full_matrix / 100);
    // And the divide-and-conquer roughly doubles the cell count of
    // a single pass (sum of halves telescopes to <= 2mn plus the
    // end/begin passes).
    EXPECT_GE(stats.totalCells, full_matrix);
    EXPECT_LE(stats.totalCells, 5 * full_matrix);
}

TEST(Hirschberg, DegenerateInputs)
{
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;
    const bio::Sequence empty("E", "", std::vector<bio::Residue>{});
    const bio::Sequence one("O", "", std::vector<bio::Residue>{5});

    EXPECT_TRUE(
        hirschbergAlign(empty, one, matrix, gaps).empty());
    EXPECT_TRUE(
        hirschbergAlign(one, empty, matrix, gaps).empty());

    const CigarAlignment self =
        hirschbergAlign(one, one, matrix, gaps);
    ASSERT_FALSE(self.empty());
    EXPECT_EQ(self.cigar, (Cigar{{'M', 1}}));
    EXPECT_EQ(self.score, matrix.score(5, 5));
    EXPECT_EQ(self.identities, 1);
}

TEST(BandedExtend, ScoreMatchesScoreOnlyBandedScan)
{
    bio::Rng rng(0xBA2D);
    const bio::ScoringMatrix &matrix = bio::blosum62();
    for (int iter = 0; iter < 200; ++iter) {
        const int m = 10 + static_cast<int>(rng.below(100));
        const bio::Sequence q = bio::makeRandomSequence(rng, m);
        const bio::Sequence s = (iter % 2 == 0)
            ? bio::makeRandomSequence(
                  rng, 10 + static_cast<int>(rng.below(100)))
            : bio::mutate(rng, q, 0.5, "HOM", "");
        const int n = static_cast<int>(s.length());
        const int center =
            static_cast<int>(rng.below(
                static_cast<std::uint64_t>(m + n - 1)))
            - (m - 1);
        const int half_width = static_cast<int>(rng.below(24));
        const bio::GapPenalties gaps =
            extremeGaps()[static_cast<std::size_t>(iter)
                          % extremeGaps().size()];

        const LocalScore ref = bandedSmithWaterman(
            q, s, matrix, gaps, center, half_width);
        TracebackStats stats;
        const CigarAlignment aln = bandedExtendAlign(
            q, s, matrix, gaps, center, half_width, -1, &stats);
        ASSERT_EQ(aln.score, std::max(ref.score, 0))
            << "pair " << iter << " center=" << center
            << " half_width=" << half_width;
        if (!aln.empty()) {
            checkAlignment(aln, q, s, matrix, gaps);
            EXPECT_EQ(aln.qEnd, ref.queryEnd);
            EXPECT_EQ(aln.sEnd, ref.subjectEnd);
            // Every aligned cell sits inside the band.
            EXPECT_LE(std::abs((aln.sBegin - aln.qBegin) - center),
                      half_width);
            EXPECT_LE(std::abs((aln.sEnd - aln.qEnd) - center),
                      half_width);
        }
    }
}

TEST(BandedExtend, XdropNeverImprovesAndKeepsStrongHits)
{
    bio::Rng rng(0x00DD);
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;
    for (int iter = 0; iter < 50; ++iter) {
        const bio::Sequence q = bio::makeRandomSequence(rng, 80);
        const bio::Sequence s = bio::mutate(rng, q, 0.8, "H", "");
        const CigarAlignment full = bandedExtendAlign(
            q, s, matrix, gaps, 0, 16, -1);
        const CigarAlignment dropped = bandedExtendAlign(
            q, s, matrix, gaps, 0, 16, 30);
        EXPECT_LE(dropped.score, full.score);
        if (!dropped.empty())
            checkAlignment(dropped, q, s, matrix, gaps);
    }
}

TEST(BlastAlign, ScoreMatchesBlastScanExactly)
{
    bio::Rng rng(0xB1A57);
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;
    const BlastParams params;
    int traced = 0;
    for (int iter = 0; iter < 60; ++iter) {
        const bio::Sequence q = bio::makeRandomSequence(rng, 120);
        const NeighborhoodIndex index(q, matrix, params);
        const bio::Sequence s = (iter % 3 == 0)
            ? bio::makeRandomSequence(rng, 150)
            : bio::mutate(rng, q, 0.45 + 0.05 * (iter % 8), "H",
                          "");
        const BlastScores scan =
            blastScan(index, q, s, matrix, gaps, params);
        TracebackStats stats;
        const CigarAlignment aln = blastAlign(
            index, q, s, matrix, gaps, params, nullptr, -1, &stats);
        if (aln.empty()) {
            EXPECT_EQ(scan.score, 0) << "pair " << iter;
            continue;
        }
        ++traced;
        EXPECT_EQ(aln.score, scan.score) << "pair " << iter;
        checkAlignment(aln, q, s, matrix, gaps);
    }
    EXPECT_GT(traced, 10); // the fuzz must actually hit the gapped path
}

TEST(BlastnScan, ResidueSubjectMatchesPackedSubject)
{
    bio::Rng rng(0xDAA);
    const BlastnParams params;
    for (int iter = 0; iter < 40; ++iter) {
        const bio::PackedDna q = bio::makeRandomDna(rng, 300);
        const bio::PackedDna sp = (iter % 2 == 0)
            ? bio::makeRandomDna(rng, 400)
            : bio::mutateDna(rng, q, 0.85, "H");
        const DnaWordIndex index(q, params.wordSize);

        std::vector<bio::Residue> sr(sp.length());
        for (std::size_t i = 0; i < sp.length(); ++i)
            sr[i] = static_cast<bio::Residue>(sp[i]);

        std::uint64_t cells_packed = 0;
        std::uint64_t cells_res = 0;
        const BlastnScores a =
            blastnScan(index, q, sp, params, &cells_packed);
        const BlastnScores b = blastnScan(
            index, q, sr.data(), sr.size(), params, &cells_res);
        EXPECT_EQ(a.score, b.score);
        EXPECT_EQ(a.bestUngapped, b.bestUngapped);
        EXPECT_EQ(a.wordHits, b.wordHits);
        EXPECT_EQ(a.extensionsTried, b.extensionsTried);
        EXPECT_EQ(a.gappedExtensions, b.gappedExtensions);
        EXPECT_EQ(cells_packed, cells_res);
    }
}

TEST(BlastnAlign, ScoreMatchesBlastnScanExactly)
{
    bio::Rng rng(0xDA2);
    const BlastnParams params;
    const bio::ScoringMatrix mm =
        bio::makeMatchMismatch(params.matchScore,
                               params.mismatchScore);
    const bio::GapPenalties gaps{params.gapOpen, params.gapExtend};
    int traced = 0;
    for (int iter = 0; iter < 40; ++iter) {
        const bio::PackedDna q = bio::makeRandomDna(rng, 400);
        const bio::PackedDna sp = (iter % 3 == 0)
            ? bio::makeRandomDna(rng, 500)
            : bio::mutateDna(rng, q, 0.8 + 0.02 * (iter % 8), "H");
        const DnaWordIndex index(q, params.wordSize);
        std::vector<bio::Residue> sr(sp.length());
        for (std::size_t i = 0; i < sp.length(); ++i)
            sr[i] = static_cast<bio::Residue>(sp[i]);

        const BlastnScores scan =
            blastnScan(index, q, sp, params);
        TracebackStats stats;
        const CigarAlignment aln =
            blastnAlign(index, q, sr.data(), sr.size(), params,
                        nullptr, -1, &stats);
        if (aln.empty()) {
            EXPECT_EQ(scan.score, 0) << "pair " << iter;
            continue;
        }
        ++traced;
        EXPECT_EQ(aln.score, scan.score) << "pair " << iter;
        // Replay the CIGAR against the *decoded* query and the
        // residue subject — spans are absolute.
        std::vector<bio::Residue> qr(q.length());
        for (std::size_t i = 0; i < q.length(); ++i)
            qr[i] = static_cast<bio::Residue>(q[i]);
        const bio::Sequence qs("Q", "", std::move(qr));
        const bio::Sequence ss("S", "", std::move(sr));
        checkAlignment(aln, qs, ss, mm, gaps);
    }
    EXPECT_GT(traced, 10);
}

/**
 * The full Smith-Waterman matrix's optimum and its first-column /
 * smallest-row argmax: a column-major Gotoh sweep with strict '>'
 * best updates (the oracle nativeTraceback's end cell must match).
 */
LocalScore
firstColumnArgmax(const bio::Sequence &q, const bio::Sequence &s,
                  const bio::ScoringMatrix &matrix,
                  const bio::GapPenalties &gaps)
{
    const int m = static_cast<int>(q.length());
    const int open = gaps.openCost();
    const int ext = gaps.extendCost();
    constexpr int neg = -(1 << 28);
    std::vector<int> h_prev(static_cast<std::size_t>(m), 0);
    std::vector<int> e(static_cast<std::size_t>(m), neg);
    LocalScore best;
    for (std::size_t j = 0; j < s.length(); ++j) {
        int diag = 0; // H(i-1, j-1)
        int above = 0; // H(i-1, j)
        int f = neg;
        for (int i = 0; i < m; ++i) {
            const std::size_t si = static_cast<std::size_t>(i);
            e[si] = std::max(h_prev[si] - open, e[si] - ext);
            f = std::max(above - open, f - ext);
            const int h = std::max(
                {0, diag + matrix.score(q[si], s[j]), e[si], f});
            diag = h_prev[si];
            h_prev[si] = h;
            above = h;
            if (h > best.score) {
                best.score = h;
                best.queryEnd = i;
                best.subjectEnd = static_cast<int>(j);
            }
        }
    }
    return best;
}

/**
 * Run nativeTraceback on @p backend the way the serving tier does
 * (score and end column from the native scan; with @p hinted false
 * the end column is withheld) and check every contract.
 */
TracebackStats
checkNativeTraceback(const bio::Sequence &q, const bio::Sequence &s,
                     const bio::ScoringMatrix &matrix,
                     const bio::GapPenalties &gaps,
                     SimdBackend backend, bool hinted,
                     const std::string &context)
{
    const NativeQueryProfile profile(q, matrix, backend);
    LocalScore hit = swStripedNativeScan(profile, s, gaps);
    const LocalScore oracle = firstColumnArgmax(q, s, matrix, gaps);
    EXPECT_EQ(hit.score, smithWatermanScore(q, s, matrix, gaps).score)
        << context;
    EXPECT_EQ(oracle.score, hit.score) << context;
    if (!hinted)
        hit.subjectEnd = -1;

    TracebackStats stats;
    const CigarAlignment aln = nativeTraceback(
        profile, s.residues().data(), s.length(), hit, gaps, &stats);
    EXPECT_EQ(aln.score, oracle.score) << context;
    EXPECT_EQ(stats.simdPaths + stats.hirschbergPaths, 1u) << context;
    checkAlignment(aln, q, s, matrix, gaps);
    if (oracle.score > 0) {
        EXPECT_EQ(aln.qEnd, oracle.queryEnd) << context;
        EXPECT_EQ(aln.sEnd, oracle.subjectEnd) << context;
        EXPECT_GT(stats.totalCells, 0u) << context;
    } else {
        EXPECT_TRUE(aln.empty()) << context;
    }
    return stats;
}

TEST(NativeTraceback, MatchesOracleOnEveryBackend)
{
    const bio::ScoringMatrix &blosum = bio::blosum62();
    const bio::ScoringMatrix dna = bio::makeMatchMismatch(2, -3);
    const std::vector<bio::Sequence> table2 = bio::makeQuerySet();
    for (const SimdBackend backend : compiledNativeBackends()) {
        const std::string name(backendName(backend));
        bio::Rng rng(0x5EED + static_cast<std::uint64_t>(backend));
        std::uint64_t simd = 0;
        int iter = 0;
        // Table II queries against mutant homologs across the
        // identity range, under every gap regime.
        for (const bio::Sequence &q : table2) {
            for (const bio::GapPenalties &gaps : extremeGaps()) {
                const double identity = 0.35 + 0.1 * (iter % 6);
                const bio::Sequence s =
                    bio::mutate(rng, q, identity, "HOM", "");
                const TracebackStats st = checkNativeTraceback(
                    q, s, blosum, gaps, backend, iter % 3 != 0,
                    name + " table2 " + std::to_string(iter));
                simd += st.simdPaths;
                ++iter;
            }
        }
        // Unrelated protein pairs (score-0 and short local hits)
        // and nucleotide pairs with a match/mismatch matrix.
        for (int k = 0; k < 120; ++k, ++iter) {
            const bio::GapPenalties &gaps =
                extremeGaps()[static_cast<std::size_t>(k)
                              % extremeGaps().size()];
            const bool protein = k % 2 == 0;
            const int m = 1 + static_cast<int>(rng.below(150));
            const bio::Sequence q = protein
                ? bio::makeRandomSequence(rng, m)
                : randomDnaSeq(rng, m);
            const bio::Sequence s = protein
                ? bio::makeRandomSequence(
                      rng, 1 + static_cast<int>(rng.below(150)))
                : (k % 4 == 1 ? mutateDnaSeq(rng, q, 0.75)
                              : randomDnaSeq(
                                    rng, 1 + static_cast<int>(
                                             rng.below(150))));
            const TracebackStats st = checkNativeTraceback(
                q, s, protein ? blosum : dna, gaps, backend,
                k % 3 != 0, name + " random " + std::to_string(k));
            simd += st.simdPaths;
        }
        // Repeats: a query holding one segment twice against a
        // subject holding it once ties two rows of the end column
        // at S (the smallest must win), and the mirror case ties
        // two columns (the first must win).
        for (int k = 0; k < 8; ++k, ++iter) {
            const bio::Sequence motif = bio::makeRandomSequence(
                rng, 10 + static_cast<int>(rng.below(30)));
            const auto join = [&](std::initializer_list<int> parts) {
                std::vector<bio::Residue> out;
                for (const int len : parts) {
                    const bio::Sequence piece = len < 0
                        ? motif
                        : bio::makeRandomSequence(rng, len);
                    out.insert(out.end(), piece.residues().begin(),
                               piece.residues().end());
                }
                return bio::Sequence("REP", "", std::move(out));
            };
            const bio::Sequence twice = join({5, -1, 40, -1, 5});
            const bio::Sequence once = join({-1});
            const bool rows_tie = k % 2 == 0;
            const TracebackStats st = checkNativeTraceback(
                rows_tie ? twice : once, rows_tie ? once : twice,
                blosum, bio::GapPenalties{}, backend, k % 4 < 2,
                name + " repeat " + std::to_string(k));
            simd += st.simdPaths;
        }
        // The fuzz must exercise the band path, not only fallbacks.
        EXPECT_GT(simd, static_cast<std::uint64_t>(iter) / 2) << name;
    }
}

TEST(NativeTraceback, SaturatedScoreFallsBackToHirschberg)
{
    // 3100 tryptophans self-align to 3100 * 11 = 34100 > i16 range.
    const bio::Sequence w("W", "",
                          std::vector<bio::Residue>(
                              3100, bio::Alphabet::encode('W')));
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;
    const LocalScore hit = smithWatermanScore(w, w, matrix, gaps);
    ASSERT_GT(hit.score, 32767);
    const NativeQueryProfile profile(w, matrix, bestNativeBackend());
    TracebackStats stats;
    const CigarAlignment aln = nativeTraceback(
        profile, w.residues().data(), w.length(), hit, gaps, &stats);
    EXPECT_EQ(stats.hirschbergPaths, 1u);
    EXPECT_EQ(stats.simdPaths, 0u);
    EXPECT_EQ(aln.score, hit.score);
    checkAlignment(aln, w, w, matrix, gaps);
}

TEST(NativeTraceback, LongIndelForcesBandDoubling)
{
    // A 60-residue deletion followed by a 60-residue insertion:
    // the window is square (delta 0, first band +-16) but the path
    // runs 60 diagonals off it in the middle.
    bio::Rng rng(0x1DE1);
    const bio::Sequence q = bio::makeRandomSequence(rng, 240);
    const bio::Sequence filler = bio::makeRandomSequence(rng, 60);
    std::vector<bio::Residue> s;
    const auto &qr = q.residues();
    s.insert(s.end(), qr.begin(), qr.begin() + 60);
    s.insert(s.end(), qr.begin() + 120, qr.begin() + 180);
    s.insert(s.end(), filler.residues().begin(),
             filler.residues().end());
    s.insert(s.end(), qr.begin() + 180, qr.end());
    const bio::Sequence subject("INDEL", "", std::move(s));
    for (const SimdBackend backend : compiledNativeBackends()) {
        const TracebackStats st = checkNativeTraceback(
            q, subject, bio::blosum62(), bio::GapPenalties{}, backend,
            true, std::string(backendName(backend)));
        EXPECT_EQ(st.simdPaths, 1u);
        EXPECT_GE(st.bandDoublings, 1u);
    }
}

TEST(NativeTraceback, OversizedBandFallsBackToHirschberg)
{
    // Near-free gaps let the optimum bridge a 9000-residue insert:
    // the window is 600 x 9600, and even the first band (half-width
    // 4516) needs ~86 MB of direction bytes, over the cap.
    bio::Rng rng(0xCA9);
    const bio::Sequence q = bio::makeRandomSequence(rng, 600);
    const bio::Sequence filler = bio::makeRandomSequence(rng, 9000);
    std::vector<bio::Residue> s(q.residues().begin(),
                                q.residues().begin() + 300);
    s.insert(s.end(), filler.residues().begin(),
             filler.residues().end());
    s.insert(s.end(), q.residues().begin() + 300, q.residues().end());
    const bio::Sequence subject("GAP", "", std::move(s));
    const TracebackStats st = checkNativeTraceback(
        q, subject, bio::blosum62(), bio::GapPenalties{1, 0},
        bestNativeBackend(), true, "oversized band");
    EXPECT_EQ(st.hirschbergPaths, 1u);
}

TEST(NativeTraceback, DegenerateInputs)
{
    const bio::ScoringMatrix &matrix = bio::blosum62();
    const bio::GapPenalties gaps;
    const bio::Sequence empty("E", "", std::vector<bio::Residue>{});
    const bio::Sequence w("W", "", std::vector<bio::Residue>{
                                       bio::Alphabet::encode('W')});
    const bio::Sequence p("P", "", std::vector<bio::Residue>{
                                       bio::Alphabet::encode('P')});
    ASSERT_LT(matrix.score(w[0], p[0]), 0);
    for (const SimdBackend backend : compiledNativeBackends()) {
        const std::string name(backendName(backend));
        // Empty query or subject, and a score-0 pair: nothing to
        // emit, answered without a fallback.
        for (const auto &[q, s] :
             {std::pair{&empty, &w}, std::pair{&w, &empty},
              std::pair{&w, &p}}) {
            const TracebackStats st = checkNativeTraceback(
                *q, *s, matrix, gaps, backend, true, name);
            EXPECT_EQ(st.simdPaths, 1u) << name;
            EXPECT_EQ(st.totalCells, 0u) << name;
        }
        // Length 1: the first band already covers the 1 x 1 window.
        const TracebackStats st = checkNativeTraceback(
            w, w, matrix, gaps, backend, false, name);
        EXPECT_EQ(st.simdPaths, 1u) << name;
        EXPECT_EQ(st.bandDoublings, 0u) << name;
    }
}

} // namespace
