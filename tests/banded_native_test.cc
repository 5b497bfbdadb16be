/**
 * @file
 * The SIMD band kernel (align/banded_native.hh) against its oracle,
 * the scalar band (bandedSmithWaterman), on every compiled backend —
 * Portable included, although the serving tier never runs the kernel
 * there.
 *
 * Half-widths cross the register boundaries of both lane counts
 * (8 and 16), centres sit inside, across and fully off the matrix,
 * query windows start past row 0 (BLAST's gapped window), and the
 * gap regimes run on BLOSUM62 and on a DNA match/mismatch matrix.
 * FASTA's and BLAST's scans with the kernel must score, and count
 * cells, exactly as the same scan bodies with a scalar-band policy.
 */

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "align/banded.hh"
#include "align/banded_impl.hh"
#include "align/banded_native.hh"
#include "align/blast_impl.hh"
#include "align/fasta_impl.hh"
#include "align/sw_striped_native.hh"
#include "bio/random.hh"
#include "bio/scoring.hh"
#include "bio/synthetic.hh"

namespace
{

using namespace bioarch;
using namespace bioarch::align;

bio::Sequence
randomSeq(bio::Rng &rng, int length, int alphabet)
{
    std::vector<bio::Residue> rs(static_cast<std::size_t>(length));
    for (auto &r : rs)
        r = static_cast<bio::Residue>(
            rng.below(static_cast<std::uint64_t>(alphabet)));
    return bio::Sequence("r", "", std::move(rs));
}

/** @p src with substitutions and short indels (~@p identity kept). */
bio::Sequence
mutateSeq(bio::Rng &rng, const bio::Sequence &src, int alphabet,
          int identity_pct)
{
    std::vector<bio::Residue> rs;
    for (std::size_t i = 0; i < src.length(); ++i) {
        if (static_cast<int>(rng.below(100)) < identity_pct) {
            rs.push_back(src[i]);
        } else if (rng.below(6) == 0) {
            if (rng.below(2) == 0)
                continue; // deletion
            for (int k = 0; k < 1 + static_cast<int>(rng.below(4)); ++k)
                rs.push_back(static_cast<bio::Residue>(rng.below(
                    static_cast<std::uint64_t>(alphabet))));
            rs.push_back(src[i]);
        } else {
            rs.push_back(static_cast<bio::Residue>(
                rng.below(static_cast<std::uint64_t>(alphabet))));
        }
    }
    if (rs.empty())
        rs.push_back(0);
    return bio::Sequence("m", "", std::move(rs));
}

bio::Sequence
slice(const bio::Sequence &seq, int lo, int len)
{
    const auto &r = seq.residues();
    return bio::Sequence(
        "w", "", std::vector<bio::Residue>(r.begin() + lo,
                                           r.begin() + lo + len));
}

const int kHalfWidths[] = {0, 1, 7, 8, 15, 16, 17, 24, 32, 64};
const bio::GapPenalties kGapRegimes[] = {{4, 2}, {10, 1}, {12, 3},
                                         {20, 1}};

/** Centres inside, straddling and fully off an m x n matrix. */
std::vector<int>
centres(int m, int n, int hw)
{
    return {0,
            n - m,
            (n - m) / 2,
            -m + 1,          // straddles the bottom-left corner
            n - 1,           // straddles the top-right corner
            -m + 1 - hw / 2, // mostly below the matrix
            -m - hw - 3,     // fully below
            n + hw + 3};     // fully right
}

struct Pair
{
    bio::Sequence query;
    bio::Sequence subject;
};

std::vector<Pair>
makePairs(bio::Rng &rng, int alphabet)
{
    std::vector<Pair> out;
    for (int k = 0; k < 3; ++k) {
        const bio::Sequence q =
            randomSeq(rng, 20 + static_cast<int>(rng.below(180)),
                      alphabet);
        out.push_back({q, mutateSeq(rng, q, alphabet, 70 + 10 * k)});
    }
    out.push_back({randomSeq(rng, 1 + static_cast<int>(rng.below(90)),
                             alphabet),
                   randomSeq(rng, 1 + static_cast<int>(rng.below(150)),
                             alphabet)});
    return out;
}

TEST(BandedNative, MatchesScalarBandOnEveryBackend)
{
    const bio::ScoringMatrix dna = bio::makeMatchMismatch(5, -4);
    const struct
    {
        const bio::ScoringMatrix *matrix;
        int alphabet;
    } regimes[] = {{&bio::blosum62(), bio::Alphabet::numSymbols},
                   {&dna, 4}};
    bio::Rng rng(0xBA2D);
    int cases = 0;
    for (const auto &regime : regimes) {
        for (const Pair &p : makePairs(rng, regime.alphabet)) {
            const int m = static_cast<int>(p.query.length());
            const int n = static_cast<int>(p.subject.length());
            // The whole query, then a window starting past row 0.
            const int qlo = m / 3;
            const int mw = std::max(1, m / 2);
            const bio::Sequence window = slice(p.query, qlo, mw);
            std::vector<BandProfile> profiles;
            for (const SimdBackend b : compiledNativeBackends())
                profiles.emplace_back(p.query.residues().data(), m,
                                      *regime.matrix, b);
            for (const bio::GapPenalties &gaps : kGapRegimes) {
                for (const int hw : kHalfWidths) {
                    for (const int c : centres(m, n, hw)) {
                        const int full =
                            bandedSmithWaterman(p.query, p.subject,
                                                *regime.matrix, gaps,
                                                c, hw)
                                .score;
                        const int part =
                            bandedSmithWaterman(window, p.subject,
                                                *regime.matrix, gaps,
                                                c, hw)
                                .score;
                        for (const BandProfile &prof : profiles) {
                            const std::string where =
                                std::string(backendName(prof.backend()))
                                + " m=" + std::to_string(m)
                                + " n=" + std::to_string(n) + " hw="
                                + std::to_string(hw) + " c="
                                + std::to_string(c) + " gaps="
                                + std::to_string(gaps.open) + "/"
                                + std::to_string(gaps.extend);
                            EXPECT_EQ(bandedScoreNative(
                                          prof, 0, m,
                                          p.subject.residues().data(),
                                          n, gaps, c, hw),
                                      std::optional<int>(full))
                                << where;
                            EXPECT_EQ(bandedScoreNative(
                                          prof, qlo, mw,
                                          p.subject.residues().data(),
                                          n, gaps, c, hw),
                                      std::optional<int>(part))
                                << where << " qlo=" << qlo;
                            ++cases;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(cases, 1000);
}

TEST(BandedNative, DegenerateInputs)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    bio::Rng rng(0xE3);
    const bio::Sequence one = randomSeq(rng, 1, 20);
    const bio::Sequence some = randomSeq(rng, 30, 20);
    const bio::Sequence empty("e", "", std::vector<bio::Residue>{});
    for (const SimdBackend b : compiledNativeBackends()) {
        for (const bio::Sequence *q : {&one, &some, &empty}) {
            const BandProfile prof(q->residues().data(),
                                   static_cast<int>(q->length()), mat,
                                   b);
            for (const bio::Sequence *s : {&one, &some, &empty}) {
                for (const int hw : {-1, 0, 1, 5}) {
                    for (const int c : {-2, 0, 1, 29}) {
                        const int ref = bandedSmithWaterman(
                                            *q, *s, mat, gaps, c, hw)
                                            .score;
                        EXPECT_EQ(
                            bandedScoreNative(
                                prof, 0, static_cast<int>(q->length()),
                                s->residues().data(),
                                static_cast<int>(s->length()), gaps,
                                c, hw),
                            std::optional<int>(ref))
                            << backendName(b) << " m=" << q->length()
                            << " n=" << s->length() << " hw=" << hw
                            << " c=" << c;
                    }
                }
            }
        }
    }
}

TEST(BandedNative, DeclinedBandsTakeTheScalarPath)
{
    // 300 identical bases at +127 each score 38100: past i16 lanes.
    const bio::ScoringMatrix big = bio::makeMatchMismatch(127, -1);
    bio::Rng rng(0x5A7);
    const bio::Sequence q = randomSeq(rng, 300, 4);
    const bio::GapPenalties gaps;
    const int ref = bandedSmithWaterman(q, q, big, gaps, 0, 8).score;
    ASSERT_EQ(ref, 300 * 127);

    const bio::Sequence small = randomSeq(rng, 40, 4);
    for (const SimdBackend b : compiledNativeBackends()) {
        const BandProfile prof(q.residues().data(), 300, big, b);
        EXPECT_FALSE(bandedScoreNative(prof, 0, 300, q.residues().data(),
                                       300, gaps, 0, 8))
            << backendName(b);
        NativeScanStats stats;
        EXPECT_EQ(bandedScore(&prof, q.residues().data(), 0, 300,
                              q.residues().data(), 300, big, gaps, 0, 8,
                              &stats),
                  ref);
        EXPECT_EQ(stats.bandScalar, 1u);
        EXPECT_EQ(stats.bandSimd, 0u);

        // Gap costs outside 0 <= extend <= open + extend <= 32767,
        // and bands wider than the profile's padding, decline too.
        const bio::ScoringMatrix &mat = bio::blosum62();
        const BandProfile sp(small.residues().data(), 40, mat, b);
        const bio::Residue *s = small.residues().data();
        for (const bio::GapPenalties bad :
             {bio::GapPenalties{40000, 1}, bio::GapPenalties{-3, 2},
              bio::GapPenalties{0, -1}}) {
            EXPECT_FALSE(bandedScoreNative(sp, 0, 40, s, 40, bad, 0, 4))
                << backendName(b) << " " << bad.open << "/"
                << bad.extend;
        }
        EXPECT_FALSE(bandedScoreNative(sp, 0, 40, s, 40, gaps, 0,
                                       BandProfile::maxHalfWidth + 1));
        NativeScanStats wide;
        EXPECT_EQ(bandedScore(&sp, s, 0, 40, s, 40, mat, gaps, 0,
                              BandProfile::maxHalfWidth + 1, &wide),
                  bandedSmithWaterman(small, small, mat, gaps, 0,
                                      BandProfile::maxHalfWidth + 1)
                      .score);
        EXPECT_EQ(wide.bandScalar, 1u);
    }
}

TEST(BandedNative, ProfileOnlyWhereTheKernelPays)
{
    const bio::Sequence q = bio::makeDefaultQuery();
    const bio::ScoringMatrix &mat = bio::blosum62();
    EXPECT_EQ(makeBandProfile(q, mat, SimdBackend::Portable), nullptr);
    for (const SimdBackend b : compiledNativeBackends()) {
        if (b == SimdBackend::Portable)
            continue;
        const auto prof = makeBandProfile(q, mat, b);
        ASSERT_NE(prof, nullptr);
        EXPECT_EQ(prof->backend(), b);
    }
    const auto model = makeBandProfile(q, mat, SimdBackend::Model);
    if (bestNativeBackend() == SimdBackend::Portable)
        EXPECT_EQ(model, nullptr);
    else
        EXPECT_EQ(model->backend(), bestNativeBackend());

    // No profile: the scalar band, counted as such.
    NativeScanStats stats;
    const bio::GapPenalties gaps;
    EXPECT_EQ(bandedScore(nullptr, q.residues().data(), 0,
                          static_cast<int>(q.length()),
                          q.residues().data(),
                          static_cast<int>(q.length()), mat, gaps, 0,
                          16, &stats),
              bandedSmithWaterman(q, q, mat, gaps, 0, 16).score);
    EXPECT_EQ(stats.bandScalar, 1u);
    EXPECT_EQ(stats.bandSimd, 0u);
}

/** FastaNoTrace with the scalar band as its opt stage. */
struct FastaScalarBand : FastaNoTrace
{
    int
    optBand(const bio::Residue *query, int m,
            const bio::Residue *subject, int n,
            const bio::ScoringMatrix &matrix,
            const bio::GapPenalties &gaps, int center, int half_width)
    {
        return bandedSmithWatermanScan(query, m, subject, n, matrix,
                                       gaps, center, half_width,
                                       [](int, int, int, int, int) {})
            .score;
    }
};

/** BlastNoTrace with the scalar band as its gapped stage. */
struct BlastScalarBand : BlastNoTrace
{
    int
    gappedBand(const bio::Residue *query, int qlo, int m,
               const bio::Residue *subject, int n,
               const bio::ScoringMatrix &matrix,
               const bio::GapPenalties &gaps, int center,
               int half_width)
    {
        return bandedSmithWatermanScan(query + qlo, m, subject, n,
                                       matrix, gaps, center,
                                       half_width,
                                       [](int, int, int, int, int) {})
            .score;
    }
};

TEST(BandedNative, FastaAndBlastScoreAsWithTheScalarBand)
{
    const bio::ScoringMatrix &mat = bio::blosum62();
    const bio::GapPenalties gaps;
    const FastaParams fp;
    const BlastParams bp;
    const std::vector<bio::Sequence> queries = bio::makeQuerySet();
    const bio::SequenceDatabase db = bio::makeDefaultDatabase(200);
    for (const bio::Sequence &q : queries) {
        const KtupIndex ktup(q, fp.ktup);
        const NeighborhoodIndex nbhd(q, mat, bp);
        std::vector<FastaScores> fasta_ref;
        std::vector<BlastScores> blast_ref;
        std::uint64_t ref_cells = 0;
        for (std::size_t i = 0; i < db.size(); ++i) {
            FastaScalarBand fs;
            BlastScalarBand bs;
            fasta_ref.push_back(fastaScan(ktup, q, db[i], mat, gaps, fp,
                                          &ref_cells, fs));
            blast_ref.push_back(blastScan(nbhd, q, db[i], mat, gaps, bp,
                                          &ref_cells, bs));
        }
        for (const SimdBackend b : compiledNativeBackends()) {
            const BandProfile prof(q.residues().data(),
                                   static_cast<int>(q.length()), mat, b);
            NativeScanStats stats;
            std::uint64_t cells = 0;
            for (std::size_t i = 0; i < db.size(); ++i) {
                const FastaScores f = fastaScan(ktup, q, db[i], mat, gaps,
                                                fp, &cells, &prof,
                                                &stats);
                EXPECT_EQ(f.opt, fasta_ref[i].opt)
                    << backendName(b) << " " << q.id() << " seq " << i;
                EXPECT_EQ(f.initn, fasta_ref[i].initn);
                EXPECT_EQ(f.init1, fasta_ref[i].init1);
                const BlastScores s = blastScan(nbhd, q, db[i], mat, gaps,
                                                bp, &cells, &prof,
                                                &stats);
                EXPECT_EQ(s.score, blast_ref[i].score)
                    << backendName(b) << " " << q.id() << " seq " << i;
                EXPECT_EQ(s.gappedExtensions,
                          blast_ref[i].gappedExtensions);
            }
            // The work counters (serve_cells_total) do not move.
            EXPECT_EQ(cells, ref_cells) << backendName(b);
            // Every band ran in the kernel: none saturates here.
            EXPECT_GT(stats.bandSimd, 0u) << backendName(b);
            EXPECT_EQ(stats.bandScalar, 0u) << backendName(b);
        }
    }
}

} // namespace
