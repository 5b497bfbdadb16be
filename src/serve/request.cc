#include "request.hh"

#include <algorithm>
#include <stdexcept>

#include "align/traceback/hirschberg.hh"
#include "align/traceback/native_traceback.hh"
#include "bio/dna_workload.hh"
#include "bio/random.hh"

namespace bioarch::serve
{

PreparedQuery::PreparedQuery(const Request &request,
                             const bio::ScoringMatrix &matrix,
                             const bio::GapPenalties &gaps,
                             const align::FastaParams &fasta,
                             const align::BlastParams &blast,
                             align::SimdBackend backend,
                             const align::BlastnParams &blastn)
    : _kind(request.kind),
      _query(&request.query),
      _matrix(&matrix),
      _gaps(gaps),
      _nativeBackend(backend == align::SimdBackend::Model
                         ? align::bestNativeBackend()
                         : backend),
      _fasta(fasta),
      _blast(blast),
      _blastn(blastn)
{
    // All three Smith-Waterman kinds rank by the exact SW score, so
    // any of them can be served by the native striped kernel; the
    // per-kind model profiles only exist for the Model backend.
    const bool native_sw = backend != align::SimdBackend::Model
        && (_kind == kernels::Workload::Ssearch34
            || _kind == kernels::Workload::SwVmx128
            || _kind == kernels::Workload::SwVmx256);
    if (native_sw) {
        _native = std::make_unique<align::NativeQueryProfile>(
            *_query, matrix, backend);
        return;
    }
    switch (_kind) {
    case kernels::Workload::Ssearch34:
        _profile =
            std::make_unique<align::QueryProfile>(*_query, matrix);
        break;
    case kernels::Workload::SwVmx128:
        _vmx128 = std::make_unique<align::VectorProfile<8>>(*_query,
                                                            matrix);
        break;
    case kernels::Workload::SwVmx256:
        _vmx256 = std::make_unique<align::VectorProfile<16>>(
            *_query, matrix);
        break;
    case kernels::Workload::Fasta34:
        _ktup = std::make_unique<align::KtupIndex>(*_query,
                                                   _fasta.ktup);
        break;
    case kernels::Workload::Blast:
        _neighborhood = std::make_unique<align::NeighborhoodIndex>(
            *_query, matrix, _blast);
        break;
    case kernels::Workload::Blastn:
        // The query rides in as a residue Sequence (bases 0..3);
        // blastn's word machinery wants the 2-bit packing.
        _dnaQuery = std::make_unique<bio::PackedDna>(
            bio::packDnaSequence(*_query));
        _dnaIndex = std::make_unique<align::DnaWordIndex>(
            *_dnaQuery, _blastn.wordSize);
        break;
    default:
        throw std::invalid_argument("unknown workload kind");
    }
}

align::LocalScore
PreparedQuery::scan(const bio::Sequence &subject,
                    std::uint64_t *cells,
                    align::NativeScanStats *stats) const
{
    align::LocalScore ls;
    if (_native)
        return align::swStripedNativeScan(*_native, subject, _gaps,
                                          cells, stats);
    switch (_kind) {
    case kernels::Workload::Ssearch34:
        return align::ssearchScan(*_profile, subject, _gaps, cells);
    case kernels::Workload::SwVmx128:
        return align::swSimdScan<8>(*_vmx128, subject, _gaps, cells);
    case kernels::Workload::SwVmx256:
        return align::swSimdScan<16>(*_vmx256, subject, _gaps,
                                     cells);
    case kernels::Workload::Fasta34: {
        const align::FastaScores fs = align::fastaScan(
            *_ktup, *_query, subject, *_matrix, _gaps, _fasta,
            cells, bandProfile(), stats);
        ls.score = std::max(fs.opt, fs.initn);
        return ls;
    }
    case kernels::Workload::Blast: {
        const align::BlastScores bs = align::blastScan(
            *_neighborhood, *_query, subject, *_matrix, _gaps,
            _blast, cells, bandProfile(), stats);
        ls.score = std::max(bs.score, 0);
        return ls;
    }
    case kernels::Workload::Blastn: {
        const align::BlastnScores bs = align::blastnScan(
            *_dnaIndex, *_dnaQuery, subject.residues().data(),
            subject.length(), _blastn, cells);
        ls.score = std::max(bs.score, 0);
        return ls;
    }
    default:
        return ls;
    }
}

const align::NativeQueryProfile &
PreparedQuery::tracebackProfile() const
{
    if (_native)
        return *_native;
    std::call_once(_tracebackOnce, [this] {
        _tracebackNative = std::make_unique<align::NativeQueryProfile>(
            *_query, *_matrix, _nativeBackend);
    });
    return *_tracebackNative;
}

const align::BandProfile *
PreparedQuery::bandProfile() const
{
    std::call_once(_bandOnce, [this] {
        _band = align::makeBandProfile(*_query, *_matrix,
                                       _nativeBackend);
    });
    return _band.get();
}

align::CigarAlignment
PreparedQuery::traceback(const bio::Sequence &subject,
                         const align::SearchHit &hit,
                         align::TracebackStats *stats) const
{
    const bio::Residue *residues = subject.residues().data();
    switch (_kind) {
    case kernels::Workload::Blast:
        return align::blastAlign(*_neighborhood, *_query, subject,
                                 *_matrix, _gaps, _blast, nullptr,
                                 -1, stats);
    case kernels::Workload::Blastn:
        return align::blastnAlign(*_dnaIndex, *_dnaQuery, residues,
                                  subject.length(), _blastn,
                                  nullptr, -1, stats);
    default:
        break;
    }
    const bool fasta = _kind == kernels::Workload::Fasta34;
    // Without hardware SIMD the striped passes run on the portable
    // backend, several times slower than scalar Hirschberg
    // (bench_traceback's native arm), so those builds keep it.
    if (_nativeBackend == align::SimdBackend::Portable) {
        if (stats != nullptr)
            ++stats->hirschbergPaths;
        return fasta
            ? align::hirschbergAlign(*_query, subject, *_matrix,
                                     _gaps, stats)
            : align::hirschbergAlignAnchored(
                  _query->residues().data(), _query->length(),
                  residues, subject.length(), hit.queryEnd,
                  hit.subjectEnd, *_matrix, _gaps, stats);
    }
    const align::NativeQueryProfile &profile = tracebackProfile();
    align::LocalScore anchor;
    if (fasta) {
        // The ranked score is the heuristic's, not the SW optimum:
        // one native scan supplies the score and its column.
        std::uint64_t cells = 0;
        anchor = align::swStripedNativeScan(
            profile, residues, subject.length(), _gaps, &cells);
        if (stats != nullptr)
            stats->totalCells += cells;
    } else {
        anchor.score = hit.score;
        anchor.queryEnd = hit.queryEnd;
        anchor.subjectEnd = hit.subjectEnd;
    }
    return align::nativeTraceback(profile, residues, subject.length(),
                                  anchor, _gaps, stats);
}

align::LocalScore
PreparedQuery::scanPacked(const bio::Residue *subject,
                          std::size_t n, std::uint64_t *cells,
                          align::NativeScanStats *stats) const
{
    return align::swStripedNativeScan(*_native, subject, n, _gaps,
                                      cells, stats);
}

void
PreparedQuery::scanPackedBatch(const align::SubjectSpan *subjects,
                               std::size_t count,
                               align::LocalScore *out,
                               std::uint64_t *cells,
                               align::NativeScanStats *stats) const
{
    align::swInterSequenceScan(*_native, subjects, count, _gaps,
                               out, cells, stats);
}

std::vector<Request>
makeRequestStream(const StreamSpec &spec,
                  const std::vector<bio::Sequence> &query_pool)
{
    if (query_pool.empty())
        throw std::invalid_argument(
            "makeRequestStream: empty query pool");
    if (spec.kinds.empty())
        throw std::invalid_argument(
            "makeRequestStream: empty workload mix");

    bio::Rng rng(spec.seed);
    std::vector<Request> stream;
    stream.reserve(spec.requests);
    for (std::size_t i = 0; i < spec.requests; ++i) {
        Request r;
        r.id = i;
        r.kind = spec.kinds[rng.below(spec.kinds.size())];
        r.query = query_pool[rng.below(query_pool.size())];
        r.topK = spec.topK;
        r.reportAlignments = spec.reportAlignments;
        stream.push_back(std::move(r));
    }
    return stream;
}

} // namespace bioarch::serve
