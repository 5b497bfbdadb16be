/**
 * @file
 * Shared ungapped X-drop run scorer.
 *
 * BLASTP and blastn both extend a seed hit along its diagonal in
 * two directions, tracking the best running score and stopping when
 * the score drops more than X below it. The four loops (left/right
 * x protein/nucleotide) differed only in how one step is scored, so
 * they share this template; bit-identity with the historical loops
 * is pinned by blast_test and blastn_test.
 */

#ifndef BIOARCH_ALIGN_XDROP_HH
#define BIOARCH_ALIGN_XDROP_HH

namespace bioarch::align
{

/** Outcome of one directional ungapped x-drop run. */
struct XdropRun
{
    int best = 0; ///< best running score seen (>= 0)
    int len = 0;  ///< steps included in the best prefix
};

/**
 * Walk up to @p limit diagonal steps, accumulating step scores and
 * keeping the best prefix; stop once the running score falls more
 * than @p x_drop below the best.
 *
 * @param score_at callable: score of step k (k = 0..limit-1)
 * @param on_step callable invoked after every step as
 *        on_step(k, improved, drop): whether the step raised the
 *        best score, and whether it ends the run (the nucleotide
 *        scan counts unpacked bases there, the traced kernels emit
 *        the step's branches)
 */
template <typename ScoreAt, typename OnStep>
XdropRun
xdropRun(int limit, int x_drop, ScoreAt &&score_at, OnStep &&on_step)
{
    XdropRun out;
    int run = 0;
    for (int k = 0; k < limit; ++k) {
        run += score_at(k);
        const bool improved = run > out.best;
        if (improved) {
            out.best = run;
            out.len = k + 1;
        }
        const bool drop = run < out.best - x_drop;
        on_step(k, improved, drop);
        if (drop)
            break;
    }
    return out;
}

} // namespace bioarch::align

#endif // BIOARCH_ALIGN_XDROP_HH
