/**
 * @file
 * Monte Carlo yield analysis of multi-mode splitter designs.
 *
 * A design "yields" under a variation draw when every reachable
 * (mode, destination) link of every source still clears the (shifted)
 * detector threshold with the required margin, and every unreachable
 * link stays below the tolerated leak level (paper Section 3.2.2's two
 * sides of the budget).  analyzeYield() propagates a design's splitter
 * fractions and mode powers through K seeded dies and reports the yield
 * fraction together with margin and BER distributions -- the numbers a
 * hardening loop needs to decide between adding margin and collapsing
 * a power mode.
 */

#ifndef MNOC_FAULTS_YIELD_HH
#define MNOC_FAULTS_YIELD_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "common/thread_pool.hh"
#include "faults/variation.hh"
#include "optics/link_budget.hh"
#include "optics/serpentine_layout.hh"

namespace mnoc::faults {

/** Outcome of one Monte Carlo draw over the whole crossbar. */
struct DrawOutcome
{
    /** All sources' budgets held under this draw. */
    bool pass = false;
    /** Worst reachable-link margin over all sources. */
    DecibelLoss worstMargin;
    /** Worst (largest) unreachable-link level, relative to pmin. */
    DecibelLoss worstLeak{-1e9};
    /** Worst reachable-link bit error rate. */
    double worstBitErrorRate = 0.0;
    /** Number of reachable links below the required margin. */
    int marginFailures = 0;
    /** Number of unreachable links above the leak limit. */
    int leakFailures = 0;
};

/** Aggregate yield report over all draws. */
struct YieldReport
{
    int trials = 0;
    std::uint64_t seed = 0;
    VariationSpec spec;
    /** Fraction of draws where the whole crossbar held its budgets. */
    double yield = 0.0;
    /** Per-draw outcomes, in draw order (seed-reproducible). */
    std::vector<DrawOutcome> draws;
    /** Distribution of the per-draw worst reachable margin. */
    DecibelLoss marginMean;
    DecibelLoss marginMin;
    DecibelLoss marginP5;
    /** Distribution of the per-draw worst reachable BER. */
    double berWorstMean = 0.0;
    double berWorstMax = 0.0;
    /** Reachable-link margin failures attributed to each drive mode,
     *  summed over draws; the hardening loop's "worst mode" signal. */
    std::vector<long long> marginFailuresByMode;
    /** Unreachable-link leak failures per drive mode, summed over
     *  draws. */
    std::vector<long long> leakFailuresByMode;
};

/** Validation thresholds shared by all draws. */
struct YieldCriteria
{
    /** Margin reachable links must clear at the shifted pmin. */
    DecibelLoss requiredMargin;
    /** Maximum tolerated unreachable-link level, relative to pmin
     *  (defaults to unconstrained; pass a negative value to demand a
     *  decision gap for the threshold circuit). */
    DecibelLoss maxLeak = optics::unconstrainedLeak;
};

/**
 * Replay @p sources (one MultiModeDesign per node, index == source)
 * under @p trials seeded variation draws.
 *
 * The draws run concurrently on the ThreadPool.  Draw t consumes its
 * own Prng stream seeded with deriveSeed(seed, t) and the outcomes
 * are reduced in draw order, so the report -- yield fraction, margin
 * and BER distributions, per-mode failure counts, and every per-draw
 * outcome -- is bit-identical at any thread count (DESIGN.md §9).
 *
 * @param layout Shared serpentine geometry.
 * @param nominal Nominal device parameters the designs were built for.
 * @param sources Per-source designs; sources.size() is the radix.
 * @param spec Variation sigmas.
 * @param trials Number of Monte Carlo draws (>= 1).
 * @param seed PRNG seed; equal seeds give bit-identical reports.
 * @param criteria Validation thresholds shared by all draws.
 * @param pool Pool to run the draws on; null uses the global pool
 *        (sized by MNOC_THREADS).
 */
YieldReport analyzeYield(const optics::SerpentineLayout &layout,
                         const optics::DeviceParams &nominal,
                         const std::vector<optics::MultiModeDesign> &sources,
                         const VariationSpec &spec, int trials,
                         std::uint64_t seed,
                         const YieldCriteria &criteria = {},
                         ThreadPool *pool = nullptr);

} // namespace mnoc::faults

#endif // MNOC_FAULTS_YIELD_HH
