/**
 * @file
 * Link-budget and bit-error-rate validation for multi-mode designs.
 *
 * A power topology only works if, in every mode, every reachable
 * destination's photodetector sees at least its mIOP with margin, and
 * every *unreachable* destination sits far enough below the threshold
 * circuit's decision level that it reads noise (paper Section 3.2.2).
 * This module checks both sides of the budget and estimates the BER of
 * an on/off-keyed link from the ratio of received power to mIOP using
 * the standard Gaussian-noise Q-factor model.
 *
 * All thresholds are strong-typed: received powers and pmin are
 * WattPower, margins and leak levels are DecibelLoss.  Passing a dB
 * quantity where a linear one is expected (or vice versa) does not
 * compile -- e.g. validateDesign(chain, design,
 * params.couplerLoss, ...) is rejected because a DecibelLoss is not a
 * WattPower, where the old all-double API would have silently used
 * 1.0 (the coupler's dB figure) as a one-watt threshold.
 */

#ifndef MNOC_OPTICS_LINK_BUDGET_HH
#define MNOC_OPTICS_LINK_BUDGET_HH

#include <limits>
#include <span>
#include <vector>

#include "optics/alpha_optimizer.hh"

namespace mnoc::optics {

/** Budget of one (mode, destination) link. */
struct LinkBudget
{
    int mode = 0;
    int dest = 0;
    /** Received tap power when driving this mode. */
    WattPower receivedPower;
    /** Margin relative to pmin (negative = below threshold). */
    DecibelLoss margin;
    /** Whether the destination is reachable in this mode. */
    bool reachable = false;
    /** Estimated bit error rate of the on/off-keyed link. */
    double bitErrorRate = 1.0;
};

/** Budget aggregates of one drive mode of a source. */
struct ModeBudget
{
    /** Smallest margin over the mode's reachable links (1e9 dB when
     *  the mode reaches none). */
    DecibelLoss worstMargin{1e9};
    /** Reachable links below the required margin. */
    int marginFailures = 0;
    /** Unreachable links above the leak limit. */
    int leakFailures = 0;
};

/** Worst-case aggregates of one source's link budget: what a yield
 *  draw or a runtime health check needs, without the per-link list. */
struct BudgetSummary
{
    /** Smallest margin over all reachable links. */
    DecibelLoss worstReachableMargin{1e9};
    /** Largest received power of any unreachable link, relative to
     *  pmin (should be comfortably negative). */
    DecibelLoss worstUnreachableLeak{-1e9};
    /** Largest bit error rate of any reachable link (0 when none). */
    double worstReachableBitErrorRate = 0.0;
    /** Per drive mode, in mode order. */
    std::vector<ModeBudget> modes;
    /** Every reachable link clears the required margin and every
     *  unreachable link stays at or below the leak limit. */
    bool ok = false;
};

/** The unconstrained leak limit (any sub-threshold level tolerated). */
inline constexpr DecibelLoss unconstrainedLeak{
    std::numeric_limits<double>::infinity()};

/** Q factor of the receiver chain at exactly pmin (~1e-12 BER). */
inline constexpr double receiverQAtPmin = 7.0;

/**
 * Estimate the BER of an on/off-keyed photonic link whose received
 * "one" power is @p received against a receiver designed for @p pmin.
 * Uses Q = q_at_pmin * received / pmin with BER = 0.5 erfc(Q / sqrt 2),
 * where q_at_pmin is the design point of the receiver chain.
 */
double linkBitErrorRate(WattPower received, WattPower pmin,
                        double q_at_pmin = receiverQAtPmin);

/** Margin of a link receiving @p received against @p pmin:
 *  10 log10(received / pmin), or -1e9 dB when no light arrives. */
DecibelLoss linkMargin(WattPower received, WattPower pmin);

/**
 * Fold precomputed per-mode received powers into the source's budget
 * aggregates, with no per-link list.
 *
 * @param received_per_mode received_per_mode[m][d] is the power that
 *        destination d's tap sees when the source drives mode m, in
 *        watts (as written by SegmentTable::evaluate, possibly under
 *        a device-variation draw).
 * @param mode_of_dest Minimum mode per destination; the entry at
 *        @p source is ignored.
 * @param required_margin A reachable link fails below this margin
 *        (less a 1e-9 dB comparison slack).
 * @param max_leak An unreachable link fails above this level.
 *
 * Every aggregate is bit-identical to a scan that evaluates
 * linkMargin() and linkBitErrorRate() on every link; only the links
 * whose value could decide an aggregate are evaluated.  A link counts
 * against a threshold by comparing its received power with the
 * threshold's linear equivalent, widened by a 1e-9 relative guard
 * band; only links inside the band take the logarithm.  An extreme is
 * found on the linear powers first, and every link within 1e-9 of it
 * (relative, and for the BER also absolute in Q) is evaluated
 * exactly.  The band is six orders of magnitude wider than the
 * rounding of either function, so no link outside it can win, however
 * libm rounds.  Links and thresholds outside the range of that
 * argument -- no light, a power more than 2^500 away from pmin, a
 * non-finite threshold or one beyond +-1000 dB, and worst BERs in the
 * subnormal range -- are evaluated link by link (docs/resilience.md
 * §7.2).
 */
BudgetSummary summarizeReceivedPowers(
    std::span<const std::vector<double>> received_per_mode,
    const std::vector<int> &mode_of_dest, int source, WattPower pmin,
    DecibelLoss required_margin = DecibelLoss(0.0),
    DecibelLoss max_leak = unconstrainedLeak);

/**
 * Every (mode, destination) link of one source, mode-major, built
 * from linkMargin() and linkBitErrorRate(): the per-link view of what
 * summarizeReceivedPowers() folds.
 */
std::vector<LinkBudget>
listLinkBudgets(std::span<const std::vector<double>> received_per_mode,
                const std::vector<int> &mode_of_dest, int source,
                WattPower pmin);

/** The received powers of every mode of @p design on @p chain,
 *  nominal device parameters. */
std::vector<std::vector<double>>
designReceivedPowers(const SplitterChain &chain,
                     const MultiModeDesign &design);

/**
 * Validate a complete multi-mode design for one source.
 *
 * @param chain Waveguide power model of the source.
 * @param design The mode design (splitters, alphas, mode powers).
 * @param pmin Required tap power.
 * @param required_margin Minimum acceptable margin for reachable
 *        links (default 0 dB: exactly pmin passes).
 * @param max_leak Maximum tolerated sub-threshold level for
 *        unreachable links, relative to pmin.  Unconstrained by
 *        default: a not-yet-reachable node receiving pmin early is
 *        harmless (receivers filter by address) -- it only means two
 *        adjacent modes collapsed to the same drive power.  Pass a
 *        negative value to demand a real decision gap for the
 *        threshold circuit of Section 3.2.2.
 */
BudgetSummary validateDesign(
    const SplitterChain &chain, const MultiModeDesign &design,
    WattPower pmin, DecibelLoss required_margin = DecibelLoss(0.0),
    DecibelLoss max_leak = unconstrainedLeak);

} // namespace mnoc::optics

#endif // MNOC_OPTICS_LINK_BUDGET_HH
