#include "optics/link_budget.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/units.hh"

namespace mnoc::optics {

namespace {

/** Relative width of every guard band: far wider than the few-ulp
 *  rounding of linkMargin() and linkBitErrorRate(), far narrower than
 *  any margin difference worth reporting. */
constexpr double kBand = 1e-9;

/** Thresholds at or beyond this many dB take the per-link path. */
constexpr double kMaxGuardedDb = 1000.0;

/** Powers in (pmin * 2^-kRatioExp, pmin * 2^kRatioExp) have a normal,
 *  exactly bounded ratio to pmin: the guard-band argument holds. */
constexpr int kRatioExp = 500;

/**
 * The links the guard-band argument covers: received powers whose
 * ratio to pmin lies strictly inside (2^-500, 2^500).  Empty when pmin
 * itself lies outside that range, so every link takes the per-link
 * path; NaN, zero and negative powers are never inside.
 */
struct GuardedRange
{
    double lo = 0.0;
    double hi = 0.0;

    explicit GuardedRange(WattPower pmin)
    {
        double p = pmin.watts();
        if (p >= std::ldexp(1.0, -kRatioExp) &&
            p <= std::ldexp(1.0, kRatioExp)) {
            lo = std::ldexp(p, -kRatioExp);
            hi = std::ldexp(p, kRatioExp);
        }
    }

    bool contains(double x) const { return x > lo && x < hi; }
};

/**
 * Decides "margin < threshold" (or ">") for a guarded link from its
 * received power alone, except inside the 1e-9 band around the
 * threshold's linear equivalent, where the margin is computed.
 */
struct ThresholdGuard
{
    /** Every link needs its margin: the threshold is non-finite or
     *  beyond +-1000 dB. */
    bool perLink = true;
    /** Linear band [lo, hi] watts around pmin * 10^(threshold/10). */
    double lo = 0.0;
    double hi = 0.0;

    ThresholdGuard(DecibelLoss threshold, WattPower pmin)
    {
        double db = threshold.dB();
        if (!std::isfinite(db) || std::abs(db) >= kMaxGuardedDb)
            return;
        double at = pmin.watts() * threshold.toAttenuation().value();
        perLink = false;
        lo = at * (1.0 - kBand);
        hi = at * (1.0 + kBand);
    }

    /** Whether a guarded link at @p x watts needs its margin. */
    bool
    needsMargin(double x) const
    {
        return perLink || (x >= lo && x <= hi);
    }
};

} // namespace

double
linkBitErrorRate(WattPower received, WattPower pmin, double q_at_pmin)
{
    fatalIf(pmin <= WattPower(0.0), "pmin must be positive");
    fatalIf(q_at_pmin <= 0.0, "Q factor must be positive");
    if (received <= WattPower(0.0))
        return 0.5; // no light: coin flip
    double q = q_at_pmin * (received / pmin);
    return 0.5 * std::erfc(q / std::sqrt(2.0));
}

DecibelLoss
linkMargin(WattPower received, WattPower pmin)
{
    return received > WattPower(0.0)
               ? DecibelLoss(ratioToDb(received / pmin))
               : DecibelLoss(-1e9);
}

BudgetSummary
summarizeReceivedPowers(
    std::span<const std::vector<double>> received_per_mode,
    const std::vector<int> &mode_of_dest, int source, WattPower pmin,
    DecibelLoss required_margin, DecibelLoss max_leak)
{
    int n = static_cast<int>(mode_of_dest.size());
    int num_modes = static_cast<int>(received_per_mode.size());
    fatalIf(num_modes < 1, "design has no modes");
    fatalIf(source < 0 || source >= n, "source index out of range");
    fatalIf(pmin <= WattPower(0.0), "pmin must be positive");
    for (const auto &received : received_per_mode)
        fatalIf(static_cast<int>(received.size()) != n,
                "received power vector size mismatch");

    const DecibelLoss fail_below = required_margin - DecibelLoss(1e-9);
    const GuardedRange guarded(pmin);
    const ThresholdGuard margin_guard(fail_below, pmin);
    const ThresholdGuard leak_guard(max_leak, pmin);
    // A +inf leak limit: no margin, however large, exceeds it.
    const bool leak_can_fail = max_leak.dB() != unconstrainedLeak.dB();
    auto margin_of = [&](double x) {
        return linkMargin(WattPower(x), pmin);
    };
    auto ber_of = [&](double x) {
        return linkBitErrorRate(WattPower(x), pmin);
    };

    BudgetSummary out;
    out.modes.assign(static_cast<std::size_t>(num_modes), ModeBudget{});
    double min_reached = std::numeric_limits<double>::infinity();
    for (int mode = 0; mode < num_modes; ++mode) {
        const auto &received = received_per_mode[mode];
        ModeBudget &budget = out.modes[static_cast<std::size_t>(mode)];
        // Extremes over the guarded links, resolved after the scan.
        double mode_min = std::numeric_limits<double>::infinity();
        double mode_max = -std::numeric_limits<double>::infinity();
        for (int dest = 0; dest < n; ++dest) {
            if (dest == source)
                continue;
            double x = received[dest];
            bool reachable = mode_of_dest[dest] <= mode;
            if (!guarded.contains(x)) {
                DecibelLoss margin = margin_of(x);
                if (reachable) {
                    budget.worstMargin =
                        std::min(budget.worstMargin, margin);
                    out.worstReachableBitErrorRate = std::max(
                        out.worstReachableBitErrorRate, ber_of(x));
                    budget.marginFailures += margin < fail_below;
                } else {
                    out.worstUnreachableLeak =
                        std::max(out.worstUnreachableLeak, margin);
                    budget.leakFailures += margin > max_leak;
                }
            } else if (reachable) {
                mode_min = std::min(mode_min, x);
                if (margin_guard.needsMargin(x))
                    budget.marginFailures += margin_of(x) < fail_below;
                else
                    budget.marginFailures += x < margin_guard.lo;
            } else {
                mode_max = std::max(mode_max, x);
                if (!leak_can_fail)
                    continue;
                if (leak_guard.needsMargin(x))
                    budget.leakFailures += margin_of(x) > max_leak;
                else
                    budget.leakFailures += x > leak_guard.hi;
            }
        }

        // Only links within the band of a linear extreme can hold the
        // extreme margin.
        double min_band = mode_min * (1.0 + kBand);
        double max_band = mode_max * (1.0 - kBand);
        for (int dest = 0; dest < n; ++dest) {
            double x = received[dest];
            if (dest == source || !guarded.contains(x))
                continue;
            if (mode_of_dest[dest] <= mode) {
                if (x <= min_band)
                    budget.worstMargin =
                        std::min(budget.worstMargin, margin_of(x));
            } else if (x >= max_band) {
                out.worstUnreachableLeak =
                    std::max(out.worstUnreachableLeak, margin_of(x));
            }
        }
        out.worstReachableMargin =
            std::min(out.worstReachableMargin, budget.worstMargin);
        min_reached = std::min(min_reached, mode_min);
    }

    // The worst BER sits at the smallest guarded reachable power: the
    // BER falls monotonically with Q, and a Q more than 1e-9 above
    // the smallest moves the erfc by more than 7e-10 relative.  Below
    // the normal range erfc's relative rounding grows without bound,
    // so a subnormal or zero worst BER rescans every guarded link.
    if (min_reached < guarded.hi) {
        double band = std::max(
            min_reached * (1.0 + kBand),
            min_reached + kBand * pmin.watts() / receiverQAtPmin);
        double worst = 0.0;
        for (bool rescan : {false, true}) {
            for (int mode = 0; mode < num_modes; ++mode) {
                const auto &received = received_per_mode[mode];
                for (int dest = 0; dest < n; ++dest) {
                    double x = received[dest];
                    if (dest != source && mode_of_dest[dest] <= mode &&
                        guarded.contains(x) && (rescan || x <= band))
                        worst = std::max(worst, ber_of(x));
                }
            }
            if (worst >= std::numeric_limits<double>::min())
                break;
        }
        out.worstReachableBitErrorRate =
            std::max(out.worstReachableBitErrorRate, worst);
    }

    out.ok = out.worstReachableMargin >= fail_below &&
             out.worstUnreachableLeak <= max_leak;
    return out;
}

std::vector<LinkBudget>
listLinkBudgets(std::span<const std::vector<double>> received_per_mode,
                const std::vector<int> &mode_of_dest, int source,
                WattPower pmin)
{
    int n = static_cast<int>(mode_of_dest.size());
    fatalIf(source < 0 || source >= n, "source index out of range");
    std::vector<LinkBudget> links;
    for (std::size_t mode = 0; mode < received_per_mode.size(); ++mode) {
        const auto &received = received_per_mode[mode];
        fatalIf(static_cast<int>(received.size()) != n,
                "received power vector size mismatch");
        for (int dest = 0; dest < n; ++dest) {
            if (dest == source)
                continue;
            LinkBudget link;
            link.mode = static_cast<int>(mode);
            link.dest = dest;
            link.receivedPower = WattPower(received[dest]);
            link.reachable = mode_of_dest[dest] <= link.mode;
            link.margin = linkMargin(link.receivedPower, pmin);
            link.bitErrorRate =
                linkBitErrorRate(link.receivedPower, pmin);
            links.push_back(link);
        }
    }
    return links;
}

std::vector<std::vector<double>>
designReceivedPowers(const SplitterChain &chain,
                     const MultiModeDesign &design)
{
    int num_modes = static_cast<int>(design.modePower.size());
    fatalIf(num_modes < 1, "design has no modes");
    fatalIf(static_cast<int>(design.modeOfDest.size()) !=
                chain.numNodes(),
            "design size mismatch");
    std::vector<std::vector<double>> received_per_mode;
    received_per_mode.reserve(static_cast<std::size_t>(num_modes));
    for (int mode = 0; mode < num_modes; ++mode)
        received_per_mode.push_back(
            chain.evaluate(design.chain, design.modePower[mode]));
    return received_per_mode;
}

BudgetSummary
validateDesign(const SplitterChain &chain,
               const MultiModeDesign &design, WattPower pmin,
               DecibelLoss required_margin, DecibelLoss max_leak)
{
    return summarizeReceivedPowers(designReceivedPowers(chain, design),
                                   design.modeOfDest, chain.source(),
                                   pmin, required_margin, max_leak);
}

} // namespace mnoc::optics
