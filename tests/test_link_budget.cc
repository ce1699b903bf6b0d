/**
 * @file
 * Tests of link-budget validation and BER estimation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "common/log.hh"
#include "common/prng.hh"
#include "optics/link_budget.hh"

namespace {

using namespace mnoc;
using namespace mnoc::optics;

struct LbFixture
{
    SerpentineLayout layout{16, Meters(0.05)};
    DeviceParams params;
    SplitterChain chain{layout, params, 6};

    MultiModeDesign
    twoModeDesign(std::vector<double> weights = {0.7, 0.3}) const
    {
        std::vector<int> modes(16, 1);
        for (int d = 3; d <= 9; ++d)
            modes[d] = 0;
        AlphaOptimizer opt(chain, modes, weights,
                           params.pminAtTap());
        return opt.optimize();
    }
};

TEST(LinkBudget, BerDecreasesWithReceivedPower)
{
    WattPower pmin(1e-5);
    double high = linkBitErrorRate(WattPower(2e-5), pmin);
    double nominal = linkBitErrorRate(WattPower(1e-5), pmin);
    double low = linkBitErrorRate(WattPower(0.5e-5), pmin);
    EXPECT_LT(high, nominal);
    EXPECT_LT(nominal, low);
    // Design point Q = 7: about 1e-12.
    EXPECT_LT(nominal, 1e-11);
    EXPECT_GT(nominal, 1e-14);
    // No light: coin flip.
    EXPECT_DOUBLE_EQ(linkBitErrorRate(WattPower(0.0), pmin), 0.5);
}

TEST(LinkBudget, BerRejectsBadArguments)
{
    EXPECT_THROW(linkBitErrorRate(WattPower(1e-5), WattPower(0.0)),
                 FatalError);
    EXPECT_THROW(linkBitErrorRate(WattPower(1e-5), WattPower(1e-5), -1.0),
                 FatalError);
}

TEST(LinkBudget, OptimizedDesignValidates)
{
    LbFixture f;
    auto design = f.twoModeDesign();
    auto report = validateDesign(f.chain, design,
                                 f.params.pminAtTap());
    EXPECT_TRUE(report.ok);
    // Reachable links sit at or above pmin.
    EXPECT_GE(report.worstReachableMargin.dB(), -1e-9);
    // Unreachable links sit strictly below pmin.
    EXPECT_LT(report.worstUnreachableLeak.dB(), 0.0);
}

TEST(LinkBudget, ReportsEveryModeDestinationPair)
{
    LbFixture f;
    auto design = f.twoModeDesign();
    auto links = listLinkBudgets(designReceivedPowers(f.chain, design),
                                 design.modeOfDest, f.chain.source(),
                                 f.params.pminAtTap());
    // 15 destinations x 2 modes.
    EXPECT_EQ(links.size(), 30u);
    int reachable = 0;
    for (const auto &link : links)
        if (link.reachable)
            ++reachable;
    // Mode 0 reaches 6 (indices 3..9 minus the source itself),
    // mode 1 reaches all 15.
    EXPECT_EQ(reachable, 6 + 15);
}

TEST(LinkBudget, ReachableLinksHaveExcellentBer)
{
    LbFixture f;
    auto design = f.twoModeDesign();
    auto links = listLinkBudgets(designReceivedPowers(f.chain, design),
                                 design.modeOfDest, f.chain.source(),
                                 f.params.pminAtTap());
    for (const auto &link : links) {
        if (link.reachable) {
            EXPECT_LT(link.bitErrorRate, 1e-10)
                << "mode " << link.mode << " dest " << link.dest;
        }
    }
}

TEST(LinkBudget, StrictGapRequirementCanFail)
{
    // Demanding a 10 dB decision gap between reachable and
    // unreachable levels is more than the optimized alphas provide
    // when the mode split is mild.
    LbFixture f;
    auto design = f.twoModeDesign({0.5, 0.5});
    auto report = validateDesign(f.chain, design,
                                 f.params.pminAtTap(), DecibelLoss(0.0),
                                 DecibelLoss(-10.0));
    // The leak level in mode 1 is alpha-relative; with moderate
    // weights alpha_1 is well above 0.1, so this must fail.
    EXPECT_FALSE(report.ok);
}

TEST(LinkBudget, MarginRequirementCanFail)
{
    LbFixture f;
    auto design = f.twoModeDesign();
    // The exact design hits pmin with zero margin, so demanding +3 dB
    // must fail.
    auto report = validateDesign(f.chain, design,
                                 f.params.pminAtTap(), DecibelLoss(3.0));
    EXPECT_FALSE(report.ok);
}

/** The aggregates as a scan over every link computes them, margin
 *  and BER evaluated per link: the reference the fold must match. */
BudgetSummary
perLinkScan(const std::vector<std::vector<double>> &received,
            const std::vector<int> &mode_of_dest, int source,
            WattPower pmin, DecibelLoss required_margin,
            DecibelLoss max_leak)
{
    BudgetSummary ref;
    ref.modes.assign(received.size(), ModeBudget{});
    DecibelLoss fail_below = required_margin - DecibelLoss(1e-9);
    for (const LinkBudget &link :
         listLinkBudgets(received, mode_of_dest, source, pmin)) {
        ModeBudget &mode = ref.modes[static_cast<std::size_t>(link.mode)];
        if (link.reachable) {
            mode.worstMargin = std::min(mode.worstMargin, link.margin);
            ref.worstReachableMargin =
                std::min(ref.worstReachableMargin, link.margin);
            ref.worstReachableBitErrorRate = std::max(
                ref.worstReachableBitErrorRate, link.bitErrorRate);
            mode.marginFailures += link.margin < fail_below;
        } else {
            ref.worstUnreachableLeak =
                std::max(ref.worstUnreachableLeak, link.margin);
            mode.leakFailures += link.margin > max_leak;
        }
    }
    ref.ok = ref.worstReachableMargin >= fail_below &&
             ref.worstUnreachableLeak <= max_leak;
    return ref;
}

std::uint64_t
bitsOf(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/** Every field of @p summary, doubles as bit patterns. */
std::string
describe(const BudgetSummary &summary)
{
    auto hex = [](double value) {
        char text[24];
        std::snprintf(text, sizeof(text), "%016llx",
                      static_cast<unsigned long long>(bitsOf(value)));
        return std::string(text);
    };
    std::string out = hex(summary.worstReachableMargin.dB()) + " " +
                      hex(summary.worstUnreachableLeak.dB()) + " " +
                      hex(summary.worstReachableBitErrorRate) +
                      (summary.ok ? " ok" : " fail");
    for (const ModeBudget &mode : summary.modes)
        out += " [" + hex(mode.worstMargin.dB()) + " " +
               std::to_string(mode.marginFailures) + " " +
               std::to_string(mode.leakFailures) + "]";
    return out;
}

/** @p x moved @p ulps representable doubles up (or down). */
double
ulpStep(double x, int ulps)
{
    double toward = ulps > 0 ? std::numeric_limits<double>::infinity()
                             : -std::numeric_limits<double>::infinity();
    for (int i = 0; i < std::abs(ulps); ++i)
        x = std::nextafter(x, toward);
    return x;
}

// The fold decides most links from their linear received power and
// evaluates the logarithm or the erfc only near a threshold or an
// extreme.  On inputs built to break that shortcut -- ties at the
// minimum, powers exactly at and a few ulps around a threshold's
// linear equivalent, no light, infinite and +-1500 dB thresholds, and
// reachable BERs that underflow to subnormals -- every field must
// equal the per-link scan bit for bit.
TEST(LinkBudget, FoldMatchesPerLinkScan)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr int kNodes = 24;
    constexpr int kModes = 3;
    const double pmins[] = {1e-5, 3.7e-7, 1.0};
    const double requireds[] = {0.0, 1.0, -3.0, 1e-9, 1500.0, -1500.0,
                                inf, -inf};
    const double leaks[] = {inf, -3.0, 0.5, 0.0, 1500.0, -1500.0, -inf};

    std::vector<int> mode_of_dest(kNodes);
    for (int d = 0; d < kNodes; ++d)
        mode_of_dest[static_cast<std::size_t>(d)] = d % kModes;

    Prng prng(2024);
    int compared = 0;
    for (double p : pmins) {
        WattPower pmin(p);
        for (double req : requireds) {
            for (double leak : leaks) {
                // Adversarial powers for this threshold pair.
                std::vector<double> palette = {0.0, p, p * 2.0,
                                               p * 0.25, 1e-310, 1e300};
                for (double db : {req - 1e-9, leak}) {
                    if (!std::isfinite(db))
                        continue;
                    double at = p * DecibelLoss(db).toAttenuation().value();
                    for (int k = -4; k <= 4; ++k)
                        palette.push_back(ulpStep(at, k));
                }
                // Q/sqrt(2) of 26.6..27.3: erfc lands in the
                // subnormals, then underflows to zero.
                for (double ratio : {5.4, 5.45, 5.5, 5.52, 5.6})
                    for (int k = 0; k < 3; ++k)
                        palette.push_back(ulpStep(p * ratio, k));
                // Just inside and outside the extremes' bands.
                double base = p * 1.3;
                for (double rel : {1e-9, 1.1e-9, 0.9e-9, 2e-9})
                    palette.push_back(base * (1.0 + rel));
                palette.push_back(base);
                palette.push_back(base + 1e-9 * p / receiverQAtPmin);

                for (int trial = 0; trial < 12; ++trial) {
                    int source = static_cast<int>(prng.below(kNodes));
                    std::vector<std::vector<double>> received(
                        kModes, std::vector<double>(kNodes, 0.0));
                    for (auto &row : received)
                        for (double &x : row)
                            x = palette[prng.below(palette.size())];
                    // Ties at the minimum: three equal smallest powers.
                    if (trial % 3 == 0)
                        for (auto &row : received)
                            for (int d = 0; d < 3; ++d)
                                row[static_cast<std::size_t>(d)] =
                                    palette[1];
                    // Subnormal worst BER: every reachable link bright.
                    if (trial % 4 == 1)
                        for (auto &row : received)
                            for (double &x : row)
                                x = ulpStep(p * 5.5,
                                            static_cast<int>(
                                                prng.below(5)));
                    auto fold = summarizeReceivedPowers(
                        received, mode_of_dest, source, pmin,
                        DecibelLoss(req), DecibelLoss(leak));
                    auto ref = perLinkScan(received, mode_of_dest, source,
                                           pmin, DecibelLoss(req),
                                           DecibelLoss(leak));
                    EXPECT_EQ(describe(fold), describe(ref))
                        << "pmin " << p << " required " << req
                        << " leak " << leak << " trial " << trial;
                    ++compared;
                }
            }
        }
    }
    EXPECT_EQ(compared, 3 * 8 * 7 * 12);
}

} // namespace
