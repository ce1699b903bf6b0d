/**
 * @file
 * Tests of the device-variation fault-injection subsystem: seeded
 * draws, yield analysis, the designer's hardening loop, and graceful
 * degradation down to broadcast.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/log.hh"
#include "common/manifest.hh"
#include "common/thread_pool.hh"
#include "core/design_io.hh"
#include "core/designer.hh"
#include "faults/yield.hh"
#include "optics/link_budget.hh"

namespace {

using namespace mnoc;
using namespace mnoc::core;

struct FaultsFixture
{
    static constexpr int kNodes = 16;
    optics::SerpentineLayout layout{kNodes, Meters(0.05)};
    optics::DeviceParams params;
    optics::OpticalCrossbar xbar{layout, params};
    Designer designer{xbar};

    FlowMatrix
    neighbourFlow() const
    {
        FlowMatrix flow(kNodes, kNodes, 0.1);
        for (int i = 0; i < kNodes; ++i) {
            flow(i, i) = 0.0;
            flow(i, (i + 1) % kNodes) = 50.0;
        }
        return flow;
    }

    /** A two-mode design at the given built-in margin. */
    MnocDesign
    twoModeDesign(DecibelLoss margin) const
    {
        return design(2, margin);
    }

    /** A distance-based design with @p modes modes at @p margin. */
    MnocDesign
    design(int modes, DecibelLoss margin) const
    {
        DesignSpec spec;
        spec.numModes = modes;
        spec.assignment = Assignment::DistanceBased;
        spec.weights = WeightSource::DesignFlow;
        FlowMatrix flow = neighbourFlow();
        auto topology = designer.buildTopology(spec, flow);
        return designer.buildDesign(spec, topology, flow, margin);
    }
};

TEST(Variation, GaussianIsDeterministicAndCentered)
{
    Prng a(42);
    Prng b(42);
    double sum = 0.0;
    for (int i = 0; i < 2000; ++i) {
        double x = faults::gaussian(a);
        EXPECT_EQ(x, faults::gaussian(b));
        sum += x;
    }
    EXPECT_NEAR(sum / 2000.0, 0.0, 0.1);
}

TEST(Variation, DrawRespectsSpecAndScaling)
{
    optics::DeviceParams nominal;
    faults::VariationSpec spec;
    Prng prng(7);
    auto draw = faults::drawVariation(spec, nominal, 8, prng);
    ASSERT_EQ(draw.splitterScale.size(), 8u);
    ASSERT_EQ(draw.ledOutputScale.size(), 8u);
    for (double led : draw.ledOutputScale) {
        EXPECT_LE(led, 1.0);
        EXPECT_GE(led, 0.1);
    }
    // Losses never go negative, whatever the draw.
    EXPECT_GE(draw.params.couplerLoss.dB(), 0.0);
    EXPECT_GE(draw.params.waveguideLossPerCm.dB(), 0.0);
    EXPECT_GE(draw.params.splitterInsertion.dB(), 0.0);

    // A zero-scaled spec is the identity draw.
    Prng zero_prng(7);
    auto none =
        faults::drawVariation(spec.scaled(0.0), nominal, 8, zero_prng);
    EXPECT_DOUBLE_EQ(none.params.couplerLoss.dB(),
                     nominal.couplerLoss.dB());
    EXPECT_DOUBLE_EQ(none.params.photodetectorMiop.watts(),
                     nominal.photodetectorMiop.watts());
    for (const auto &row : none.splitterScale)
        for (double s : row)
            EXPECT_DOUBLE_EQ(s, 1.0);
    for (double led : none.ledOutputScale)
        EXPECT_DOUBLE_EQ(led, 1.0);
}

TEST(Yield, SeededDrawsAreReproducible)
{
    FaultsFixture fx;
    auto design = fx.twoModeDesign(DecibelLoss(2.0));
    faults::VariationSpec spec;
    auto a = faults::analyzeYield(fx.layout, fx.params, design.sources,
                                  spec, 60, 99);
    auto b = faults::analyzeYield(fx.layout, fx.params, design.sources,
                                  spec, 60, 99);
    ASSERT_EQ(a.draws.size(), b.draws.size());
    EXPECT_EQ(a.yield, b.yield);
    for (std::size_t i = 0; i < a.draws.size(); ++i) {
        EXPECT_EQ(a.draws[i].pass, b.draws[i].pass);
        EXPECT_EQ(a.draws[i].worstMargin.dB(),
                  b.draws[i].worstMargin.dB());
        EXPECT_EQ(a.draws[i].worstBitErrorRate,
                  b.draws[i].worstBitErrorRate);
    }

    auto c = faults::analyzeYield(fx.layout, fx.params, design.sources,
                                  spec, 60, 100);
    EXPECT_NE(a.draws[0].worstMargin.dB(), c.draws[0].worstMargin.dB());
}

TEST(Yield, ZeroVariationPassesAndTighterToleranceIsNoWorse)
{
    FaultsFixture fx;
    auto design = fx.twoModeDesign(DecibelLoss(1.5));
    faults::VariationSpec spec;

    auto none = faults::analyzeYield(
        fx.layout, fx.params, design.sources, spec.scaled(0.0), 10, 5);
    EXPECT_DOUBLE_EQ(none.yield, 1.0);
    // The designed-in margin survives the identity draw exactly.
    EXPECT_NEAR(none.marginMin.dB(), 1.5, 1e-6);

    auto tight = faults::analyzeYield(
        fx.layout, fx.params, design.sources, spec.scaled(0.25), 150, 5);
    auto loose = faults::analyzeYield(fx.layout, fx.params,
                                      design.sources, spec, 150, 5);
    EXPECT_GE(tight.yield, loose.yield);
}

TEST(Yield, UnhardenedDesignHasPoorYield)
{
    FaultsFixture fx;
    // No margin: every mode-unique link sits exactly at pmin, so any
    // symmetric perturbation fails about half the links.
    auto design = fx.twoModeDesign(DecibelLoss(0.0));
    faults::VariationSpec spec;
    auto report = faults::analyzeYield(fx.layout, fx.params,
                                       design.sources, spec, 50, 11);
    EXPECT_LT(report.yield, 0.2);
    EXPECT_GT(report.marginFailuresByMode[0] +
                  report.marginFailuresByMode[1],
              0);
}

/** The bit pattern of @p value, as 16 hex digits. */
std::string
bitsOf(double value)
{
    return hexDigest(std::bit_cast<std::uint64_t>(value));
}

/** FNV-1a digest over every field of @p report and of each of its
 *  draws, doubles by bit pattern. */
std::string
reportDigest(const faults::YieldReport &report)
{
    const faults::VariationSpec &spec = report.spec;
    std::string text =
        std::to_string(report.trials) + "," +
        std::to_string(report.seed) + "," +
        bitsOf(spec.splitterSigma) + "," +
        bitsOf(spec.couplerSigma.dB()) + "," +
        bitsOf(spec.waveguideSigmaPerCm.dB()) + "," +
        bitsOf(spec.splitterInsertionSigma.dB()) + "," +
        bitsOf(spec.ledDroopSigma) + "," + bitsOf(spec.miopSigma.dB()) +
        "," + bitsOf(report.yield) + "," +
        bitsOf(report.marginMean.dB()) + "," +
        bitsOf(report.marginMin.dB()) + "," +
        bitsOf(report.marginP5.dB()) + "," +
        bitsOf(report.berWorstMean) + "," + bitsOf(report.berWorstMax);
    for (long long count : report.marginFailuresByMode)
        text += ",m" + std::to_string(count);
    for (long long count : report.leakFailuresByMode)
        text += ",l" + std::to_string(count);
    for (const auto &draw : report.draws)
        text += std::string(";") + (draw.pass ? "p" : "f") + "," +
                bitsOf(draw.worstMargin.dB()) + "," +
                bitsOf(draw.worstLeak.dB()) + "," +
                bitsOf(draw.worstBitErrorRate) + "," +
                std::to_string(draw.marginFailures) + "," +
                std::to_string(draw.leakFailures);
    return hexDigest(fnv1a64(text));
}

// The yield report is part of the reproducibility contract: the
// link-budget accounting behind it may be reorganized, but every
// field of every draw must keep its bits at every pool size.  The
// cases cover 1/2/4-mode designs, a required margin above zero,
// finite leak limits on both sides of pmin, and tighter and looser
// processes than the default.
TEST(Yield, ReportIsPinned)
{
    struct Case
    {
        int modes;
        double designMargin;
        double requiredMargin;
        double maxLeak;
        double sigmaScale;
        int trials;
        std::uint64_t seed;
        const char *golden;
    };
    const double no_leak_limit = optics::unconstrainedLeak.dB();
    const Case cases[] = {
        {1, 0.5, 0.0, no_leak_limit, 1.0, 40, 3, "1b03ed198dcaafff"},
        {2, 0.0, 1.0, -3.0, 1.0, 40, 5, "6c8e6f8c06d3375b"},
        {2, 2.0, 0.5, 3.0, 1.0, 40, 7, "5a309f7ea57fa051"},
        {4, 2.0, 3.0, -3.0, 0.0, 10, 9, "65d6f0ddd872d324"},
        {4, 0.5, 0.0, 0.5, 1.0, 40, 11, "ce781b2576656a35"},
    };
    FaultsFixture fx;
    for (const Case &c : cases) {
        auto design = fx.design(c.modes, DecibelLoss(c.designMargin));
        faults::YieldCriteria criteria;
        criteria.requiredMargin = DecibelLoss(c.requiredMargin);
        criteria.maxLeak = DecibelLoss(c.maxLeak);
        auto spec = faults::VariationSpec{}.scaled(c.sigmaScale);
        for (int threads : {1, 2, 8}) {
            ThreadPool pool(threads);
            auto report = faults::analyzeYield(
                fx.layout, fx.params, design.sources, spec, c.trials,
                c.seed, criteria, &pool);
            EXPECT_EQ(reportDigest(report), c.golden)
                << c.modes << " modes, seed " << c.seed << ", "
                << threads << " threads";
        }
    }
}

TEST(PowerTopology, CollapseModeMergesUpward)
{
    auto topo = distanceBasedTopology(16, 4);
    auto collapsed = collapseMode(topo, 1);
    EXPECT_EQ(collapsed.numModes, 3);
    collapsed.validate();
    for (int s = 0; s < 16; ++s) {
        for (int d = 0; d < 16; ++d) {
            if (d == s)
                continue;
            int before = topo.local(s).modeOfDest[d];
            int after = collapsed.local(s).modeOfDest[d];
            // Old modes 1 and 2 merge into new mode 1.
            EXPECT_EQ(after, before <= 1 ? before : before - 1);
        }
    }
    EXPECT_THROW(collapseMode(collapsed, 2), FatalError);
}

TEST(Hardening, LoopConvergesToYieldTarget)
{
    FaultsFixture fx;
    DesignSpec spec;
    spec.numModes = 2;
    spec.assignment = Assignment::DistanceBased;
    spec.weights = WeightSource::DesignFlow;
    FlowMatrix flow = fx.neighbourFlow();
    auto topology = fx.designer.buildTopology(spec, flow);

    ResilienceParams resilience;
    resilience.yieldTarget = 0.9;
    resilience.trials = 80;
    resilience.seed = 21;
    auto hardened = fx.designer.buildResilientDesign(
        spec, topology, flow, resilience);

    EXPECT_TRUE(hardened.summary.metTarget);
    EXPECT_GE(hardened.summary.finalYield, 0.9);
    EXPECT_GT(hardened.summary.finalMargin.dB(), 0.0);
    EXPECT_FALSE(hardened.summary.path.empty());
    EXPECT_EQ(hardened.yield.yield, hardened.summary.finalYield);

    // The emitted design holds its nominal link budgets.
    WattPower pmin = fx.params.pminAtTap();
    for (int s = 0; s < FaultsFixture::kNodes; ++s) {
        auto budget = optics::validateDesign(
            fx.xbar.chain(s), hardened.design.sources[s], pmin);
        EXPECT_TRUE(budget.ok);
    }
}

TEST(Hardening, GracefulDegradationEndsAtBroadcast)
{
    FaultsFixture fx;
    DesignSpec spec;
    spec.numModes = 4;
    spec.assignment = Assignment::DistanceBased;
    spec.weights = WeightSource::DesignFlow;
    FlowMatrix flow = fx.neighbourFlow();
    auto topology = fx.designer.buildTopology(spec, flow);

    // An unreachable yield target with almost no margin headroom: the
    // loop must walk the mode count all the way down to broadcast and
    // still emit a nominally valid design.
    ResilienceParams resilience;
    resilience.yieldTarget = 1.0;
    resilience.trials = 40;
    resilience.seed = 5;
    resilience.variation = faults::VariationSpec{}.scaled(8.0);
    resilience.maxMargin = DecibelLoss(1.0);
    resilience.marginStep = DecibelLoss(0.5);
    auto degraded = fx.designer.buildResilientDesign(
        spec, topology, flow, resilience);

    EXPECT_FALSE(degraded.summary.metTarget);
    EXPECT_EQ(degraded.design.topology.numModes, 1);
    EXPECT_EQ(degraded.summary.finalNumModes, 1);

    // The path records three collapses, with mode counts descending.
    int collapses = 0;
    int last_modes = 4;
    for (const auto &step : degraded.summary.path) {
        EXPECT_LE(step.numModes, last_modes);
        last_modes = step.numModes;
        if (step.kind == DegradationStep::Kind::Collapse)
            ++collapses;
    }
    EXPECT_EQ(collapses, 3);

    WattPower pmin = fx.params.pminAtTap();
    for (int s = 0; s < FaultsFixture::kNodes; ++s) {
        auto budget = optics::validateDesign(
            fx.xbar.chain(s), degraded.design.sources[s], pmin);
        EXPECT_TRUE(budget.ok);
    }
}

TEST(Hardening, UnreachableTargetReportsBestAchievableShortfall)
{
    FaultsFixture fx;
    DesignSpec spec;
    spec.numModes = 2;
    spec.assignment = Assignment::DistanceBased;
    spec.weights = WeightSource::DesignFlow;
    FlowMatrix flow = fx.neighbourFlow();
    auto topology = fx.designer.buildTopology(spec, flow);

    // Heavy variation and a perfect-yield target the margin budget
    // cannot buy: the loop must degrade gracefully and report the
    // shortfall instead of pretending it converged.
    ResilienceParams resilience;
    resilience.yieldTarget = 1.0;
    resilience.trials = 60;
    resilience.seed = 11;
    resilience.variation = faults::VariationSpec{}.scaled(6.0);
    resilience.maxMargin = DecibelLoss(1.5);
    resilience.marginStep = DecibelLoss(0.5);
    auto degraded = fx.designer.buildResilientDesign(
        spec, topology, flow, resilience);

    // Shortfall reporting: the target is marked unmet and the final
    // yield is the best the path actually measured, not the target.
    EXPECT_FALSE(degraded.summary.metTarget);
    EXPECT_LT(degraded.summary.finalYield, resilience.yieldTarget);
    double best_seen = -1.0;
    for (const auto &step : degraded.summary.path) {
        if (step.kind == DegradationStep::Kind::Margin)
            best_seen = std::max(best_seen, step.yield);
    }
    EXPECT_EQ(degraded.summary.finalYield, best_seen);
    EXPECT_EQ(degraded.yield.yield, best_seen);

    // Best-achievable, not garbage: the emitted design still passes
    // every nominal link budget.
    WattPower pmin = fx.params.pminAtTap();
    for (int s = 0; s < FaultsFixture::kNodes; ++s) {
        auto budget = optics::validateDesign(
            fx.xbar.chain(s), degraded.design.sources[s], pmin);
        EXPECT_TRUE(budget.ok);
    }
}

TEST(DesignIo, ResilienceSummaryRoundTrips)
{
    FaultsFixture fx;
    DesignSpec spec;
    spec.numModes = 2;
    spec.assignment = Assignment::DistanceBased;
    spec.weights = WeightSource::DesignFlow;
    FlowMatrix flow = fx.neighbourFlow();
    auto topology = fx.designer.buildTopology(spec, flow);

    ResilienceParams resilience;
    resilience.yieldTarget = 0.8;
    resilience.trials = 40;
    resilience.seed = 13;
    auto hardened = fx.designer.buildResilientDesign(
        spec, topology, flow, resilience);

    std::string path =
        testing::TempDir() + "/resilient_design_roundtrip.txt";
    saveDesign(path, hardened.design, &hardened.summary);
    auto loaded = loadDesignReport(path);

    ASSERT_TRUE(loaded.resilience.has_value());
    const auto &summary = *loaded.resilience;
    EXPECT_DOUBLE_EQ(summary.yieldTarget, 0.8);
    EXPECT_EQ(summary.trials, 40);
    EXPECT_EQ(summary.seed, 13u);
    EXPECT_DOUBLE_EQ(summary.finalYield,
                     hardened.summary.finalYield);
    EXPECT_DOUBLE_EQ(summary.finalMargin.dB(),
                     hardened.summary.finalMargin.dB());
    EXPECT_EQ(summary.metTarget, hardened.summary.metTarget);
    ASSERT_EQ(summary.path.size(), hardened.summary.path.size());
    for (std::size_t i = 0; i < summary.path.size(); ++i) {
        EXPECT_EQ(summary.path[i].kind,
                  hardened.summary.path[i].kind);
        EXPECT_EQ(summary.path[i].numModes,
                  hardened.summary.path[i].numModes);
        EXPECT_DOUBLE_EQ(summary.path[i].yield,
                         hardened.summary.path[i].yield);
    }

    // A design saved without a summary still loads without one.
    std::string bare = testing::TempDir() + "/bare_design.txt";
    saveDesign(bare, hardened.design);
    EXPECT_FALSE(loadDesignReport(bare).resilience.has_value());
}

} // namespace
