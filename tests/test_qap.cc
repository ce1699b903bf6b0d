/**
 * @file
 * Tests of the QAP substrate: cost evaluation, delta correctness on
 * random instances, and the heuristics against exhaustive optima.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/manifest.hh"
#include "common/prng.hh"
#include "core/thread_mapper.hh"
#include "optics/crossbar.hh"
#include "qap/annealing.hh"
#include "qap/exhaustive.hh"
#include "qap/qap.hh"
#include "qap/taboo.hh"

namespace {

using namespace mnoc;
using namespace mnoc::qap;

FlowMatrix
randomSymmetric(int n, Prng &rng, double scale = 10.0)
{
    FlowMatrix m(n, n, 0.0);
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            m(i, j) = m(j, i) = rng.uniform() * scale;
    return m;
}

FlowMatrix
randomAsymmetric(int n, Prng &rng)
{
    FlowMatrix m(n, n, 0.0);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            if (i != j)
                m(i, j) = rng.uniform() * 5.0;
    return m;
}

TEST(Qap, CostOfKnownInstance)
{
    FlowMatrix flow(3, 3, 0.0);
    flow(0, 1) = 2.0;
    flow(1, 0) = 2.0;
    FlowMatrix dist(3, 3, 0.0);
    dist(0, 1) = dist(1, 0) = 1.0;
    dist(0, 2) = dist(2, 0) = 5.0;
    dist(1, 2) = dist(2, 1) = 3.0;
    QapInstance inst(flow, dist);

    // Facilities 0 and 1 exchange flow 2 each way; cost = 4 * dist.
    EXPECT_DOUBLE_EQ(inst.cost({0, 1, 2}), 4.0 * 1.0);
    EXPECT_DOUBLE_EQ(inst.cost({0, 2, 1}), 4.0 * 5.0);
    EXPECT_DOUBLE_EQ(inst.cost({1, 2, 0}), 4.0 * 3.0);
}

TEST(Qap, SymmetryDetection)
{
    Prng rng(3);
    QapInstance sym(randomSymmetric(6, rng), randomSymmetric(6, rng));
    EXPECT_TRUE(sym.isSymmetric());
    QapInstance asym(randomAsymmetric(6, rng), randomSymmetric(6, rng));
    EXPECT_FALSE(asym.isSymmetric());
}

TEST(Qap, SwapDeltaMatchesRecomputationSymmetric)
{
    Prng rng(11);
    QapInstance inst(randomSymmetric(8, rng), randomSymmetric(8, rng));
    Permutation perm = inst.identity();
    std::shuffle(perm.begin(), perm.end(), rng);

    for (int u = 0; u < 8; ++u) {
        for (int v = u + 1; v < 8; ++v) {
            double base = inst.cost(perm);
            Permutation swapped = perm;
            std::swap(swapped[u], swapped[v]);
            EXPECT_NEAR(inst.swapDelta(perm, u, v),
                        inst.cost(swapped) - base, 1e-9)
                << "pair " << u << "," << v;
        }
    }
}

TEST(Qap, SwapDeltaMatchesRecomputationAsymmetric)
{
    Prng rng(13);
    QapInstance inst(randomAsymmetric(7, rng), randomAsymmetric(7, rng));
    Permutation perm = inst.identity();
    std::shuffle(perm.begin(), perm.end(), rng);

    for (int u = 0; u < 7; ++u)
        for (int v = 0; v < 7; ++v) {
            if (u == v)
                continue;
            Permutation swapped = perm;
            std::swap(swapped[u], swapped[v]);
            EXPECT_NEAR(inst.swapDelta(perm, u, v),
                        inst.cost(swapped) - inst.cost(perm), 1e-9);
        }
}

TEST(Qap, ChecksPermutations)
{
    Prng rng(5);
    QapInstance inst(randomSymmetric(4, rng), randomSymmetric(4, rng));
    EXPECT_THROW(inst.cost({0, 1, 2}), FatalError);       // short
    EXPECT_THROW(inst.cost({0, 1, 2, 2}), FatalError);    // duplicate
    EXPECT_THROW(inst.cost({0, 1, 2, 4}), FatalError);    // range
    EXPECT_NO_THROW(inst.cost({3, 2, 1, 0}));
}

TEST(Exhaustive, FindsBruteForceOptimum)
{
    Prng rng(17);
    QapInstance inst(randomSymmetric(6, rng), randomSymmetric(6, rng));
    auto result = exhaustiveSearch(inst);
    // Verify against direct enumeration of cost at a few random perms.
    Permutation perm = inst.identity();
    for (int trial = 0; trial < 50; ++trial) {
        std::shuffle(perm.begin(), perm.end(), rng);
        EXPECT_LE(result.cost, inst.cost(perm) + 1e-9);
    }
    EXPECT_THROW(
        exhaustiveSearch(QapInstance(randomSymmetric(11, rng),
                                     randomSymmetric(11, rng))),
        FatalError);
}

TEST(Taboo, MatchesExhaustiveOnSmallInstances)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Prng rng(seed);
        QapInstance inst(randomSymmetric(7, rng),
                         randomSymmetric(7, rng));
        auto best = exhaustiveSearch(inst);
        TabooParams params;
        params.iterations = 12000;
        params.seed = seed;
        auto found = tabooSearch(inst, inst.identity(), params);
        // Robust taboo is a heuristic: demand near-optimality.
        EXPECT_LE(found.cost, best.cost * 1.02 + 1e-9)
            << "seed " << seed;
    }
}

TEST(Taboo, ImprovesOnIdentityForStructuredInstance)
{
    // Ring flow on a line metric: identity is already good; a reversed
    // start must be repaired by the search.
    int n = 12;
    FlowMatrix flow(n, n, 0.0);
    for (int i = 0; i < n; ++i) {
        flow(i, (i + 1) % n) += 1.0;
        flow((i + 1) % n, i) += 1.0;
    }
    FlowMatrix dist(n, n, 0.0);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            dist(i, j) = std::abs(i - j);
    QapInstance inst(flow, dist);

    Permutation scrambled = inst.identity();
    Prng rng(5);
    std::shuffle(scrambled.begin(), scrambled.end(), rng);

    TabooParams params;
    params.iterations = 5000;
    auto result = tabooSearch(inst, scrambled, params);
    EXPECT_LT(result.cost, inst.cost(scrambled));
    // The ring embeds on the line with cost 2*(2*(n-1)).
    EXPECT_LE(result.cost, 2.0 * 2.0 * (n - 1) + 1e-9);
}

TEST(Taboo, RequiresSymmetricInstance)
{
    Prng rng(23);
    QapInstance inst(randomAsymmetric(5, rng), randomSymmetric(5, rng));
    EXPECT_THROW(tabooSearch(inst, inst.identity()), FatalError);
}

TEST(Taboo, ReportedCostMatchesPermutation)
{
    Prng rng(29);
    QapInstance inst(randomSymmetric(10, rng),
                     randomSymmetric(10, rng));
    TabooParams params;
    params.iterations = 2000;
    auto result = tabooSearch(inst, inst.identity(), params);
    EXPECT_NEAR(result.cost, inst.cost(result.perm), 1e-6);
}

TEST(Annealing, MatchesExhaustiveOnSmallInstances)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Prng rng(seed * 7);
        QapInstance inst(randomSymmetric(6, rng),
                         randomSymmetric(6, rng));
        auto best = exhaustiveSearch(inst);
        AnnealingParams params;
        params.iterations = 40000;
        params.seed = seed;
        auto found = simulatedAnnealing(inst, inst.identity(), params);
        EXPECT_NEAR(found.cost, best.cost, 0.05 * (1.0 + best.cost))
            << "seed " << seed;
    }
}

TEST(Annealing, WorksOnAsymmetricInstances)
{
    Prng rng(31);
    QapInstance inst(randomAsymmetric(8, rng), randomAsymmetric(8, rng));
    AnnealingParams params;
    params.iterations = 20000;
    auto result = simulatedAnnealing(inst, inst.identity(), params);
    EXPECT_LE(result.cost, inst.cost(inst.identity()) + 1e-9);
    EXPECT_NEAR(result.cost, inst.cost(result.perm), 1e-6);
}

/** Taboo vs annealing on matched instances: both near-optimal. */
class SolverComparison : public testing::TestWithParam<int>
{
};

TEST_P(SolverComparison, BothSolversNearExhaustive)
{
    Prng rng(static_cast<std::uint64_t>(GetParam()) * 101);
    QapInstance inst(randomSymmetric(7, rng), randomSymmetric(7, rng));
    auto best = exhaustiveSearch(inst);

    TabooParams tp;
    tp.iterations = 12000;
    auto taboo = tabooSearch(inst, inst.identity(), tp);
    AnnealingParams ap;
    ap.iterations = 60000;
    auto sa = simulatedAnnealing(inst, inst.identity(), ap);

    EXPECT_LE(taboo.cost, best.cost * 1.03 + 1e-9);
    EXPECT_LE(sa.cost, best.cost * 1.10 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverComparison, testing::Range(1, 7));

/** FNV-1a of a permutation rendered as comma-separated entries. */
std::string
permHash(const Permutation &perm)
{
    std::string text;
    for (int p : perm)
        text += std::to_string(p) + ",";
    return hexDigest(fnv1a64(text));
}

/** The bit pattern of @p value, as 16 hex digits. */
std::string
costBits(double value)
{
    return hexDigest(std::bit_cast<std::uint64_t>(value));
}

/** A symmetric instance whose mirrored entries differ in their last
 *  bits: isSymmetric() accepts it, but no matrix equals its transpose. */
FlowMatrix
nearlySymmetric(int n, Prng &rng)
{
    FlowMatrix m(n, n, 0.0);
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j) {
            m(i, j) = rng.uniform() * 10.0;
            m(j, i) = m(i, j) * (1.0 + 1e-12);
        }
    return m;
}

// The taboo trajectory is part of the reproducibility contract: the
// mapping (and every design built on it) must not move when the delta
// kernel is reorganized.  Each golden pins the final permutation and
// the exact bits of its cost.
TEST(Taboo, TrajectoryIsPinned)
{
    {
        // The paper's design point: a 256-core mapThreads instance.
        int n = 256;
        optics::SerpentineLayout layout(n, optics::defaultWaveguideLength);
        optics::OpticalCrossbar xbar(layout, optics::DeviceParams{});
        Prng rng(41);
        FlowMatrix flow(n, n, 0.0);
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j)
                if (i != j)
                    flow(i, j) = rng.uniform() *
                                 (std::abs(i - j) < 8 ? 100.0 : 1.0);
        // Exactly symmetric, so the search reads rows as columns.
        auto dist = core::powerDistanceMatrix(xbar);
        int mirrored = 0;
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j)
                mirrored += costBits(dist(i, j)) == costBits(dist(j, i));
        EXPECT_EQ(mirrored, n * n);
        core::MappingParams params;
        params.tabooIterations = 300;
        params.restarts = 2;
        params.seed = 7;
        auto result = core::mapThreads(xbar, flow,
                                       core::MappingMethod::Taboo,
                                       params);
        EXPECT_EQ(permHash(result.threadToCore), "3668601f14c6b927");
        EXPECT_EQ(costBits(result.qapCost), "405765295dc4662a");
    }
    {
        // Small and long: past 5 n^2 iterations the long-term
        // diversification forces idle pairs.
        // One statement per draw: argument evaluation order is
        // unspecified, and the goldens depend on which matrix comes
        // first.
        Prng rng(43);
        FlowMatrix dist = randomSymmetric(12, rng);
        FlowMatrix flow = randomSymmetric(12, rng);
        QapInstance inst(flow, dist);
        TabooParams params;
        params.iterations = 3000;
        params.seed = 3;
        auto result = tabooSearch(inst, inst.identity(), params);
        EXPECT_EQ(permHash(result.perm), "69176b8f0155dd0d");
        EXPECT_EQ(costBits(result.cost), "40a4c565048cb09a");
    }
    {
        // Symmetric only within tolerance: the column reads differ
        // from the row reads in their last bits.
        Prng rng(47);
        FlowMatrix dist = nearlySymmetric(20, rng);
        FlowMatrix flow = nearlySymmetric(20, rng);
        QapInstance inst(flow, dist);
        ASSERT_TRUE(inst.isSymmetric());
        ASSERT_NE(inst.flow()(0, 1), inst.flow()(1, 0));
        TabooParams params;
        params.iterations = 1500;
        params.seed = 5;
        auto result = tabooSearch(inst, inst.identity(), params);
        EXPECT_EQ(permHash(result.perm), "73c55a01b1521f97");
        EXPECT_EQ(costBits(result.cost), "40c0ffd5fa82212d");
    }
}

} // namespace
