/**
 * @file
 * The benchmark's own tests: every output check rejects a
 * deliberately wrong result, and a thrown FatalError is exactly one
 * failed op.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <vector>

#include "checks.hh"
#include "common/log.hh"
#include "core/designer.hh"
#include "noc/mnoc_network.hh"
#include "probe.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"
#include "workloads/registry.hh"

using namespace mnoc;
using namespace mnoc::pipebench;

namespace {

constexpr int kCores = 16;

struct Fixture
{
    Fixture()
        : layout(kCores,
                 optics::defaultWaveguideLength * kCores / 256.0),
          crossbar(layout, optics::DeviceParams{}),
          designer(crossbar)
    {
    }

    sim::Trace
    simulate()
    {
        noc::MnocNetwork network(layout, noc::NetworkConfig{});
        auto workload = workloads::makeWorkload(
            "water_s", workloads::WorkloadScale{200});
        sim::SimConfig config;
        config.numCores = kCores;
        return sim::toTrace(
            sim::runSimulation(config, network, *workload, 3));
    }

    core::MnocDesign
    design(const sim::Trace &trace)
    {
        core::DesignSpec spec;
        spec.numModes = 2;
        spec.assignment = core::Assignment::DistanceBased;
        spec.weights = core::WeightSource::DesignFlow;
        FlowMatrix flow = toFlowMatrix(trace.flits);
        return designer.buildDesign(
            spec, designer.buildTopology(spec, flow), flow);
    }

    optics::SerpentineLayout layout;
    optics::OpticalCrossbar crossbar;
    core::Designer designer;
};

std::string
scratchDir()
{
    std::string dir = ".bench_work/test-" + std::to_string(getpid());
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace

TEST(Checks, RejectsNonPermutationMapping)
{
    std::vector<int> mapping(kCores);
    std::iota(mapping.begin(), mapping.end(), 0);
    EXPECT_NO_THROW(checkPermutation(mapping, kCores));
    mapping[5] = mapping[9];
    EXPECT_THROW(checkPermutation(mapping, kCores), CheckFailure);

    core::MappingResult result;
    result.threadToCore = mapping;
    result.qapCost = 1.0;
    result.identityCost = 2.0;
    EXPECT_THROW(checkMapping(result, kCores), CheckFailure);
    std::iota(result.threadToCore.begin(), result.threadToCore.end(), 0);
    EXPECT_NO_THROW(checkMapping(result, kCores));
    result.qapCost = 3.0;
    EXPECT_THROW(checkMapping(result, kCores), CheckFailure);
}

TEST(Checks, RejectsDesignWithStarvedTap)
{
    Fixture fx;
    auto design = fx.design(fx.simulate());
    EXPECT_NO_THROW(checkDesign(fx.crossbar, design, "valid"));
    // Halve one source's drive in every mode: its farthest reachable
    // tap now sits 3 dB below the receiver threshold.
    for (auto &power : design.sources[7].modePower)
        power = power * 0.5;
    EXPECT_THROW(checkDesign(fx.crossbar, design, "starved"),
                 CheckFailure);
}

TEST(Checks, RejectsTraceCutAtLineBoundary)
{
    Fixture fx;
    auto written = fx.simulate();
    std::string path = scratchDir() + "/cut.trace";
    sim::saveTrace(path, written);
    EXPECT_NO_THROW(
        checkTraceRoundTrip(written, sim::loadTrace(path), 0));

    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    // Keep whole lines only, ending well inside the message records.
    std::size_t cut = bytes.rfind('\n', bytes.size() * 3 / 4) + 1;
    ASSERT_GT(cut, 0u);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    // Whether the loader catches the cut itself or loads a smaller
    // trace, the result must not pass as the trace that was written.
    bool rejected = false;
    try {
        checkTraceRoundTrip(written, sim::loadTrace(path), 0);
    } catch (const FatalError &) {
        rejected = true;
    } catch (const CheckFailure &) {
        rejected = true;
    }
    EXPECT_TRUE(rejected);
    std::filesystem::remove_all(std::filesystem::path(path).parent_path());
}

TEST(Checks, RejectsLedgerMissingFlitsAndPowerMismatch)
{
    core::EnergyLedger ledger(2, 1, 1, 1.0);
    ledger.cell(0, 0, 0).flits = 10;
    CountMatrix flits(2, 2, 0);
    flits(0, 1) = 10;
    EXPECT_NO_THROW(checkLedgerCoversTrace(ledger, flits));
    flits(1, 0) = 1;
    EXPECT_THROW(checkLedgerCoversTrace(ledger, flits), CheckFailure);

    EXPECT_NO_THROW(checkSamePower(0.25, 0.25));
    EXPECT_THROW(checkSamePower(0.25, 0.25 * (1 + 1e-15)),
                 CheckFailure);
}

TEST(Checks, RejectsBrokenReconciliation)
{
    core::EnergyLedger static_ledger(1, 1, 2, 1.0);
    core::EnergyLedger adaptive_ledger(1, 1, 2, 1.0);
    static_ledger.cell(0, 0, 0).sourceEnergy = 4.0;
    static_ledger.cell(0, 0, 1).sourceEnergy = 4.0;
    adaptive_ledger.cell(0, 0, 0).sourceEnergy = 4.0;
    adaptive_ledger.cell(0, 0, 1).sourceEnergy = 3.0;
    adaptive_ledger.addReconfigEnergy(1, 0.5);
    runtime::AdaptiveLog log;
    log.epochs.resize(2);
    log.totalReconfigEnergy = 0.5;
    auto comparison = runtime::reconcileAdaptive(static_ledger,
                                                 adaptive_ledger, log);
    EXPECT_NO_THROW(checkReconcile(static_ledger, adaptive_ledger, log,
                                   comparison));
    auto tampered = comparison;
    tampered.netSavings += 0.25;
    EXPECT_THROW(checkReconcile(static_ledger, adaptive_ledger, log,
                                tampered),
                 CheckFailure);
    log.totalReconfigEnergy = 0.0;
    EXPECT_THROW(checkReconcile(static_ledger, adaptive_ledger, log,
                                comparison),
                 CheckFailure);
}

TEST(Checks, RejectsEpochBelowRequiredMargin)
{
    runtime::DegradationPolicy policy;
    runtime::DegradationLog log;
    log.epochs.resize(3);
    EXPECT_NO_THROW(checkDegradation(log, 3, policy));
    EXPECT_THROW(checkDegradation(log, 4, policy), CheckFailure);
    log.epochs[1].marginAfter = DecibelLoss(-0.25);
    EXPECT_THROW(checkDegradation(log, 3, policy), CheckFailure);
}

TEST(OpLedger, ThrownFatalIsExactlyOneFailedOp)
{
    OpLedger ops;
    int calls = 0;
    EXPECT_FALSE(ops.run("fatal", [&] {
        ++calls;
        fatal("deliberate");
    }));
    EXPECT_EQ(calls, 1); // never retried
    EXPECT_EQ(ops.attempted(), 1);
    EXPECT_EQ(ops.failed(), 1);

    EXPECT_TRUE(ops.run("ok", [&] { ++calls; }));
    EXPECT_FALSE(ops.run("panic", [] { panic("deliberate"); }));
    EXPECT_FALSE(ops.run("check", [] { throw CheckFailure("wrong"); }));
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(ops.attempted(), 4);
    EXPECT_EQ(ops.failed(), 3);
}

TEST(Tracer, SelfTimeExcludesChildSpans)
{
    Tracer tracer;
    tracer.beginPass(0, true);
    {
        auto stage = tracer.stage("stage");
        auto layer = tracer.layer("layer");
        usleep(2000);
    }
    tracer.beginPass(1, false);
    {
        auto stage = tracer.stage("stage");
        auto layer = tracer.layer("layer"); // untraced: not recorded
    }
    auto self = tracer.selfTimes(0);
    auto stages = tracer.stageTimes(0);
    EXPECT_GE(self["layer"], 0.002);
    EXPECT_NEAR(self["stage"] + self["layer"], stages["stage"], 1e-12);
    EXPECT_EQ(tracer.selfTimes(1).count("layer"), 0u);
    EXPECT_EQ(tracer.spans().size(), 3u);
}

TEST(Probe, QuantilesInterpolateBetweenOrderStatistics)
{
    // The same rule as Python's statistics.quantiles(method="inclusive").
    std::vector<double> values = {4.0, 1.0, 3.0, 2.0, 5.0};
    EXPECT_DOUBLE_EQ(median(values), 3.0);
    EXPECT_DOUBLE_EQ(lowerQuartile(values), 2.0);
    EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
    EXPECT_DOUBLE_EQ(lowerQuartile({1.0, 2.0, 3.0, 4.0}), 1.75);
    EXPECT_DOUBLE_EQ(lowerQuartile({7.0}), 7.0);
}
