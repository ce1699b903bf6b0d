/**
 * @file
 * Extension (paper Section 7, future work): using the SWMR crossbar's
 * native broadcast/multicast for coherence invalidations.  A home node
 * sends one invalidation that every sharer's receiver filters, instead
 * of one unicast per sharer.  Compares packets, runtime, and network
 * power with and without multicast on the sharing-heavy benchmarks.
 */

#include <iostream>
#include <vector>

#include "common/csv.hh"
#include "common/table.hh"
#include "harness.hh"
#include "noc/mnoc_network.hh"
#include "sim/simulator.hh"

using namespace mnoc;

int
main()
{
    bench::Harness harness;
    bench::printHeader(
        "Multicast invalidations over the SWMR crossbar",
        "Section 7 (future-work extension)");

    int n = harness.numCores();
    optics::SerpentineLayout layout{n, optics::defaultWaveguideLength};
    noc::NetworkConfig net_config;
    const auto &designer = harness.designer();

    FlowMatrix uniform(n, n, 1.0);
    core::DesignSpec spec; // evaluate under the 1M design
    auto design = designer.buildDesign(
        spec, designer.buildTopology(spec, uniform), uniform);
    auto identity = harness.identityMapping();

    TextTable table;
    table.addRow({"benchmark", "mode", "packets", "mcast invs",
                  "runtime (kcycles)", "power (W)"});
    CsvWriter csv(harness.outPath("ablation_multicast.csv"));
    csv.writeRow({"benchmark", "multicast", "packets", "mcast_invs",
                  "ticks", "power_w"});

    // The write-sharing benchmarks benefit; radix included as the
    // invalidation-heavy extreme.
    for (const std::string name :
         {"water_s", "ocean_nc", "lu_ncb", "radix"}) {
        for (bool multicast : {false, true}) {
            noc::MnocNetwork net(layout, net_config);
            sim::SimConfig config;
            config.numCores = n;
            config.memory.multicastInvalidations = multicast;
            workloads::WorkloadScale scale;
            scale.opsPerThread = 2000;
            auto workload = workloads::makeWorkload(name, scale);
            std::cerr << "[multicast] " << name
                      << (multicast ? " (multicast)" : " (unicast)")
                      << "...\n";
            auto result =
                sim::runSimulation(config, net, *workload, 1);
            auto trace = sim::toTrace(result);
            double power =
                designer.evaluate(design, trace, identity).total();

            table.addRow(
                {name, multicast ? "multicast" : "unicast",
                 std::to_string(result.coherence.packetsSent),
                 std::to_string(result.coherence.multicastInvs),
                 TextTable::num(
                     static_cast<double>(result.totalTicks) / 1000.0,
                     0),
                 TextTable::num(power, 2)});
            csv.cell(name)
                .cell(static_cast<long long>(multicast))
                .cell(static_cast<long long>(
                    result.coherence.packetsSent))
                .cell(static_cast<long long>(
                    result.coherence.multicastInvs))
                .cell(static_cast<long long>(result.totalTicks))
                .cell(power);
            csv.endRow();
        }
    }
    csv.close();
    table.print(std::cout);

    std::cout << "\nReading: multicast removes the per-sharer "
                 "invalidation unicasts (fewer\npackets, shorter write "
                 "bursts) at the cost of driving the mode that\ncovers "
                 "the farthest sharer -- the coherence-protocol "
                 "co-design the paper\nleaves as future work.\n";
    return 0;
}
