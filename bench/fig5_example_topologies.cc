/**
 * @file
 * Figure 5: the paper's two 8-node example power topologies rendered
 * as adjacency matrices -- (a) the clustered mapping with four nodes
 * per cluster and two modes, and (b) the distance-based four-mode
 * design built from groups of the two nearest destinations.  Entries
 * are printed 1-based to match the paper's figure exactly.
 *
 * (Figures 1 and 4 of the paper are device/model schematics with no
 * computational content; every other figure has its own binary.)
 */

#include <iostream>

#include "common/knobs.hh"
#include "common/table.hh"
#include "core/builders.hh"
#include "harness.hh"

using namespace mnoc;

namespace {

void
printTopology(const core::GlobalPowerTopology &topo,
              const std::string &title)
{
    std::cout << "\n--- " << title << " ---\n";
    TextTable table;
    {
        std::vector<std::string> header = {"src\\dst"};
        for (int d = 0; d < topo.numNodes; ++d)
            header.push_back(std::to_string(d));
        table.addRow(header);
    }
    // The paper prints rows top-down from the highest source index.
    for (int s = topo.numNodes - 1; s >= 0; --s) {
        std::vector<std::string> row = {std::to_string(s)};
        for (int d = 0; d < topo.numNodes; ++d) {
            int mode = topo.local(s).modeOfDest[d];
            row.push_back(mode < 0 ? "-" : std::to_string(mode + 1));
        }
        table.addRow(row);
    }
    table.print(std::cout);
}

} // namespace

int
main()
{
    initKnobs();
    bench::printHeader("Example power topologies (8 nodes)",
                       "Figure 5");

    // Figure 5a: clustered, 4 nodes per cluster, two modes.
    printTopology(core::clusteredTopology(8, 4),
                  "Figure 5a: clustered power topology");

    // Figure 5b: distance-based on groups of the two nearest.
    printTopology(core::distanceBasedTopology(8, {2, 2, 2, 1}),
                  "Figure 5b: distance-based power topology");

    std::cout << "\nCheck against the paper: in 5a nodes 0-3 and 4-7 "
                 "form mode-1 clusters;\nin 5b row 3 reads "
                 "3,2,1,-,1,2,3,4 -- the two nearest neighbours in\n"
                 "mode 1, then rings of increasing mode outward.\n";
    return 0;
}
