/**
 * @file
 * Section 5.2's conventional-topology comparison: the paper finds that
 * a 256-node clustered 2-mode power topology (Figure 5a style) saves
 * only ~1 % of mNoC power, "demonstrating that distance-based power
 * topologies are superior to clustered power topologies".  This bench
 * also maps the other conventional structures Section 4.1 names --
 * binary n-cubes and trees -- onto power topologies.
 */

#include <iostream>
#include <map>
#include <vector>

#include "common/csv.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "harness.hh"

using namespace mnoc;

int
main()
{
    bench::Harness harness;
    bench::printHeader(
        "Conventional topologies mapped onto power topologies",
        "Sections 4.1/5.2");

    const auto &designer = harness.designer();
    int n = harness.numCores();
    FlowMatrix uniform(n, n, 1.0);
    auto identity = harness.identityMapping();

    // Designs under naive mapping and uniform weights (Section 5.2's
    // comparison setting).
    struct Candidate
    {
        std::string label;
        core::GlobalPowerTopology topology;
    };
    std::vector<Candidate> candidates;
    candidates.push_back(
        {"clustered 2M (Fig 5a)", core::clusteredTopology(n, 4)});
    candidates.push_back(
        {"binary tree 4M", core::binaryTreeTopology(n, 4)});
    candidates.push_back(
        {"hypercube 8M", core::hypercubeTopology(n)});
    candidates.push_back(
        {"distance 2M", core::distanceBasedTopology(n, 2)});
    candidates.push_back(
        {"distance 4M", core::distanceBasedTopology(n, 4)});

    core::DesignSpec base_spec; // 1M
    auto base_design = designer.buildDesign(
        base_spec, designer.buildTopology(base_spec, uniform), uniform);

    std::map<std::string, core::MnocDesign> designs;
    for (const auto &candidate : candidates)
        designs.emplace(candidate.label,
                        designer.model().designUniform(
                            candidate.topology));

    TextTable table;
    table.addRow({"topology", "modes", "normalized power (hmean)",
                  "saving"});
    CsvWriter csv(harness.outPath("sec52_conventional.csv"));
    csv.writeRow({"topology", "modes", "normalized_power"});

    for (const auto &candidate : candidates) {
        std::vector<double> norm;
        for (const auto &name : harness.benchmarks()) {
            const auto &trace = harness.trace(name);
            double base =
                designer.evaluate(base_design, trace, identity)
                    .total();
            norm.push_back(
                designer
                    .evaluate(designs.at(candidate.label), trace,
                              identity)
                    .total() /
                base);
        }
        double h = harmonicMean(norm);
        table.addRow({candidate.label,
                      std::to_string(candidate.topology.numModes),
                      TextTable::num(h, 3),
                      TextTable::num(100.0 * (1.0 - h), 1) + "%"});
        csv.cell(candidate.label)
            .cell(static_cast<long long>(candidate.topology.numModes))
            .cell(h);
        csv.endRow();
    }
    csv.close();
    table.print(std::cout);

    std::cout << "\nPaper anchor: the clustered 2-mode mapping saves "
                 "only ~1% because nodes\nthat are physically adjacent "
                 "on the waveguide but in different clusters\npay the "
                 "high mode; topologies that respect waveguide distance "
                 "(and the\nhypercube, whose low modes are "
                 "mostly-near neighbours) do far better.\n";
    return 0;
}
