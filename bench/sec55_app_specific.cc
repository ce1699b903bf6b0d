/**
 * @file
 * Section 5.5: application-specific power topologies -- a custom
 * communication-aware design built from each benchmark's own traffic,
 * compared against the naive distance-based design under the same QAP
 * mapping.  The paper finds a modest (~8%) improvement: "keep it
 * simple" unless the deployment has fixed communication patterns.
 */

#include <iostream>
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
        "Application-specific (custom) power topologies",
        "Section 5.5");

    const auto &designer = harness.designer();
    int n = harness.numCores();
    FlowMatrix uniform(n, n, 1.0);
    auto identity = harness.identityMapping();

    core::DesignSpec base_spec; // 1M
    auto base_design = designer.buildDesign(
        base_spec, designer.buildTopology(base_spec, uniform), uniform);

    core::DesignSpec naive_spec;
    naive_spec.numModes = 2;
    naive_spec.assignment = core::Assignment::DistanceBased;
    auto naive_design = designer.buildDesign(
        naive_spec, designer.buildTopology(naive_spec, uniform),
        uniform);

    TextTable table;
    table.addRow({"benchmark", "2M_T_N_U", "2M_T_C (custom)",
                  "custom gain"});
    CsvWriter csv(harness.outPath("sec55_app_specific.csv"));
    csv.writeRow({"benchmark", "naive_norm", "custom_norm", "gain"});

    std::vector<double> gains;
    for (const auto &name : harness.benchmarks()) {
        const auto &trace = harness.trace(name);
        const auto &taboo = harness.mapping(name);
        double base =
            designer.evaluate(base_design, trace, identity).total();

        double naive =
            designer.evaluate(naive_design, trace, taboo).total() /
            base;

        // Custom: comm-aware assignment + splitters from this app's
        // own mapped traffic.
        FlowMatrix own = permuteFlow(harness.threadFlow(name), taboo);
        core::DesignSpec custom_spec;
        custom_spec.numModes = 2;
        custom_spec.assignment = core::Assignment::CommAware;
        custom_spec.weights = core::WeightSource::DesignFlow;
        auto custom_design = designer.buildDesign(
            custom_spec, designer.buildTopology(custom_spec, own),
            own);
        double custom =
            designer.evaluate(custom_design, trace, taboo).total() /
            base;

        double gain = 1.0 - custom / naive;
        gains.push_back(gain);
        table.addRow({name, TextTable::num(naive, 3),
                      TextTable::num(custom, 3),
                      TextTable::num(100.0 * gain, 1) + "%"});
        csv.cell(name).cell(naive).cell(custom).cell(gain);
        csv.endRow();
    }
    csv.close();
    table.addRow({"mean", "-", "-",
                  TextTable::num(100.0 * mean(gains), 1) + "%"});
    table.print(std::cout);

    std::cout << "\nPaper anchor: custom designs gain only ~8% over "
                 "the naive distance-based\ntopology -- worthwhile for "
                 "embedded/ASIC deployments with known traffic,\n"
                 "otherwise \"keep it simple\".\n";
    return 0;
}
