/**
 * @file
 * Table 4: base mNoC power consumption per benchmark -- the radix-256
 * single-mode crossbar with naive thread mapping that every other
 * design is normalized against.
 */

#include <iostream>

#include "common/csv.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "harness.hh"

using namespace mnoc;

int
main()
{
    bench::Harness harness;
    bench::printHeader("Base mNoC power consumption (1M, naive mapping)",
                       "Table 4");

    // Paper Table 4 values for side-by-side comparison.
    const std::map<std::string, double> paper = {
        {"barnes", 7.05},  {"radix", 120.34},  {"ocean_c", 12.31},
        {"ocean_nc", 24.23}, {"raytrace", 3.99}, {"fft", 11.41},
        {"water_s", 5.28}, {"water_ns", 6.08},  {"cholesky", 5.14},
        {"lu_cb", 7.79},   {"lu_ncb", 43.70},   {"volrend", 3.99},
    };

    const auto &designer = harness.designer();
    core::DesignSpec spec; // 1M
    auto topology = designer.buildTopology(
        spec, FlowMatrix(harness.numCores(), harness.numCores(), 1.0));
    auto design = designer.buildDesign(
        spec, topology,
        FlowMatrix(harness.numCores(), harness.numCores(), 1.0));
    auto identity = harness.identityMapping();

    TextTable table;
    table.addRow({"benchmark", "measured (W)", "paper (W)"});
    CsvWriter csv(harness.outPath("table4_base_power.csv"));
    csv.writeRow({"benchmark", "measured_w", "paper_w"});

    std::vector<double> measured;
    std::vector<double> reported;
    for (const auto &name : harness.benchmarks()) {
        auto breakdown = designer.evaluate(design, harness.trace(name),
                                           identity);
        double watts = breakdown.total();
        measured.push_back(watts);
        reported.push_back(paper.at(name));
        table.addRow({name, TextTable::num(watts, 2),
                      TextTable::num(paper.at(name), 2)});
        csv.cell(name).cell(watts).cell(paper.at(name));
        csv.endRow();
    }
    csv.close();
    table.addRow({"average", TextTable::num(mean(measured), 2),
                  TextTable::num(mean(reported), 2)});
    table.print(std::cout);

    std::cout << "\nPaper anchor: radix dominates (>100 W), lu_ncb and "
                 "ocean_nc follow;\nraytrace/volrend sit near 4 W; "
                 "suite average 20.94 W.  Absolute watts\ndepend on the "
                 "simulated utilization -- the ordering and ratios are "
                 "the\nreproduced result (see EXPERIMENTS.md).\n";
    return 0;
}
