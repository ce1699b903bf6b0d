/**
 * @file
 * Ablation (Section 4.4): thread-mapping heuristics compared -- naive
 * identity, simulated annealing, and Taillard robust taboo search --
 * on the suite's real traffic, reporting both QAP cost and the
 * resulting single-mode mNoC power.  The paper finds "Taboo generally
 * performs best".
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
    bench::printHeader("Thread-mapping heuristic ablation",
                       "Section 4.4");

    const auto &designer = harness.designer();
    int n = harness.numCores();
    FlowMatrix uniform(n, n, 1.0);
    auto identity = harness.identityMapping();

    core::DesignSpec spec; // 1M
    auto design = designer.buildDesign(
        spec, designer.buildTopology(spec, uniform), uniform);

    TextTable table;
    table.addRow({"benchmark", "identity", "annealing", "taboo",
                  "taboo wins"});
    CsvWriter csv(harness.outPath("ablation_qap_solvers.csv"));
    csv.writeRow({"benchmark", "identity_norm", "annealing_norm",
                  "taboo_norm"});

    std::vector<double> sa_norms;
    std::vector<double> taboo_norms;
    int taboo_wins = 0;
    for (const auto &name : harness.benchmarks()) {
        const auto &trace = harness.trace(name);
        FlowMatrix flow = harness.threadFlow(name);
        double base =
            designer.evaluate(design, trace, identity).total();

        core::MappingParams params;
        params.tabooIterations = 20000;
        params.annealingIterations = 600000;
        auto sa = designer.map(flow, core::MappingMethod::Annealing,
                               params);
        const auto &taboo_map = harness.mapping(name);

        double sa_norm =
            designer.evaluate(design, trace, sa.threadToCore).total() /
            base;
        double taboo_norm =
            designer.evaluate(design, trace, taboo_map).total() / base;
        sa_norms.push_back(sa_norm);
        taboo_norms.push_back(taboo_norm);
        if (taboo_norm <= sa_norm)
            ++taboo_wins;

        table.addRow({name, "1.000", TextTable::num(sa_norm, 3),
                      TextTable::num(taboo_norm, 3),
                      taboo_norm <= sa_norm ? "yes" : "no"});
        csv.cell(name).cell(1.0).cell(sa_norm).cell(taboo_norm);
        csv.endRow();
    }
    csv.close();
    table.addRow({"hmean", "1.000",
                  TextTable::num(harmonicMean(sa_norms), 3),
                  TextTable::num(harmonicMean(taboo_norms), 3),
                  std::to_string(taboo_wins) + "/12"});
    table.print(std::cout);

    std::cout << "\nPaper anchor: QAP mapping alone cuts single-mode "
                 "power by ~27% on\naverage; taboo generally beats "
                 "simulated annealing.\n";
    return 0;
}
