/**
 * @file
 * Performance comparison (Sections 2.1 and 5.1): per-benchmark runtime
 * and packet latency of the radix-256 mNoC crossbar versus the
 * clustered rNoC topology; the paper reports ~10% higher performance
 * for mNoC.
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
    bench::printHeader("Runtime: mNoC crossbar vs clustered rNoC",
                       "Table 1 / Section 5.1 performance claims");

    TextTable table;
    table.addRow({"benchmark", "mNoC ticks", "rNoC ticks", "speedup"});
    CsvWriter csv(harness.outPath("perf_comparison.csv"));
    csv.writeRow({"benchmark", "mnoc_ticks", "rnoc_ticks", "speedup"});

    std::vector<double> speedups;
    for (const auto &name : harness.benchmarks()) {
        const auto &mnoc_trace = harness.trace(name, "mnoc");
        const auto &rnoc_trace = harness.trace(name, "rnoc");
        double speedup =
            static_cast<double>(rnoc_trace.totalTicks) /
            static_cast<double>(mnoc_trace.totalTicks);
        speedups.push_back(speedup);
        table.addRow({name, std::to_string(mnoc_trace.totalTicks),
                      std::to_string(rnoc_trace.totalTicks),
                      TextTable::num(speedup, 3)});
        csv.cell(name)
            .cell(static_cast<long long>(mnoc_trace.totalTicks))
            .cell(static_cast<long long>(rnoc_trace.totalTicks))
            .cell(speedup);
        csv.endRow();
    }
    csv.close();
    table.addRow({"geomean", "-", "-",
                  TextTable::num(geometricMean(speedups), 3)});
    table.print(std::cout);

    std::cout << "\nPaper anchor: the single-hop radix-256 crossbar is "
                 "~10% faster than the\nclustered topology (two router "
                 "crossings + shared ports).  Power\ntopologies do not "
                 "change latency: every mode has the same "
                 "time-of-flight.\n";
    return 0;
}
