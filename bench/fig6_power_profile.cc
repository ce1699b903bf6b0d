/**
 * @file
 * Figure 6: the single-mode (broadcast) source power of every core
 * position on the serpentine, normalized to the maximum.  End sources
 * pay ~5x the middle sources, which is what makes QAP thread mapping
 * profitable (Section 4.4).
 */

#include <iostream>

#include "common/csv.hh"
#include "common/table.hh"
#include "harness.hh"

using namespace mnoc;

int
main()
{
    bench::Harness harness;
    bench::printHeader(
        "mNoC single-mode power profile vs source core position",
        "Figure 6");

    const auto &xbar = harness.crossbar();
    int n = harness.numCores();

    double peak = 0.0;
    for (int s = 0; s < n; ++s)
        peak = std::max(peak, xbar.broadcastPower(s).watts());

    CsvWriter csv(harness.outPath("fig6_power_profile.csv"));
    csv.writeRow({"source_position", "normalized_power"});
    for (int s = 0; s < n; ++s) {
        csv.cell(static_cast<long long>(s))
            .cell(xbar.broadcastPower(s).watts() / peak);
        csv.endRow();
    }
    csv.close();

    TextTable table;
    table.addRow({"source position", "normalized power"});
    for (int s = 0; s < n; s += n / 16)
        table.addRow({std::to_string(s),
                      TextTable::num(
                          xbar.broadcastPower(s).watts() / peak, 3)});
    table.addRow({std::to_string(n - 1),
                  TextTable::num(
                      xbar.broadcastPower(n - 1).watts() / peak, 3)});
    table.print(std::cout);

    double mid = xbar.broadcastPower(n / 2).watts();
    double end = xbar.broadcastPower(0).watts();
    std::cout << "\nend/middle power ratio: "
              << TextTable::num(end / mid, 2)
              << "  (paper shows a U-shaped profile with ~5x swing)\n"
              << "full profile written to "
              << harness.outPath("fig6_power_profile.csv") << "\n";
    return 0;
}
