/**
 * @file
 * Figure 2: percentage of total mNoC power in the QD LED source vs the
 * O/E conversion as the photodetector mIOP sweeps from 1 uW to 10 uW.
 *
 * A low mIOP needs high-gain (power-hungry) photoreceivers but cheap
 * sources; a high mIOP shifts the budget into the QD LEDs.  The paper
 * picks 10 uW, where the source is ~80% of total power and becomes the
 * optimization target.
 */

#include <iostream>

#include "common/csv.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "harness.hh"

using namespace mnoc;

int
main()
{
    bench::Harness harness;
    bench::printHeader("QD LED vs O/E power share vs photodetector mIOP",
                       "Figure 2");

    int n = harness.numCores();
    core::PowerParams power = harness.powerParams();

    TextTable table;
    table.addRow({"mIOP (uW)", "QD_LED (%)", "O/E (%)", "QD_LED (W)",
                  "O/E (W)"});
    CsvWriter csv(harness.outPath("fig2_miop_power_split.csv"));
    csv.writeRow({"miop_uw", "qdled_pct", "oe_pct", "qdled_w", "oe_w"});

    for (int miop_uw = 1; miop_uw <= 10; ++miop_uw) {
        // Chromophore loss tracks mIOP (Table 3: 5 uW at 10 uW mIOP).
        optics::DeviceParams params = harness.deviceParams();
        params.photodetectorMiop = WattPower(miop_uw * microWatt);
        params.chromophoreLoss = WattPower(0.5 * miop_uw * microWatt);

        optics::SerpentineLayout layout{n,
                                        optics::defaultWaveguideLength};
        optics::OpticalCrossbar xbar(layout, params);

        // All sources broadcasting continuously: QD LED electrical
        // drive vs the O/E power of all lit receivers.
        double qdled = 0.0;
        for (int s = 0; s < n; ++s)
            qdled += (xbar.broadcastPower(s) /
                      params.qdLedEfficiency)
                         .watts();
        double oe =
            static_cast<double>(n) * (n - 1) *
            power.oePowerPerReceiver(params.photodetectorMiop).watts();

        double total = qdled + oe;
        table.addRow({std::to_string(miop_uw),
                      TextTable::num(100.0 * qdled / total, 1),
                      TextTable::num(100.0 * oe / total, 1),
                      TextTable::num(qdled, 2), TextTable::num(oe, 2)});
        csv.cell(static_cast<long long>(miop_uw))
            .cell(100.0 * qdled / total)
            .cell(100.0 * oe / total)
            .cell(qdled)
            .cell(oe);
        csv.endRow();
    }
    csv.close();

    table.print(std::cout);
    std::cout << "\nPaper anchor: at 10 uW mIOP the QD LED source is "
                 "~80% of total power;\nat 1 uW the O/E conversion "
                 "dominates (crossover near the middle of the sweep).\n";
    return 0;
}
