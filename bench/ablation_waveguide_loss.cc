/**
 * @file
 * Scalability ablation (Section 2.1): broadcast drive power per source
 * as the crossbar radix and waveguide loss scale.  The paper claims an
 * mNoC crossbar "can easily scale to more than radix-256 even with a
 * 2 dB/cm loss waveguide"; this sweep quantifies that claim and shows
 * where the exponential propagation term takes over.
 */

#include <iostream>
#include <vector>

#include "common/csv.hh"
#include "common/table.hh"
#include "harness.hh"

using namespace mnoc;

int
main()
{
    bench::Harness harness;
    bench::printHeader(
        "Broadcast power vs crossbar radix and waveguide loss",
        "Section 2.1 scalability claim (extension)");

    const std::vector<double> losses = {0.5, 1.0, 2.0};
    const std::vector<int> radixes = {64, 128, 256, 512};

    TextTable table;
    {
        std::vector<std::string> header = {"radix",
                                           "waveguide length"};
        for (double loss : losses)
            header.push_back(TextTable::num(loss, 1) +
                             " dB/cm (W elec)");
        table.addRow(header);
    }
    CsvWriter csv(harness.outPath("ablation_waveguide_loss.csv"));
    csv.writeRow({"radix", "length_m", "loss_db_per_cm",
                  "worst_source_electrical_w"});

    for (int radix : radixes) {
        // Die area fixed: serpentine length grows with sqrt of the
        // node count beyond the 256-node/18 cm reference point only
        // weakly; model length as proportional to node count along
        // the same route pitch.
        Meters length = optics::defaultWaveguideLength *
                        static_cast<double>(radix) / 256.0;
        std::vector<std::string> cells = {
            std::to_string(radix),
            TextTable::num(length.centimeters(), 1) + " cm"};
        for (double loss : losses) {
            optics::DeviceParams params = harness.deviceParams();
            params.waveguideLossPerCm = DecibelLoss(loss);
            optics::SerpentineLayout layout{radix, length};
            // Worst case: the end source must span the whole guide.
            optics::SplitterChain chain(layout, params, 0);
            std::vector<double> targets(radix,
                                        params.pminAtTap().watts());
            targets[0] = 0.0;
            double electrical =
                (chain.design(targets).injectedPower /
                 params.qdLedEfficiency)
                    .watts();
            cells.push_back(TextTable::num(electrical, 2));
            csv.cell(static_cast<long long>(radix))
                .cell(length.meters())
                .cell(loss)
                .cell(electrical);
            csv.endRow();
        }
        table.addRow(cells);
    }
    csv.close();
    table.print(std::cout);

    std::cout << "\nReading: at 1 dB/cm the radix-256 end source needs "
                 "~1 W electrical and\nradix-512 stays within an order "
                 "of magnitude; the exponential propagation\nterm only "
                 "explodes at 2 dB/cm x 36 cm.  Power topologies and "
                 "clustered\nlayouts (which shorten the guide) stretch "
                 "this further -- the basis of the\npaper's \"more "
                 "than radix-256\" scalability claim.\n";
    return 0;
}
