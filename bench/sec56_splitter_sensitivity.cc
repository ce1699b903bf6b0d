/**
 * @file
 * Section 5.6: sensitivity of the splitter design to the assumed
 * traffic weights.  The application-specific 2-mode topology with QAP
 * mapping is re-designed under uniform, 66/33, 33/66, S4-sampled, and
 * S12-sampled weightings; the paper finds <2% spread with all
 * variants saving >40%, because changes in weights are compensated by
 * changes in the splitter ratios.
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
    bench::printHeader("Splitter-design sensitivity to traffic weights",
                       "Section 5.6");

    const auto &designer = harness.designer();
    int n = harness.numCores();
    FlowMatrix uniform(n, n, 1.0);
    auto identity = harness.identityMapping();

    core::DesignSpec base_spec; // 1M
    auto base_design = designer.buildDesign(
        base_spec, designer.buildTopology(base_spec, uniform), uniform);

    std::cerr << "[sec56] sampling design flows...\n";
    FlowMatrix s4 = harness.sampledCoreFlow(
        workloads::sampledBenchmarks());
    FlowMatrix s12 = harness.sampledCoreFlow(harness.benchmarks());

    // Equation 1 weights are scalar per-mode traffic fractions; the
    // sampled variants measure those fractions by projecting the
    // sampled average traffic onto the app's topology.
    auto fractions_from = [&](const core::GlobalPowerTopology &topo,
                              const FlowMatrix &flow) {
        std::vector<double> w(2, 0.0);
        for (int src = 0; src < n; ++src) {
            const auto &local = topo.local(src);
            for (int dst = 0; dst < n; ++dst)
                if (dst != src)
                    w[local.modeOfDest[dst]] += flow(src, dst);
        }
        double total = w[0] + w[1];
        if (total <= 0.0)
            return std::vector<double>{0.5, 0.5};
        return std::vector<double>{w[0] / total, w[1] / total};
    };

    struct Variant
    {
        std::string label;
        core::WeightSource source;
        std::vector<double> fractions;
        const FlowMatrix *sampleFlow;
    };
    std::vector<Variant> variants = {
        {"U", core::WeightSource::Uniform, {}, nullptr},
        {"W66/33", core::WeightSource::Fractions, {0.66, 0.34},
         nullptr},
        {"W33/66", core::WeightSource::Fractions, {0.34, 0.66},
         nullptr},
        {"S4", core::WeightSource::Fractions, {}, &s4},
        {"S12", core::WeightSource::Fractions, {}, &s12},
    };

    std::map<std::string, std::vector<double>> norm;
    for (const auto &name : harness.benchmarks()) {
        const auto &trace = harness.trace(name);
        const auto &taboo = harness.mapping(name);
        double base =
            designer.evaluate(base_design, trace, identity).total();

        // App-specific topology from this benchmark's own traffic.
        FlowMatrix own = permuteFlow(harness.threadFlow(name), taboo);
        core::DesignSpec topo_spec;
        topo_spec.numModes = 2;
        topo_spec.assignment = core::Assignment::CommAware;
        auto topo = designer.buildTopology(topo_spec, own);

        for (const auto &variant : variants) {
            core::DesignSpec spec = topo_spec;
            spec.weights = variant.source;
            spec.fractions =
                variant.sampleFlow
                    ? fractions_from(topo, *variant.sampleFlow)
                    : variant.fractions;
            auto design = designer.buildDesign(spec, topo, own);
            double rel =
                designer.evaluate(design, trace, taboo).total() / base;
            norm[variant.label].push_back(rel);
        }
    }

    TextTable table;
    table.addRow({"weighting", "normalized power (hmean)",
                  "reduction"});
    CsvWriter csv(harness.outPath("sec56_splitter_sensitivity.csv"));
    csv.writeRow({"weighting", "normalized_power", "reduction"});
    std::vector<double> hmeans;
    for (const auto &variant : variants) {
        double h = harmonicMean(norm[variant.label]);
        hmeans.push_back(h);
        table.addRow({variant.label, TextTable::num(h, 4),
                      TextTable::num(100.0 * (1.0 - h), 1) + "%"});
        csv.cell(variant.label).cell(h).cell(1.0 - h);
        csv.endRow();
    }
    csv.close();
    table.print(std::cout);

    double spread = maxOf(hmeans) - minOf(hmeans);
    std::cout << "\nspread across weightings: "
              << TextTable::num(100.0 * spread, 2)
              << " percentage points\n"
              << "Paper anchor: minimal variation (within ~2%), all "
                 "weightings saving >40%;\nweight changes are absorbed "
                 "by compensating splitter ratios.\n";
    return 0;
}
