/**
 * @file
 * Extension ablation (Sections 4.3 and 7): how many power modes are
 * worth building?  Sweeps the mode count for distance-based and
 * communication-aware designs (with QAP mapping) and compares against
 * the *oracle dynamic* lower bound -- a dedicated mode per
 * destination, i.e. every packet pays exactly the geometric
 * attenuation to its destination, which is what the paper's
 * future-work "dynamic power topologies" could at best achieve.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <vector>

#include "common/csv.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "harness.hh"

using namespace mnoc;

namespace {

/**
 * Oracle-dynamic average power: per flit, the source pays the
 * per-destination minimum pmin * A(s, d) (plus unchanged O/E and
 * electrical terms are omitted -- this reports the source component
 * lower bound against the designs' source component).
 */
double
oracleSourcePower(const bench::Harness &harness, const sim::Trace &t)
{
    const auto &xbar = harness.crossbar();
    const auto &optics_params = harness.deviceParams();
    double pmin = optics_params.pminAtTap().watts();
    double flit_time = 1.0 / harness.powerParams().net.clockHz;
    double duration = static_cast<double>(t.totalTicks) /
                      harness.powerParams().net.clockHz;

    double energy = 0.0;
    int n = static_cast<int>(t.flits.rows());
    for (int s = 0; s < n; ++s)
        for (int d = 0; d < n; ++d) {
            if (s == d || t.flits(s, d) == 0)
                continue;
            double drive = pmin *
                           xbar.chain(s).tapAttenuation(d).value() /
                           optics_params.qdLedEfficiency;
            energy += static_cast<double>(t.flits(s, d)) * flit_time *
                      drive;
        }
    return energy / duration;
}

} // namespace

int
main()
{
    bench::Harness harness;
    bench::printHeader(
        "Mode-count sweep vs the oracle-dynamic lower bound",
        "Sections 4.3/7 (extension)");

    const auto &designer = harness.designer();
    int n = harness.numCores();
    FlowMatrix uniform(n, n, 1.0);
    auto identity = harness.identityMapping();

    core::DesignSpec base_spec; // 1M
    auto base_design = designer.buildDesign(
        base_spec, designer.buildTopology(base_spec, uniform), uniform);

    const std::vector<int> mode_counts = {2, 4, 8, 16};
    TextTable table;
    {
        std::vector<std::string> header = {"design"};
        for (int m : mode_counts)
            header.push_back(std::to_string(m) + "M");
        table.addRow(header);
    }
    CsvWriter csv(harness.outPath("ablation_mode_count.csv"));
    csv.writeRow({"design", "modes", "normalized_source_power"});

    // Normalized source power, harmonic-mean over the suite.
    auto sweep = [&](core::Assignment assignment,
                     const std::string &label) {
        std::vector<std::string> cells = {label};
        for (int modes : mode_counts) {
            std::cerr << "[modes] " << label << " " << modes
                      << "M...\n";
            std::vector<double> norm;
            for (const auto &name : harness.benchmarks()) {
                const auto &trace = harness.trace(name);
                const auto &taboo = harness.mapping(name);
                double base = designer
                                  .evaluate(base_design, trace,
                                            identity)
                                  .source;

                FlowMatrix own = permuteFlow(harness.threadFlow(name),
                                             taboo);
                core::DesignSpec spec;
                spec.numModes = modes;
                spec.assignment = assignment;
                spec.weights = core::WeightSource::DesignFlow;
                auto design = designer.buildDesign(
                    spec, designer.buildTopology(spec, own), own);
                norm.push_back(
                    designer.evaluate(design, trace, taboo).source /
                    base);
            }
            double h = harmonicMean(norm);
            cells.push_back(TextTable::num(h, 3));
            csv.cell(label)
                .cell(static_cast<long long>(modes))
                .cell(h);
            csv.endRow();
        }
        table.addRow(cells);
    };

    sweep(core::Assignment::DistanceBased, "distance-based (N)");
    sweep(core::Assignment::CommAware, "comm-aware (G)");

    // Semi-dynamic: static splitters, per-packet drive -- equivalent
    // to a static design with one mode per destination (M = N-1),
    // the practical form of the paper's "dynamic power topologies"
    // with current-controlled QD LEDs.
    {
        std::cerr << "[modes] semi-dynamic (M = N-1)...\n";
        std::vector<double> norm;
        for (const auto &name : harness.benchmarks()) {
            const auto &trace = harness.trace(name);
            const auto &taboo = harness.mapping(name);
            double base =
                designer.evaluate(base_design, trace, identity).source;

            FlowMatrix own = permuteFlow(harness.threadFlow(name),
                                         taboo);
            // One mode per destination.  Nested modes force the
            // alphas to be monotone along the chosen order, and the
            // unconstrained optimum alpha_d ~ sqrt(w_d / c_d) is
            // feasible exactly when destinations are ordered by
            // w_d / c_d (flow x transmission) descending -- so that
            // order gives the globally optimal per-destination design.
            Matrix<int> modes(n, n, 0);
            for (int s = 0; s < n; ++s) {
                const auto &chain = harness.crossbar().chain(s);
                std::vector<int> order;
                for (int d = 0; d < n; ++d)
                    if (d != s)
                        order.push_back(d);
                auto ratio = [&](int d) {
                    return own(s, d) /
                           chain.tapAttenuation(d).value();
                };
                std::sort(order.begin(), order.end(),
                          [&](int a, int b) {
                              double ra = ratio(a);
                              double rb = ratio(b);
                              if (ra != rb)
                                  return ra > rb;
                              return chain.tapAttenuation(a) <
                                     chain.tapAttenuation(b);
                          });
                for (int k = 0;
                     k < static_cast<int>(order.size()); ++k)
                    modes(s, order[k]) = k;
            }
            auto topo = core::GlobalPowerTopology::fromModeMatrix(
                modes, n - 1);
            auto design = designer.model().designFor(topo, own);
            norm.push_back(
                designer.evaluate(design, trace, taboo).source /
                base);
        }
        double h = harmonicMean(norm);
        std::vector<std::string> cells = {"semi-dynamic (M=N-1)"};
        for (std::size_t i = 0; i < mode_counts.size(); ++i)
            cells.push_back(TextTable::num(h, 3));
        table.addRow(cells);
        csv.cell("semidynamic").cell(0LL).cell(h);
        csv.endRow();
    }

    // Oracle dynamic lower bound (mode per destination).
    {
        std::vector<double> norm;
        for (const auto &name : harness.benchmarks()) {
            const auto &trace = harness.trace(name);
            const auto &taboo = harness.mapping(name);
            sim::Trace mapped = sim::mapTrace(trace, taboo);
            double base =
                designer.evaluate(base_design, trace, identity).source;
            norm.push_back(oracleSourcePower(harness, mapped) / base);
        }
        double h = harmonicMean(norm);
        std::vector<std::string> cells = {"oracle dynamic"};
        for (std::size_t i = 0; i < mode_counts.size(); ++i)
            cells.push_back(TextTable::num(h, 3));
        table.addRow(cells);
        csv.cell("oracle").cell(0LL).cell(h);
        csv.endRow();
    }
    csv.close();

    table.print(std::cout);
    std::cout << "\nReading: returns diminish quickly past four modes "
                 "-- the paper's choice\nof M <= 4 captures most of "
                 "the statically reachable benefit; the gap to\nthe "
                 "oracle row is what dynamic power topologies "
                 "(future work, Section 7)\ncould still recover.\n";
    return 0;
}
