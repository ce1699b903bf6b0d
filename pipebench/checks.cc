#include "checks.hh"

#include <algorithm>
#include <cmath>

#include "optics/link_budget.hh"

namespace mnoc::pipebench {

namespace {

/** Relative tolerance of the reconciliation identity; the same bound
 *  reconcileAdaptive panic-checks internally. */
constexpr double kRelTol = 1e-9;

/** Margin slack for epochs closed exactly at the requirement. */
constexpr double kMarginEpsDb = 1e-9;

void
require(bool ok, const std::string &why)
{
    if (!ok)
        throw CheckFailure(why);
}

bool
closeRel(double a, double b)
{
    double scale = std::max({std::abs(a), std::abs(b), 1e-30});
    return std::abs(a - b) / scale <= kRelTol;
}

std::uint64_t
total(const CountMatrix &counts)
{
    std::uint64_t sum = 0;
    for (std::uint64_t value : counts.data())
        sum += value;
    return sum;
}

} // namespace

void
checkPermutation(const std::vector<int> &mapping, int n)
{
    require(static_cast<int>(mapping.size()) == n,
            "mapping has " + std::to_string(mapping.size()) +
                " entries, expected " + std::to_string(n));
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    for (std::size_t t = 0; t < mapping.size(); ++t) {
        int core = mapping[t];
        require(core >= 0 && core < n,
                "thread " + std::to_string(t) + " mapped to core " +
                    std::to_string(core) + " outside [0, " +
                    std::to_string(n) + ")");
        auto slot = static_cast<std::size_t>(core);
        require(!seen[slot], "core " + std::to_string(core) +
                                 " is mapped twice");
        seen[slot] = true;
    }
}

void
checkMapping(const core::MappingResult &result, int n)
{
    checkPermutation(result.threadToCore, n);
    require(result.qapCost <= result.identityCost,
            "mapped QAP cost " + std::to_string(result.qapCost) +
                " exceeds the identity cost " +
                std::to_string(result.identityCost));
}

void
checkDesign(const optics::OpticalCrossbar &crossbar,
            const core::MnocDesign &design, const std::string &label)
{
    int n = crossbar.numNodes();
    require(static_cast<int>(design.sources.size()) == n,
            label + ": design covers " +
                std::to_string(design.sources.size()) +
                " sources, expected " + std::to_string(n));
    WattPower pmin = crossbar.params().pminAtTap();
    for (int s = 0; s < n; ++s) {
        auto report = optics::validateDesign(
            crossbar.chain(s),
            design.sources[static_cast<std::size_t>(s)], pmin);
        require(report.ok,
                label + ": source " + std::to_string(s) +
                    " misses its link budget (worst margin " +
                    std::to_string(report.worstReachableMargin.dB()) +
                    " dB)");
    }
}

void
checkTraceRoundTrip(const sim::Trace &written, const sim::Trace &loaded,
                    std::size_t written_epochs)
{
    require(loaded.totalTicks == written.totalTicks,
            "trace read back with " +
                std::to_string(loaded.totalTicks) + " cycles, wrote " +
                std::to_string(written.totalTicks));
    require(loaded.packets == written.packets &&
                loaded.flits == written.flits,
            "trace read back with different message counts (" +
                std::to_string(total(loaded.flits)) + " flits, wrote " +
                std::to_string(total(written.flits)) + ")");
    require(loaded.epochs.epochs.size() == written_epochs,
            "trace read back with " +
                std::to_string(loaded.epochs.epochs.size()) +
                " epochs, wrote " + std::to_string(written_epochs));
}

void
checkLedgerCoversTrace(const core::EnergyLedger &ledger,
                       const CountMatrix &flits)
{
    std::uint64_t attributed = 0;
    for (int s = 0; s < ledger.numSources(); ++s)
        for (int m = 0; m < ledger.numModes(); ++m)
            for (std::size_t e = 0; e < ledger.numEpochs(); ++e)
                attributed += ledger.cell(s, m, e).flits;
    require(attributed == total(flits),
            "ledger attributed " + std::to_string(attributed) +
                " flits of " + std::to_string(total(flits)));
}

void
checkSamePower(double streamed_watts, double whole_watts)
{
    require(streamed_watts == whole_watts,
            "streamed ledger power " + std::to_string(streamed_watts) +
                " W differs from the whole-trace evaluation " +
                std::to_string(whole_watts) + " W");
}

void
checkReconcile(const core::EnergyLedger &static_ledger,
               const core::EnergyLedger &adaptive_ledger,
               const runtime::AdaptiveLog &log,
               const runtime::AdaptiveComparison &comparison)
{
    require(log.epochs.size() == static_ledger.numEpochs(),
            "adaptive log covers " + std::to_string(log.epochs.size()) +
                " epochs of " +
                std::to_string(static_ledger.numEpochs()));
    double savings = 0.0;
    for (std::size_t e = 0; e < static_ledger.numEpochs(); ++e)
        savings += static_ledger.epochAttributedEnergy(e) -
                   adaptive_ledger.epochAttributedEnergy(e);
    double static_energy = static_ledger.totalEnergy();
    double adaptive_energy = adaptive_ledger.totalEnergy();
    double reconfig = adaptive_ledger.totalReconfigEnergy();
    require(closeRel(comparison.staticEnergy, static_energy) &&
                closeRel(comparison.adaptiveEnergy, adaptive_energy) &&
                closeRel(comparison.reconfigEnergy, reconfig) &&
                closeRel(reconfig, log.totalReconfigEnergy),
            "adaptive comparison disagrees with its ledgers");
    require(closeRel(comparison.netSavings,
                     static_energy - adaptive_energy),
            "net savings is not static minus adaptive energy");
    // Conservation: adaptive = static - savings + reconfig charged.
    require(closeRel(adaptive_energy,
                     static_energy -
                         static_ledger.totalReconfigEnergy() - savings +
                         reconfig),
            "adaptive energy breaks the conservation identity");
}

void
checkDegradation(const runtime::DegradationLog &log,
                 std::size_t num_epochs,
                 const runtime::DegradationPolicy &policy)
{
    require(log.epochs.size() == num_epochs,
            "degradation log covers " +
                std::to_string(log.epochs.size()) + " epochs of " +
                std::to_string(num_epochs));
    for (const auto &epoch : log.epochs)
        require(epoch.marginAfter.dB() >=
                    policy.requiredMargin.dB() - kMarginEpsDb,
                "epoch " + std::to_string(epoch.epoch) +
                    " closed at " +
                    std::to_string(epoch.marginAfter.dB()) +
                    " dB, below the required margin");
}

} // namespace mnoc::pipebench
