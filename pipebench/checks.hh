/**
 * @file
 * Output checks the pipeline benchmark applies to every op's result
 * from outside the library.  Each throws CheckFailure naming what
 * was wrong; the op ledger counts that as one failed op.
 */

#ifndef MNOC_PIPEBENCH_CHECKS_HH
#define MNOC_PIPEBENCH_CHECKS_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/designer.hh"
#include "core/energy_ledger.hh"
#include "optics/crossbar.hh"
#include "runtime/adaptive_controller.hh"
#include "runtime/degradation_controller.hh"
#include "sim/trace.hh"

namespace mnoc::pipebench {

/** A result that failed one of the benchmark's output checks. */
class CheckFailure : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** @p mapping is a permutation of [0, @p n). */
void checkPermutation(const std::vector<int> &mapping, int n);

/** The mapping is a permutation and its QAP cost is no worse than
 *  the identity mapping's. */
void checkMapping(const core::MappingResult &result, int n);

/** Every source of @p design holds its link budget at pminAtTap. */
void checkDesign(const optics::OpticalCrossbar &crossbar,
                 const core::MnocDesign &design,
                 const std::string &label);

/**
 * A trace read back from disk holds exactly what was written: run
 * length, both message matrices and the epoch count.  A trace cut at
 * a line boundary still parses, so only this comparison catches it.
 */
void checkTraceRoundTrip(const sim::Trace &written,
                         const sim::Trace &loaded,
                         std::size_t written_epochs);

/** A ledger attributed every flit of @p flits. */
void checkLedgerCoversTrace(const core::EnergyLedger &ledger,
                            const CountMatrix &flits);

/** The streamed ledger's average power equals the whole-trace
 *  evaluation (the two must agree bit for bit). */
void checkSamePower(double streamed_watts, double whole_watts);

/** reconcileAdaptive's conservation identity, recomputed from the
 *  two ledgers and the controller log. */
void checkReconcile(const core::EnergyLedger &static_ledger,
                    const core::EnergyLedger &adaptive_ledger,
                    const runtime::AdaptiveLog &log,
                    const runtime::AdaptiveComparison &comparison);

/** The degradation controller covered every epoch and closed each
 *  one at or above the required margin. */
void checkDegradation(const runtime::DegradationLog &log,
                      std::size_t num_epochs,
                      const runtime::DegradationPolicy &policy);

} // namespace mnoc::pipebench

#endif // MNOC_PIPEBENCH_CHECKS_HH
