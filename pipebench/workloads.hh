/**
 * @file
 * The benchmark's workloads.  Each one is a closed loop: one caller
 * runs the pipeline's stages in order, every stage waiting for the
 * one before it, and each stage is one op of the op ledger.
 */

#ifndef MNOC_PIPEBENCH_WORKLOADS_HH
#define MNOC_PIPEBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.hh"

namespace mnoc::pipebench {

/** What one pass hands back besides its spans. */
struct PassContext
{
    Tracer &tracer;
    OpLedger &ops;
    /** Scratch directory for the pass's artifacts. */
    std::string workDir;
    /** Simulated outputs of the pass, compared across passes. */
    Digest digest;
    /** Exact counts and design-quality figures of the pass. */
    std::map<std::string, double> values;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the contexts and fixtures the passes use.  Called
     *  several times; the last build is the one the passes run on. */
    virtual void setup() = 0;

    /** Run every stage once. */
    virtual void runPass(PassContext &ctx) = 0;
};

/** Names accepted by makeWorkload(), in documentation order. */
const std::vector<std::string> &workloadNames();

/** The workload called @p name, seeded with @p seed; fatal when the
 *  name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace mnoc::pipebench

#endif // MNOC_PIPEBENCH_WORKLOADS_HH
