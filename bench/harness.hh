/**
 * @file
 * Shared support for the experiment-reproduction binaries: one
 * simulation/mapping context with a disk cache keyed by benchmark,
 * network, core count and ops-per-thread, so that each table/figure
 * binary stays self-contained and the whole suite is simulated once
 * *across binaries* -- later binaries (and later runs of the same
 * binary) load the cached trace/mapping instead of re-simulating.
 *
 * Cache files live under MNOC_BENCH_DIR; delete it to force
 * re-simulation.  MNOC_BENCH_OPS and MNOC_BENCH_CORES set the scale
 * (defaults in common/knobs.cc).
 *
 * The in-memory trace/mapping caches are guarded by a mutex, so
 * trace() and mapping() may be called from concurrent ThreadPool
 * tasks (simulateSuite() does exactly that); the expensive simulate
 * and QAP-mapping work runs outside the lock.  The disk cache itself
 * is not locked across processes -- concurrent *processes* may
 * duplicate work but never corrupt results, because each writer
 * produces an identical file for a given key.
 */

#ifndef MNOC_BENCH_HARNESS_HH
#define MNOC_BENCH_HARNESS_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "core/designer.hh"
#include "noc/clustered_network.hh"
#include "noc/mnoc_network.hh"
#include "sim/simulator.hh"
#include "workloads/registry.hh"

namespace mnoc::bench {

/** Shared context for all experiment binaries. */
class Harness
{
  public:
    Harness();

    int numCores() const { return numCores_; }
    const optics::OpticalCrossbar &crossbar() const { return *xbar_; }
    const core::Designer &designer() const { return *designer_; }
    const core::PowerParams &powerParams() const { return powerParams_; }
    const optics::DeviceParams &deviceParams() const
    {
        return deviceParams_;
    }
    const std::string &outDir() const { return outDir_; }

    /** The 12 benchmark names. */
    const std::vector<std::string> &benchmarks() const;

    /**
     * Identity-mapped trace of @p benchmark on the given network
     * ("mnoc" or "rnoc"), simulated on demand and cached on disk.
     * Safe to call from concurrent pool tasks; the returned reference
     * stays valid for the harness's lifetime.
     */
    const sim::Trace &trace(const std::string &benchmark,
                            const std::string &network = "mnoc");

    /** Taboo thread mapping for @p benchmark (cached on disk).
     *  Thread-safe like trace(). */
    const std::vector<int> &mapping(const std::string &benchmark);

    /**
     * Simulate (or load from cache) every benchmark of the suite on
     * @p network, running the per-benchmark simulations concurrently
     * on @p pool (null: the global pool).  Each simulation is
     * independent and seed-deterministic, so the cached traces are
     * bit-identical to a serial warm-up at any thread count.
     */
    void simulateSuite(const std::string &network = "mnoc",
                       ThreadPool *pool = nullptr);

    /** Identity thread mapping. */
    std::vector<int> identityMapping() const;

    /**
     * Average core-coordinate design flow over @p names: each
     * benchmark's flit matrix is permuted by its own taboo mapping and
     * normalized to unit total before averaging (Section 5.4's
     * sampled-traffic weighting).
     */
    FlowMatrix sampledCoreFlow(const std::vector<std::string> &names);

    /** Flow matrix (thread coordinates) of one benchmark's trace. */
    FlowMatrix threadFlow(const std::string &benchmark);

    /** Full path for an output artifact (CSV, PGM, JSON). */
    std::string outPath(const std::string &name) const;

  private:
    std::string cacheKey(const std::string &benchmark,
                         const std::string &network) const;
    sim::Trace simulate(const std::string &benchmark,
                        const std::string &network);

    int numCores_;
    int opsPerThread_;
    std::string outDir_;
    optics::DeviceParams deviceParams_;
    core::PowerParams powerParams_;
    std::unique_ptr<optics::SerpentineLayout> layout_;
    std::unique_ptr<optics::SerpentineLayout> portLayout_;
    std::unique_ptr<optics::OpticalCrossbar> xbar_;
    std::unique_ptr<core::Designer> designer_;
    /** Guards traces_ and mappings_ (pool-aware: simulate/map work
     *  happens outside the lock, lookups and inserts inside). */
    std::mutex cacheMutex_;
    std::map<std::string, sim::Trace> traces_;
    std::map<std::string, std::vector<int>> mappings_;
};

/** Print a standard header for an experiment binary. */
void printHeader(const std::string &title, const std::string &source);

} // namespace mnoc::bench

#endif // MNOC_BENCH_HARNESS_HH
