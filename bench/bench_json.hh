/**
 * @file
 * Machine-readable writer for BENCH_parallel.json: the perf
 * trajectory of the parallel execution layer.  One record per
 * workload (yield Monte Carlo, QAP multi-start, SPLASH suite), each
 * carrying serial vs parallel wall-clock, the speedup, and whether
 * the parallel result was verified bit-identical to the serial one.
 * Every file also embeds the run manifest (seed, git SHA, thread
 * count, env knobs) so a stored artifact is reproducible.
 *
 * Schema "mnoc-bench-parallel-v4":
 *
 *   {
 *     "schema": "mnoc-bench-parallel-v4",
 *     "threads": <int>,            // pool size used for parallel runs
 *     "manifest": {                // provenance (common/manifest.hh)
 *       "seed": <int>, "git": <string>, "threads": <int>,
 *       "config": <string>, "env": { <name>: <string>, ... }
 *     },
 *     "sections": [
 *       {
 *         "name": <string>,        // workload identifier
 *         "work_items": <int>,     // draws / restarts / benchmarks
 *         "serial_seconds": <double>,
 *         "parallel_seconds": <double>,
 *         "speedup": <double>,     // serial / parallel
 *         "repetitions": <int>,    // serial+parallel pairs timed
 *         "speedup_q1": <double>,  // quartiles of the per-pair
 *         "speedup_q3": <double>,  //   speedups (= speedup if 1)
 *         "bit_identical": <bool>  // parallel result == serial result
 *       }, ...
 *     ]
 *   }
 *
 * v3 adds the "journal_overhead" section, which reuses the fields
 * with a twist: serial_seconds is the adaptive run with MNOC_JOURNAL
 * off (the hot path must pay only one relaxed atomic load per
 * emission point), parallel_seconds is the same run with the journal
 * recording, so speedup ~ 1 means journaling is cheap and the delta
 * over work_items (epochs) is the enabled-path cost per epoch.  Its
 * bit_identical additionally requires that the disabled run recorded
 * nothing and that the journal bytes are identical across pool
 * sizes.
 *
 * v4 adds "repetitions" and the speedup quartiles.  A repeated
 * section reports the median serial and parallel seconds, the median
 * of the per-pair speedups as "speedup", and bit_identical only if
 * every repetition matched the first serial result.
 */

#ifndef MNOC_BENCH_BENCH_JSON_HH
#define MNOC_BENCH_BENCH_JSON_HH

#include <algorithm>
#include <string>
#include <vector>

#include "common/io.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/manifest.hh"

namespace mnoc::bench {

/** Inclusive quantile @p q of @p xs (linear interpolation). */
inline double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double pos = q * static_cast<double>(xs.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/** One serial-vs-parallel measurement of BENCH_parallel.json. */
struct ParallelRecord
{
    std::string name;
    long long workItems = 0;
    /** Seconds of one run, or the median over the repetitions. */
    double serialSeconds = 0.0;
    double parallelSeconds = 0.0;
    /** serial / parallel of each repetition; empty for one shot. */
    std::vector<double> pairSpeedups;
    bool bitIdentical = false;

    double
    speedup() const
    {
        if (!pairSpeedups.empty())
            return quantile(pairSpeedups, 0.5);
        return parallelSeconds > 0.0 ? serialSeconds / parallelSeconds
                                     : 0.0;
    }

    int
    repetitions() const
    {
        return std::max(1, static_cast<int>(pairSpeedups.size()));
    }

    /** Quartile @p q of the per-pair speedups (the speedup itself
     *  for a single shot). */
    double
    speedupQuantile(double q) const
    {
        return pairSpeedups.empty() ? speedup()
                                    : quantile(pairSpeedups, q);
    }
};

/** Write @p records as BENCH_parallel.json-schema JSON to @p path,
 *  stamped with @p manifest for provenance.  Every string field goes
 *  through escapeJson so hostile workload names cannot break the
 *  document. */
inline void
writeParallelJson(const std::string &path, int threads,
                  const RunManifest &manifest,
                  const std::vector<ParallelRecord> &records)
{
    FileWriter writer(path);
    auto &out = writer.stream();
    out.precision(6);
    out << std::fixed;
    out << "{\n";
    out << "  \"schema\": \"mnoc-bench-parallel-v4\",\n";
    out << "  \"threads\": " << threads << ",\n";
    out << "  \"manifest\": " << manifestJson(manifest) << ",\n";
    out << "  \"sections\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &record = records[i];
        out << "    {\n";
        out << "      \"name\": \"" << escapeJson(record.name)
            << "\",\n";
        out << "      \"work_items\": " << record.workItems << ",\n";
        out << "      \"serial_seconds\": " << record.serialSeconds
            << ",\n";
        out << "      \"parallel_seconds\": "
            << record.parallelSeconds << ",\n";
        out << "      \"speedup\": " << record.speedup() << ",\n";
        out << "      \"repetitions\": " << record.repetitions()
            << ",\n";
        out << "      \"speedup_q1\": " << record.speedupQuantile(0.25)
            << ",\n";
        out << "      \"speedup_q3\": " << record.speedupQuantile(0.75)
            << ",\n";
        out << "      \"bit_identical\": "
            << (record.bitIdentical ? "true" : "false") << "\n";
        out << "    }" << (i + 1 < records.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    writer.close();
}

} // namespace mnoc::bench

#endif // MNOC_BENCH_BENCH_JSON_HH
