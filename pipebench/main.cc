/**
 * @file
 * pipebench — in-process benchmark of the mnoc-pt design pipeline
 * (simulate -> map -> design -> evaluate -> yield | adapt | faults).
 *
 *   pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Sets up the workload several times (the median is setup_s), runs
 * one warm-up pass, then closed-loop passes of its stages until the
 * next pass would overrun --seconds, checking every op's output.
 * Every reported time is the lower quartile over the measured passes
 * (host noise only adds time); every other figure is their median.
 * Prints a human-readable report and, as the last line of standard
 * output, one JSON object: the end-to-end metrics with --trace 0, the
 * per-layer metrics with --trace 1.  A traced run interleaves
 * untraced and traced passes, takes the layer metrics from the traced
 * ones, reports tracing overhead as the ratio of their total_s, and
 * writes every span to .bench_out/ at exit.  See
 * README.md beside this file for the metric definitions.
 */

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/manifest.hh"
#include "probe.hh"
#include "workloads.hh"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

extern char **environ;

using namespace mnoc;
using namespace mnoc::pipebench;

namespace {

/** Largest pool the benchmark uses; fewer on smaller hosts. */
constexpr int kMaxPoolThreads = 4;

/** Set-up is repeated this often before the first pass, and once
 *  more before every later pass, so its samples span the whole run
 *  as the passes do; setup_s is their median. */
constexpr int kSetupRepeats = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    /** For a time: its median over the passes, shown in the report
     *  beside the lower quartile that is the metric. */
    double median = 0.0;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "pipebench: " << why << "\n"
              << "usage: pipebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\nworkloads:";
    for (const auto &name : workloadNames())
        std::cerr << " " << name;
    std::cerr << "\n";
    std::exit(2);
}

long long
parseInteger(const std::string &key, const std::string &text,
             long long lo, long long hi)
{
    errno = 0;
    char *end = nullptr;
    long long value = std::strtoll(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0' ||
        value < lo || value > hi)
        usage("--" + key + " needs an integer in [" +
              std::to_string(lo) + ", " + std::to_string(hi) +
              "], got '" + text + "'");
    return value;
}

Options
parseOptions(int argc, char **argv)
{
    std::map<std::string, std::string> values;
    for (int i = 1; i < argc; i += 2) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            usage("expected --option value, got '" + key + "'");
        values[key.substr(2)] = argv[i + 1];
    }
    for (const char *key : {"workload", "seed", "seconds", "trace"})
        if (!values.count(key))
            usage(std::string("missing --") + key);
    if (values.size() != 4)
        usage("unknown option");
    Options out;
    out.workload = values["workload"];
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  out.workload) == workloadNames().end())
        usage("unknown workload '" + out.workload + "'");
    out.seed = static_cast<std::uint64_t>(
        parseInteger("seed", values["seed"], 0, LLONG_MAX));
    out.seconds = static_cast<double>(
        parseInteger("seconds", values["seconds"], 1, 3600));
    out.trace = parseInteger("trace", values["trace"], 0, 1) == 1;
    return out;
}

/**
 * The program receives only the benchmark's inputs: drop every
 * inherited MNOC_* knob (metrics export, span files, journals, ledger
 * and fault switches) and fix the pool size before anything reads it.
 */
int
fixEnvironment()
{
    std::vector<std::string> inherited;
    for (char **env = environ; *env != nullptr; ++env)
        if (std::strncmp(*env, "MNOC_", 5) == 0)
            inherited.emplace_back(*env, std::strcspn(*env, "="));
    for (const auto &name : inherited)
        unsetenv(name.c_str());
    int hardware = static_cast<int>(std::thread::hardware_concurrency());
    int threads = std::clamp(hardware, 1, kMaxPoolThreads);
    setenv("MNOC_THREADS", std::to_string(threads).c_str(), 1);
    return threads;
}

/** Quantile @p q over @p passes of @p value(pass). */
template <typename F>
double
quantileOver(const std::vector<int> &passes, F value, double q)
{
    std::vector<double> samples;
    for (int pass : passes)
        samples.push_back(value(pass));
    return quantile(samples, q);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
resultJson(bool correct, const OpLedger &ops,
           const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " +
                      std::to_string(ops.attempted()) +
                      ", \"failed\": " + std::to_string(ops.failed()) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + jsonNumber(metrics[i].value) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    return out + "}}";
}

int
run(const Options &options, int pool_threads)
{
    namespace fs = std::filesystem;
    std::string tag = options.workload + "-s" +
                      std::to_string(options.seed);
    std::string work_dir = ".bench_work/" + tag + "-" +
                           std::to_string(getpid());
    fs::remove_all(work_dir);
    fs::create_directories(work_dir);

    auto workload = makeWorkload(options.workload, options.seed);
    std::vector<double> setup_times;
    auto set_up = [&] {
        double start = wallNow();
        workload->setup();
        setup_times.push_back(wallNow() - start);
    };
    for (int i = 0; i < kSetupRepeats; ++i)
        set_up();

    // Pass 0 warms the page cache, allocator and pool; it is checked
    // like every pass but left out of the statistics.  A traced run then
    // interleaves untraced and traced passes (U T T U U T T U ...) so
    // both kinds see the same machine load and drift cancels.
    auto is_traced = [&](int pass) {
        return options.trace && (pass % 4 == 2 || pass % 4 == 3);
    };
    Tracer tracer;
    OpLedger ops;
    std::vector<PassContext> passes;
    std::vector<double> pass_walls;
    double peak_rss = 0.0;
    double start = wallNow();
    int min_passes = options.trace ? 4 : 2;
    for (int pass = 0;; ++pass) {
        if (pass > 0)
            set_up();
        double pass_start = wallNow();
        tracer.beginPass(pass, is_traced(pass));
        passes.push_back(PassContext{tracer, ops, work_dir, {}, {}});
        workload->runPass(passes.back());
        pass_walls.push_back(wallNow() - pass_start);
        // Memory is taken through set-up and one pass, what a single
        // run of the pipeline needs.  Later passes add only allocator
        // retention, which varies with the pool's thread timing.
        if (pass == 0)
            peak_rss = peakRssMib();
        double elapsed = wallNow() - start;
        if (pass + 1 >= min_passes &&
            elapsed + median(pass_walls) > options.seconds)
            break;
    }
    double measured = wallNow() - start;

    std::vector<int> untraced, traced;
    for (int pass = 1; pass < static_cast<int>(passes.size()); ++pass)
        (is_traced(pass) ? traced : untraced).push_back(pass);

    bool digests_agree = true;
    for (const auto &pass : passes)
        digests_agree = digests_agree &&
                        pass.digest.hex() == passes.front().digest.hex();
    bool correct = ops.failed() == 0 && digests_agree;

    auto total_s = [&](int pass) {
        double sum = 0.0;
        for (const auto &[name, seconds] : tracer.stageTimes(pass))
            sum += seconds;
        return sum;
    };
    auto stage_s = [&](const std::string &name) {
        return [&tracer, name](int pass) {
            auto times = tracer.stageTimes(pass);
            return times.count(name) ? times[name] : 0.0;
        };
    };
    auto value = [&](const std::string &name) {
        return [&passes, name](int pass) {
            const auto &values =
                passes[static_cast<std::size_t>(pass)].values;
            auto it = values.find(name);
            return it == values.end() ? 0.0 : it->second;
        };
    };
    auto self_s = [&](const std::string &name) {
        return [&tracer, name](int pass) {
            auto times = tracer.selfTimes(pass);
            return times.count(name) ? times[name] : 0.0;
        };
    };
    // A rate is the median count over the layer's reported time.
    auto per_second = [&](const std::string &count,
                          const std::string &layer, double scale) {
        return ratio(quantileOver(traced, value(count), 0.5) * scale,
                     quantileOver(traced, self_s(layer), 0.25));
    };
    auto parallel_eff = [&](const std::string &layer) {
        return [&tracer, layer, pool_threads](int pass) {
            auto [wall, cpu] = tracer.layerWallCpu(pass, layer);
            return ratio(cpu, wall * pool_threads);
        };
    };

    std::vector<Metric> metrics;
    auto add = [&](const std::string &name, const std::string &unit,
                   const std::vector<int> &over, auto fn) {
        metrics.push_back({name, unit, quantileOver(over, fn, 0.5)});
    };
    auto add_time = [&](const std::string &name, const std::string &unit,
                        const std::vector<int> &over, auto fn) {
        metrics.push_back({name, unit, quantileOver(over, fn, 0.25),
                           quantileOver(over, fn, 0.5)});
    };
    if (!options.trace) {
        metrics.push_back({"setup_s", "s", median(setup_times)});
        add_time("total_s", "s", untraced, total_s);
        metrics.push_back({"peak_rss_mb", "MiB", peak_rss});
        add("mnoc_power_w", "W", untraced, value("mnoc_power_w"));
        add("qap_cost_ratio", "ratio", untraced, value("qap_cost_ratio"));
    } else {
        add_time("simulate_s", "s", traced, stage_s("simulate"));
        add_time("map_s", "s", traced, stage_s("map"));
        add_time("design_s", "s", traced, stage_s("design"));
        add_time("evaluate_s", "s", traced, stage_s("evaluate"));
        add_time("yield_s", "s", traced, stage_s("yield"));
        add_time("adapt_s", "s", traced, stage_s("adapt"));
        add_time("faults_s", "s", traced, stage_s("faults"));
        add_time("sim.run_s", "s", traced, self_s("sim.run"));
        add("sim.ops", "count", traced, value("sim.ops"));
        add("sim.packets", "count", traced, value("sim.packets"));
        add("sim.cycles", "count", traced, value("sim.cycles"));
        metrics.push_back({"sim.ops_per_s", "1/s",
                           per_second("sim.ops", "sim.run", 1.0)});
        add("sim.parallel_eff", "ratio", traced, parallel_eff("sim.run"));
        add_time("trace.write_s", "s", traced, self_s("trace.write"));
        add_time("trace.read_s", "s", traced, self_s("trace.read"));
        add("trace.bytes", "count", traced, value("trace.bytes"));
        metrics.push_back(
            {"trace.read_mb_per_s", "MB/s",
             per_second("trace.read_bytes", "trace.read", 1e-6)});
        add_time("qap.map_s", "s", traced, self_s("qap.map"));
        add("qap.iterations", "count", traced, value("qap.iterations"));
        metrics.push_back({"qap.iters_per_s", "1/s",
                           per_second("qap.iterations", "qap.map", 1.0)});
        add("qap.parallel_eff", "ratio", traced, parallel_eff("qap.map"));
        add_time("core.topology_s", "s", traced, self_s("core.topology"));
        add_time("core.design_s", "s", traced, self_s("core.design"));
        add("core.designs", "count", traced, value("core.designs"));
        add_time("core.ledger_s", "s", traced, self_s("core.ledger"));
        metrics.push_back({"core.ledger_msgs_per_s", "1/s",
                           per_second("core.ledger_msgs", "core.ledger", 1.0)});
        add("core.ledger_parallel_eff", "ratio", traced,
            parallel_eff("core.ledger"));
        add_time("faults.yield_s", "s", traced, self_s("faults.yield"));
        metrics.push_back({"faults.trials_per_s", "1/s",
                           per_second("faults.trials", "faults.yield", 1.0)});
        add("faults.yield_parallel_eff", "ratio", traced,
            parallel_eff("faults.yield"));
        add_time("runtime.adapt_s", "s", traced, self_s("runtime.adapt"));
        metrics.push_back(
            {"runtime.adapt_epochs_per_s", "1/s",
             per_second("runtime.adapt_epochs", "runtime.adapt", 1.0)});
        add("runtime.adapt_candidates", "count", traced,
            value("runtime.adapt_candidates"));
        add("runtime.adapt_switch_ratio", "ratio", traced,
            [&](int pass) {
                return ratio(value("runtime.adapt_switches")(pass),
                             value("runtime.adapt_candidates")(pass));
            });
        add("runtime.adapt_parallel_eff", "ratio", traced,
            parallel_eff("runtime.adapt"));
        add("runtime.adapt_net_savings_pct", "%", traced,
            value("runtime.adapt_net_savings_pct"));
        add_time("runtime.degrade_s", "s", traced, self_s("runtime.degrade"));
        add_time("runtime.degrade_ms_per_epoch", "ms", traced,
                 [&](int pass) {
                     return ratio(1e3 * self_s("runtime.degrade")(pass),
                                  value("runtime.degrade_epochs")(pass));
                 });
        add("runtime.degrade_actions", "count", traced,
            value("runtime.degrade_actions"));
        add("runtime.degrade_parallel_eff", "ratio", traced,
            parallel_eff("runtime.degrade"));
        add_time("runtime.reconcile_s", "s", traced,
                 self_s("runtime.reconcile"));
        metrics.push_back({"trace.overhead_ratio", "ratio",
                           ratio(quantileOver(traced, total_s, 0.25),
                                 quantileOver(untraced, total_s, 0.25))});
    }

    // Human-readable report; the JSON result line comes last.
    RunManifest manifest = currentManifest(options.seed);
    std::cout << "pipebench " << options.workload << " seed "
              << options.seed << (options.trace ? " (traced)" : "")
              << "\n"
              << "host: nproc "
              << std::thread::hardware_concurrency() << ", pool "
              << pool_threads << " threads, build "
              << PIPEBENCH_BUILD_TYPE << "\n"
              << "manifest: " << manifestJson(manifest) << "\n"
              << "cache state: OS page cache warm after the first "
                 "pass, no harness disk cache, simulated caches start "
                 "empty every pass\n"
              << "time: host wall-clock; simulated statistics are "
                 "exact counts; the power model is unvalidated (no "
                 "hardware reference, no error figure)\n"
              << "passes: " << passes.size() << " (1 warm-up, "
              << untraced.size() << " untraced, " << traced.size()
              << " traced) in " << measured << " s; setup x"
              << setup_times.size() << "\n"
              << "ops: " << ops.attempted() << " attempted, "
              << ops.failed() << " failed, failed_frac "
              << ratio(static_cast<double>(ops.failed()),
                       static_cast<double>(ops.attempted()))
              << "\n"
              << "digest: " << passes.front().digest.hex()
              << (digests_agree ? " (identical on every pass)"
                                : " (DIFFERS between passes)")
              << "\n";
    const std::vector<int> &timed = options.trace ? traced : untraced;
    std::cout << "stage times over " << timed.size()
              << " passes (lower quartile, median):\n";
    for (const auto &[name, seconds] : tracer.stageTimes(timed.front()))
        std::cout << "  " << name << " "
                  << quantileOver(timed, stage_s(name), 0.25) << " s, "
                  << quantileOver(timed, stage_s(name), 0.5) << " s\n";
    if (options.trace) {
        std::map<std::string, std::vector<double>> self_by_name;
        for (int pass : traced)
            for (const auto &[name, seconds] : tracer.selfTimes(pass))
                self_by_name[name].push_back(seconds);
        std::cout << "self time per traced pass (lower quartile):\n";
        for (const auto &[name, samples] : self_by_name)
            std::cout << "  " << name << " " << lowerQuartile(samples)
                      << " s\n";
        fs::create_directories(".bench_out");
        std::string spans_path = ".bench_out/spans-" + tag + ".json";
        tracer.writeJson(spans_path,
                         "{\"workload\":\"" + options.workload +
                             "\",\"seed\":" +
                             std::to_string(options.seed) +
                             ",\"pool_threads\":" +
                             std::to_string(pool_threads) +
                             ",\"manifest\":" + manifestJson(manifest) +
                             "}");
        std::cout << "spans written to " << spans_path << "\n";
    }
    for (const auto &metric : metrics) {
        std::cout << "  " << metric.name << " = " << metric.value << " "
                  << metric.unit;
        if (metric.median > 0.0)
            std::cout << " (median " << metric.median << ")";
        std::cout << "\n";
    }
    std::cout << resultJson(correct, ops, metrics) << std::endl;

    fs::remove_all(work_dir);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options = parseOptions(argc, argv);
    int pool_threads = fixEnvironment();
    try {
        return run(options, pool_threads);
    } catch (const std::exception &error) {
        std::cerr << "pipebench: " << error.what() << "\n";
        return 1;
    }
}
