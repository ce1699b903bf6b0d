/**
 * @file
 * google-benchmark microbenchmarks of the library's inner kernels:
 * splitter-chain design, alpha optimization, QAP delta evaluation,
 * taboo iterations, channel booking, cache lookups, and the
 * disabled-path cost of the metrics/span instrumentation (must stay a
 * branch, not a syscall).
 */

#include <benchmark/benchmark.h>

#include "common/metrics.hh"
#include "common/prng.hh"
#include "common/thread_pool.hh"
#include "common/trace_span.hh"
#include "core/designer.hh"
#include "faults/variation.hh"
#include "noc/channel.hh"
#include "optics/alpha_optimizer.hh"
#include "optics/crossbar.hh"
#include "qap/qap.hh"
#include "qap/taboo.hh"
#include "runtime/degradation_controller.hh"
#include "runtime/fault_timeline.hh"
#include "sim/cache.hh"

using namespace mnoc;

namespace {

void
BM_SplitterChainDesign(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    optics::SerpentineLayout layout{n, Meters(0.18)};
    optics::DeviceParams params;
    optics::SplitterChain chain(layout, params, n / 2);
    std::vector<double> targets(n, params.pminAtTap().watts());
    targets[n / 2] = 0.0;
    for (auto _ : state) {
        auto design = chain.design(targets);
        benchmark::DoNotOptimize(design.injectedPower);
    }
}
BENCHMARK(BM_SplitterChainDesign)->Arg(64)->Arg(256)->Arg(1024);

void
BM_AlphaOptimize(benchmark::State &state)
{
    int n = 256;
    optics::SerpentineLayout layout{n, Meters(0.18)};
    optics::DeviceParams params;
    optics::SplitterChain chain(layout, params, n / 2);
    std::vector<int> modes(n, 0);
    int m = static_cast<int>(state.range(0));
    for (int d = 0; d < n; ++d)
        modes[d] = (std::abs(d - n / 2) * m) / n;
    std::vector<double> weights(m, 1.0 / m);
    optics::AlphaOptimizer optimizer(chain, modes, weights,
                                     params.pminAtTap());
    for (auto _ : state) {
        auto design = optimizer.optimize();
        benchmark::DoNotOptimize(design.expectedPower);
    }
}
BENCHMARK(BM_AlphaOptimize)->Arg(2)->Arg(4);

/** A fixed random symmetric QAP instance of size @p n. */
qap::QapInstance
randomQap(int n)
{
    Prng rng(1);
    FlowMatrix flow(n, n, 0.0);
    FlowMatrix dist(n, n, 0.0);
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j) {
            flow(i, j) = flow(j, i) = rng.uniform();
            dist(i, j) = dist(j, i) = rng.uniform();
        }
    return {flow, dist};
}

void
BM_QapSwapDelta(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    qap::QapInstance inst = randomQap(n);
    auto perm = inst.identity();
    int u = 0;
    for (auto _ : state) {
        int v = (u + 7) % n;
        if (v == u)
            v = (v + 1) % n;
        benchmark::DoNotOptimize(inst.swapDelta(perm, u, v));
        u = (u + 1) % n;
    }
}
BENCHMARK(BM_QapSwapDelta)->Arg(64)->Arg(256);

/** One taboo search of 100 iterations: the delta-table build once,
 *  then per iteration the neighborhood scan and the table update.
 *  items_per_second counts taboo iterations. */
void
BM_TabooIteration(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    qap::QapInstance inst = randomQap(n);
    qap::TabooParams params;
    params.iterations = 100;
    for (auto _ : state) {
        auto result = qap::tabooSearch(inst, inst.identity(), params);
        benchmark::DoNotOptimize(result.cost);
    }
    state.SetItemsProcessed(state.iterations() * params.iterations);
}
BENCHMARK(BM_TabooIteration)->Arg(64)->Arg(256);

void
BM_ChannelBook(benchmark::State &state)
{
    noc::Channel channel;
    noc::Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(channel.book(t, 3));
        t += 2;
    }
}
BENCHMARK(BM_ChannelBook);

void
BM_CacheLookup(benchmark::State &state)
{
    sim::Cache cache(sim::CacheGeometry{32 * 1024, 4});
    Prng rng(2);
    for (int i = 0; i < 400; ++i)
        cache.insert(rng.below(1 << 16), sim::LineState::Shared);
    std::uint64_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(line));
        line = (line + 97) % (1 << 16);
    }
}
BENCHMARK(BM_CacheLookup);

/** Counter::add with collection off: the before/after check of the
 *  "off = zero overhead" contract (one relaxed load + branch). */
void
BM_MetricsCounterOff(benchmark::State &state)
{
    MetricsRegistry::setEnabled(false);
    Counter &counter =
        MetricsRegistry::global().counter("bench.off_counter");
    for (auto _ : state)
        counter.add();
    benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_MetricsCounterOff);

void
BM_MetricsCounterOn(benchmark::State &state)
{
    MetricsRegistry::setEnabled(true);
    Counter &counter =
        MetricsRegistry::global().counter("bench.on_counter");
    for (auto _ : state)
        counter.add();
    benchmark::DoNotOptimize(counter.value());
    MetricsRegistry::setEnabled(false);
}
BENCHMARK(BM_MetricsCounterOn);

void
BM_HistogramObserveOn(benchmark::State &state)
{
    MetricsRegistry::setEnabled(true);
    Histogram &hist = MetricsRegistry::global().histogram(
        "bench.on_histogram", {1.0, 10.0, 100.0});
    double value = 0.0;
    for (auto _ : state) {
        hist.observe(value);
        value = value < 200.0 ? value + 1.0 : 0.0;
    }
    benchmark::DoNotOptimize(hist.totalCount());
    MetricsRegistry::setEnabled(false);
}
BENCHMARK(BM_HistogramObserveOn);

/** TraceSpan construction/destruction with recording off. */
void
BM_TraceSpanOff(benchmark::State &state)
{
    SpanRecorder::setEnabled(false);
    for (auto _ : state) {
        TraceSpan span("bench.span", "bench");
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_TraceSpanOff);

/** Composing one epoch's fault state from a dense event list: the
 *  per-epoch fixed cost the degradation controller pays before any
 *  link budgets are evaluated. */
void
BM_FaultTimelineStateAt(benchmark::State &state)
{
    constexpr std::size_t kEpochs = 64;
    runtime::FaultTimeline timeline(
        runtime::FaultTimelineSpec{}.scaled(4.0), 256, 4, kEpochs,
        7);
    std::size_t epoch = 0;
    for (auto _ : state) {
        auto fault_state = timeline.stateAt(epoch % kEpochs);
        benchmark::DoNotOptimize(fault_state.activeEvents);
        ++epoch;
    }
}
BENCHMARK(BM_FaultTimelineStateAt);

/** Full controller run over a faulted window: per-source link-budget
 *  evaluation plus the rule table, serial pool.  Args: nodes, modes,
 *  epochs, fault-rate scale in percent.  The 256-node case has the
 *  shape of pipebench's runtime_replay_256 replay (69 epochs at half
 *  the default rates on a nominal die), so its time per run over 69
 *  is the controller's steady-state cost per epoch. */
void
BM_DegradationController(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    int modes = static_cast<int>(state.range(1));
    auto epochs = static_cast<std::size_t>(state.range(2));
    double rate_scale = static_cast<double>(state.range(3)) / 100.0;
    optics::SerpentineLayout layout{n, Meters(0.18)};
    optics::OpticalCrossbar crossbar(layout,
                                     optics::DeviceParams{});
    core::Designer designer(crossbar);
    core::DesignSpec spec;
    spec.numModes = modes;
    spec.assignment = core::Assignment::DistanceBased;
    spec.weights = core::WeightSource::Uniform;
    FlowMatrix flow(n, n, 1.0);
    auto topology = designer.buildTopology(spec, flow);
    auto design = designer.buildDesign(spec, topology, flow);

    Prng prng(1);
    auto variation = faults::drawVariation(
        faults::VariationSpec{}.scaled(0.0), crossbar.params(), n,
        prng);
    runtime::FaultTimeline timeline(
        runtime::FaultTimelineSpec{}.scaled(rate_scale), n,
        spec.numModes, epochs, 7);
    runtime::DegradationPolicy policy;
    ThreadPool pool(1);
    for (auto _ : state) {
        auto log = runtime::runDegradationController(
            layout, design, variation, timeline, policy, nullptr,
            &pool);
        benchmark::DoNotOptimize(log.finalNumModes);
    }
}
BENCHMARK(BM_DegradationController)
    ->ArgNames({"n", "modes", "epochs", "rate_pct"})
    ->Args({64, 2, 8, 100})
    ->Args({256, 4, 69, 50})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
