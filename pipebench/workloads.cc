#include "workloads.hh"

#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <optional>

#include "checks.hh"
#include "common/log.hh"
#include "common/manifest.hh"
#include "common/metrics.hh"
#include "common/prng.hh"
#include "common/thread_pool.hh"
#include "core/design_io.hh"
#include "core/designer.hh"
#include "faults/variation.hh"
#include "faults/yield.hh"
#include "noc/mnoc_network.hh"
#include "runtime/adaptive_controller.hh"
#include "runtime/degradation_controller.hh"
#include "runtime/fault_timeline.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"
#include "sim/trace_stream.hh"
#include "workloads/registry.hh"

namespace mnoc::pipebench {

namespace {

namespace fs = std::filesystem;

/** Layout, crossbar and designer for one radix, as the CLI builds
 *  them. */
struct Context
{
    explicit Context(int cores)
        : layout(cores,
                 optics::defaultWaveguideLength * cores / 256.0),
          crossbar(layout, optics::DeviceParams{}),
          designer(crossbar)
    {
    }

    optics::SerpentineLayout layout;
    optics::OpticalCrossbar crossbar;
    core::Designer designer;
};

/** One kernel ready to simulate: its network model and workload. */
struct Capture
{
    Capture(const Context &ctx, const std::string &benchmark, int ops)
        : network(ctx.layout, noc::NetworkConfig{}),
          workload(workloads::makeWorkload(
              benchmark, workloads::WorkloadScale{ops}))
    {
    }

    noc::MnocNetwork network;
    std::unique_ptr<workloads::GeneratedWorkload> workload;
};

std::vector<int>
identity(int cores)
{
    std::vector<int> map(static_cast<std::size_t>(cores));
    std::iota(map.begin(), map.end(), 0);
    return map;
}

double
bytesOnDisk(const std::string &path)
{
    if (!fs::is_directory(path))
        return static_cast<double>(fs::file_size(path));
    std::uintmax_t bytes = 0;
    for (const auto &entry : fs::recursive_directory_iterator(path))
        if (entry.is_regular_file())
            bytes += entry.file_size();
    return static_cast<double>(bytes);
}

std::uint64_t
total(const CountMatrix &counts)
{
    return std::accumulate(counts.data().begin(), counts.data().end(),
                           std::uint64_t{0});
}

core::DesignSpec
spec(int modes, core::Assignment assignment, core::WeightSource weights,
     core::MappingMethod mapping = core::MappingMethod::Identity)
{
    core::DesignSpec out;
    out.numModes = modes;
    out.mapping = mapping;
    out.assignment = assignment;
    out.weights = weights;
    return out;
}

/** Switches the library's metric registry on for one scope. */
class MetricsScope
{
  public:
    explicit MetricsScope(bool on) { MetricsRegistry::setEnabled(on); }
    ~MetricsScope() { MetricsRegistry::setEnabled(false); }
    MetricsScope(const MetricsScope &) = delete;
    MetricsScope &operator=(const MetricsScope &) = delete;
};

/** Record a finished simulation's exact counts and digest entries. */
void
recordSimulation(PassContext &ctx, const std::string &key,
                 const sim::SimulationResult &result)
{
    ctx.values["sim.ops"] +=
        static_cast<double>(result.coherence.accesses);
    ctx.values["sim.packets"] +=
        static_cast<double>(result.coherence.packetsSent);
    ctx.values["sim.cycles"] += static_cast<double>(result.totalTicks);
    ctx.digest.add(key + ".ops", result.coherence.accesses);
    ctx.digest.add(key + ".packets", result.coherence.packetsSent);
    ctx.digest.add(key + ".cycles",
                   static_cast<std::uint64_t>(result.totalTicks));
    ctx.digest.add(key + ".flits", total(result.flits));
}

/** Build a topology and a splitter design per spec, saving each
 *  design under @p save_prefix unless it is empty. */
std::vector<core::MnocDesign>
designAll(PassContext &ctx, const Context &context,
          const std::vector<core::DesignSpec> &specs,
          const FlowMatrix &flow, const std::string &save_prefix,
          std::uint64_t seed)
{
    std::vector<core::MnocDesign> designs;
    for (const auto &design_spec : specs) {
        core::GlobalPowerTopology topology;
        {
            auto span = ctx.tracer.layer("core.topology");
            topology = context.designer.buildTopology(design_spec, flow);
        }
        {
            auto span = ctx.tracer.layer("core.design");
            designs.push_back(context.designer.buildDesign(
                design_spec, topology, flow));
        }
        ctx.values["core.designs"] += 1.0;
        if (save_prefix.empty())
            continue;
        std::string path = save_prefix + design_spec.label() + ".design";
        RunManifest manifest = currentManifest(
            seed, hexDigest(fnv1a64(design_spec.label())));
        {
            auto span = ctx.tracer.layer("design_io.write");
            core::saveDesign(path, designs.back(), nullptr, &manifest);
        }
        ctx.digest.add(path.substr(path.rfind('/') + 1) + ".bytes",
                       static_cast<std::uint64_t>(bytesOnDisk(path)));
    }
    return designs;
}

/** Streamed ledger of @p design over the trace at @p path. */
core::EnergyLedger
streamedLedger(PassContext &ctx, const Context &context,
               const core::MnocDesign &design, const std::string &path,
               const std::vector<int> &mapping, std::uint64_t messages)
{
    auto span = ctx.tracer.layer("core.ledger");
    sim::TraceReader reader(path);
    auto ledger =
        context.designer.model().buildLedger(design, reader, &mapping);
    ctx.values["core.ledger_msgs"] += static_cast<double>(messages);
    return ledger;
}

// ---------------------------------------------------------------------
// design_flow_256: the paper's per-application flow at its design
// point.  The sizes keep one pass near 2 s on 4 threads so a 50 s run
// holds about twenty passes: 1 000 ops per thread, 1 000 taboo
// iterations per restart instead of the CLI's 20 000, and 100 yield
// trials.

class DesignFlow : public Workload
{
  public:
    explicit DesignFlow(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        context_ = std::make_unique<Context>(kCores);
        capture_ = std::make_unique<Capture>(*context_, "water_s", kOps);
        ThreadPool::global();
    }

    void
    runPass(PassContext &ctx) override
    {
        const Context &context = *context_;
        std::string trace_path = ctx.workDir + "/water_s.trace";
        sim::Trace written;
        bool ok = ctx.ops.run("simulate", [&] {
            {
                auto stage = ctx.tracer.stage("simulate");
                sim::SimConfig config;
                config.numCores = kCores;
                sim::SimulationResult result;
                {
                    auto span = ctx.tracer.layer("sim.run");
                    result = sim::runSimulation(
                        config, capture_->network, *capture_->workload,
                        seed_);
                }
                recordSimulation(ctx, "water_s", result);
                written = sim::toTrace(result);
                auto span = ctx.tracer.layer("trace.write");
                sim::saveTrace(trace_path, written);
            }
            double bytes = bytesOnDisk(trace_path);
            ctx.values["trace.bytes"] += bytes;
            ctx.digest.add("trace.bytes",
                           static_cast<std::uint64_t>(bytes));
        });
        if (!ok)
            return;

        sim::Trace loaded;
        core::MappingResult mapping;
        ok = ctx.ops.run("map", [&] {
            {
                auto stage = ctx.tracer.stage("map");
                {
                    auto span = ctx.tracer.layer("trace.read");
                    loaded = sim::loadTrace(trace_path);
                }
                ctx.values["trace.read_bytes"] += bytesOnDisk(trace_path);
                core::MappingParams params;
                params.tabooIterations = kTabooIterations;
                params.seed = seed_;
                FlowMatrix flow = toFlowMatrix(loaded.flits);
                // The library's own iteration counter, switched on
                // only around this call and only in a traced pass.
                Counter &iterations =
                    MetricsRegistry::global().counter("qap.iterations");
                std::uint64_t before = iterations.value();
                {
                    MetricsScope metrics(ctx.tracer.traced());
                    auto span = ctx.tracer.layer("qap.map");
                    mapping = context.designer.map(
                        flow, core::MappingMethod::Taboo, params);
                }
                ctx.values["qap.iterations"] +=
                    static_cast<double>(iterations.value() - before);
            }
            checkTraceRoundTrip(written, loaded, 0);
            checkMapping(mapping, kCores);
            ctx.values["qap_cost_ratio"] =
                mapping.qapCost / mapping.identityCost;
            ctx.digest.add("qap.cost", mapping.qapCost);
            ctx.digest.add("qap.mapping",
                           hexDigest(fnv1a64(std::string(
                               reinterpret_cast<const char *>(
                                   mapping.threadToCore.data()),
                               mapping.threadToCore.size() *
                                   sizeof(int)))));
        });
        if (!ok)
            return;

        std::vector<core::MnocDesign> designs;
        ok = ctx.ops.run("design", [&] {
            {
                auto stage = ctx.tracer.stage("design");
                sim::Trace mapped =
                    sim::mapTrace(loaded, mapping.threadToCore);
                designs = designAll(
                    ctx, context,
                    {spec(2, core::Assignment::CommAware,
                          core::WeightSource::DesignFlow,
                          core::MappingMethod::Taboo),
                     spec(4, core::Assignment::DistanceBased,
                          core::WeightSource::DesignFlow,
                          core::MappingMethod::Taboo)},
                    toFlowMatrix(mapped.flits), ctx.workDir + "/",
                    seed_);
            }
            for (const auto &design : designs)
                checkDesign(context.crossbar, design,
                            "water_s " +
                                std::to_string(
                                    design.topology.numModes) +
                                "M");
        });
        if (!ok)
            return;
        // Headline design: 2M communication-aware on the taboo map.
        const core::MnocDesign &headline = designs.front();

        ok = ctx.ops.run("evaluate", [&] {
            std::optional<core::EnergyLedger> ledger;
            {
                auto stage = ctx.tracer.stage("evaluate");
                ledger = streamedLedger(ctx, context, headline,
                                        trace_path,
                                        mapping.threadToCore,
                                        total(written.packets));
            }
            checkLedgerCoversTrace(*ledger, written.flits);
            double watts = ledger->averagePower().total();
            checkSamePower(watts,
                           context.designer
                               .evaluate(headline, loaded,
                                         mapping.threadToCore)
                               .total());
            ctx.values["mnoc_power_w"] = watts;
            ctx.digest.add("ledger.energy", ledger->totalEnergy());
        });
        if (!ok)
            return;

        ctx.ops.run("yield", [&] {
            faults::YieldReport report;
            {
                auto stage = ctx.tracer.stage("yield");
                auto span = ctx.tracer.layer("faults.yield");
                report = faults::analyzeYield(
                    context.layout, context.crossbar.params(),
                    headline.sources, faults::VariationSpec{},
                    kYieldTrials, seed_);
            }
            if (report.trials != kYieldTrials ||
                static_cast<int>(report.draws.size()) != kYieldTrials ||
                !(report.yield >= 0.0 && report.yield <= 1.0))
                throw CheckFailure("yield report covers " +
                                   std::to_string(report.draws.size()) +
                                   " of " +
                                   std::to_string(kYieldTrials) +
                                   " trials");
            ctx.values["faults.trials"] += kYieldTrials;
            ctx.digest.add("yield", report.yield);
            ctx.digest.add("yield.margin_min", report.marginMin.dB());
        });
    }

  private:
    static constexpr int kCores = 256;
    static constexpr int kOps = 1000;
    static constexpr long long kTabooIterations = 1000;
    static constexpr int kYieldTrials = 100;

    std::uint64_t seed_;
    std::unique_ptr<Context> context_;
    std::unique_ptr<Capture> capture_;
};

// ---------------------------------------------------------------------
// runtime_replay_256: a phase-splice capture (barnes then radix) at
// 256 cores, streamed into an epoch-sharded trace while it runs, then
// replayed through the streamed ledger and both epoch controllers.
// The degradation controller costs tens of ms per epoch, so the
// capture is 50 ops per thread at 4 096 messages per epoch (about
// 70 epochs) instead of the CI fixture's 300 ops at 1 024 (1 706
// epochs), which alone would take 20-40 s per pass.

class RuntimeReplay : public Workload
{
  public:
    explicit RuntimeReplay(std::uint64_t seed) : seed_(seed)
    {
        // Read once, at the first ledger use; set before any.
        setenv("MNOC_EPOCH_MSGS", kEpochMessages, 1);
    }

    void
    setup() override
    {
        context_ = std::make_unique<Context>(kCores);
        capture_ = std::make_unique<Capture>(
            *context_, "splice:barnes+radix", kOps);
        setLedgerEnabled(true);
        // A nominal die: the identity variation draw (the `faults`
        // verb's default --vtol 0).
        Prng prng(1);
        variation_ = faults::drawVariation(
            faults::VariationSpec{}.scaled(0.0),
            context_->crossbar.params(), kCores, prng);
        ThreadPool::global();
    }

    void
    runPass(PassContext &ctx) override
    {
        const Context &context = *context_;
        const std::vector<int> mapping = identity(kCores);
        std::string trace_dir = ctx.workDir + "/replay.mshards";
        fs::remove_all(trace_dir);

        sim::Trace written;
        std::size_t written_epochs = 0;
        bool ok = ctx.ops.run("simulate", [&] {
            {
                auto stage = ctx.tracer.stage("simulate");
                sim::TraceShardWriter writer(
                    trace_dir, capture_->workload->name(),
                    capture_->network.name(), kCores,
                    ledgerEpochMessages(), kEpochsPerShard);
                sim::SimConfig config;
                config.numCores = kCores;
                config.epochSink =
                    [&](std::vector<noc::EpochCell> &&cells) {
                        auto span = ctx.tracer.layer("trace.write");
                        writer.appendEpoch(cells);
                    };
                sim::SimulationResult result;
                {
                    auto span = ctx.tracer.layer("sim.run");
                    result = sim::runSimulation(
                        config, capture_->network, *capture_->workload,
                        seed_);
                }
                recordSimulation(ctx, "splice", result);
                written = sim::toTrace(result);
                written_epochs = writer.numEpochs();
                auto span = ctx.tracer.layer("trace.write");
                writer.finish(written.totalTicks, written.packets,
                              written.flits, written.manifest);
            }
            double bytes = bytesOnDisk(trace_dir);
            ctx.values["trace.bytes"] += bytes;
            ctx.digest.add("trace.bytes",
                           static_cast<std::uint64_t>(bytes));
            ctx.digest.add("trace.epochs",
                           static_cast<std::uint64_t>(written_epochs));
        });
        if (!ok)
            return;

        core::MnocDesign design;
        ok = ctx.ops.run("design", [&] {
            sim::Trace loaded;
            {
                auto stage = ctx.tracer.stage("design");
                {
                    auto span = ctx.tracer.layer("trace.read");
                    loaded = sim::loadTrace(trace_dir);
                }
                ctx.values["trace.read_bytes"] += bytesOnDisk(trace_dir);
                design = designAll(ctx, context,
                                   {spec(4, core::Assignment::CommAware,
                                         core::WeightSource::DesignFlow)},
                                   toFlowMatrix(loaded.flits),
                                   ctx.workDir + "/", seed_)
                             .front();
            }
            checkTraceRoundTrip(written, loaded, written_epochs);
            checkDesign(context.crossbar, design, "splice 4M_G_S");
        });
        if (!ok)
            return;

        std::optional<core::EnergyLedger> ledger;
        ok = ctx.ops.run("evaluate", [&] {
            {
                auto stage = ctx.tracer.stage("evaluate");
                ledger = streamedLedger(ctx, context, design, trace_dir,
                                        mapping,
                                        total(written.packets));
            }
            checkLedgerCoversTrace(*ledger, written.flits);
            ctx.values["mnoc_power_w"] = ledger->averagePower().total();
            ctx.values["qap_cost_ratio"] = 1.0;
            ctx.digest.add("ledger.energy", ledger->totalEnergy());
        });
        if (!ok)
            return;

        ctx.ops.run("adapt", [&] {
            std::optional<core::EnergyLedger> static_ledger;
            std::optional<core::EnergyLedger> adaptive_ledger;
            runtime::AdaptiveLog log;
            runtime::AdaptiveComparison comparison;
            {
                auto stage = ctx.tracer.stage("adapt");
                static_ledger = streamedLedger(ctx, context, design,
                                               trace_dir, mapping,
                                               total(written.packets));
                adaptive_ledger.emplace(
                    kCores, design.topology.numModes,
                    static_ledger->numEpochs(),
                    static_ledger->durationSeconds());
                {
                    auto span = ctx.tracer.layer("runtime.adapt");
                    sim::TraceReader reader(trace_dir);
                    log = runtime::runAdaptiveController(
                        context.designer, design, adaptivePolicy(design),
                        reader, &mapping, &*adaptive_ledger);
                }
                auto span = ctx.tracer.layer("runtime.reconcile");
                comparison = runtime::reconcileAdaptive(
                    *static_ledger, *adaptive_ledger, log);
            }
            checkReconcile(*static_ledger, *adaptive_ledger, log,
                           comparison);
            int switches = log.countActions(
                runtime::AdaptiveActionKind::Switch);
            ctx.values["runtime.adapt_epochs"] +=
                static_cast<double>(log.epochs.size());
            ctx.values["runtime.adapt_candidates"] += log.numCandidates;
            ctx.values["runtime.adapt_switches"] += switches;
            ctx.values["runtime.adapt_net_savings_pct"] =
                100.0 * comparison.netSavings / comparison.staticEnergy;
            ctx.digest.add("adapt.candidates",
                           static_cast<std::uint64_t>(log.numCandidates));
            ctx.digest.add("adapt.switches",
                           static_cast<std::uint64_t>(switches));
            ctx.digest.add("adapt.actions",
                           static_cast<std::uint64_t>(log.actions.size()));
            ctx.digest.add("adapt.net", comparison.netSavings);
        });

        ctx.ops.run("faults", [&] {
            runtime::DegradationLog log;
            runtime::DegradationPolicy policy;
            {
                auto stage = ctx.tracer.stage("faults");
                auto span = ctx.tracer.layer("runtime.degrade");
                runtime::FaultTimeline timeline(
                    runtime::FaultTimelineSpec{}.scaled(kFaultScale),
                    kCores, design.topology.numModes, ledger->numEpochs(),
                    seed_);
                log = runtime::runDegradationController(
                    context.layout, design, variation_, timeline, policy,
                    &*ledger);
            }
            checkDegradation(log, ledger->numEpochs(), policy);
            ctx.values["runtime.degrade_epochs"] +=
                static_cast<double>(log.epochs.size());
            ctx.values["runtime.degrade_actions"] +=
                static_cast<double>(log.actions.size());
            ctx.digest.add("degrade.actions",
                           static_cast<std::uint64_t>(log.actions.size()));
            ctx.digest.add("degrade.reconfig", log.totalReconfigEnergy);
        });
        fs::remove_all(trace_dir);
    }

  private:
    static constexpr int kCores = 256;
    static constexpr int kOps = 50;
    static constexpr const char *kEpochMessages = "4096";
    static constexpr std::size_t kEpochsPerShard = 128;
    /** Half the default fault rates: the schedule the controller
     *  survives on this capture at every seed tried (see README). */
    static constexpr double kFaultScale = 0.5;

    /** The `adapt` verb's rule table: struct defaults (32-epoch
     *  window) and comm-aware, design-flow retargets at the deployed
     *  mode count. */
    static runtime::AdaptivePolicy
    adaptivePolicy(const core::MnocDesign &design)
    {
        runtime::AdaptivePolicy policy;
        policy.candidateSpec.numModes = design.topology.numModes;
        policy.candidateSpec.assignment = core::Assignment::CommAware;
        policy.candidateSpec.weights = core::WeightSource::DesignFlow;
        return policy;
    }

    std::uint64_t seed_;
    std::unique_ptr<Context> context_;
    std::unique_ptr<Capture> capture_;
    faults::DeviceVariation variation_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "design_flow_256", "runtime_replay_256"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "design_flow_256")
        return std::make_unique<DesignFlow>(seed);
    if (name == "runtime_replay_256")
        return std::make_unique<RuntimeReplay>(seed);
    fatal("unknown workload: " + name);
}

} // namespace mnoc::pipebench
