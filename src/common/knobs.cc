#include "common/knobs.hh"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/journal.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/trace_span.hh"

namespace mnoc {

namespace {

// Manifests emit recorded knobs in table order; the first eight rows
// keep the order earlier manifests were written in.
constexpr KnobSpec kKnobTable[] = {
    {"MNOC_THREADS", KnobKind::Threads, "hardware", "", true},
    {"MNOC_METRICS", KnobKind::PathOrFlag, "0", "", true},
    {"MNOC_TRACE_SPANS", KnobKind::PathOrFlag, "0", "mnoc_spans.json",
     true},
    {"MNOC_BENCH_CORES", KnobKind::Count, "256", "", true},
    {"MNOC_BENCH_OPS", KnobKind::Count, "4000", "", true},
    {"MNOC_BENCH_DIR", KnobKind::Path, "bench_out", "", true},
    {"MNOC_FAULTS", KnobKind::Bool, "0", "", true},
    {"MNOC_FAULT_SEED", KnobKind::Count, "1", "", true},
    {"MNOC_LEDGER", KnobKind::Bool, "0", "", true},
    {"MNOC_EPOCH_MSGS", KnobKind::Count, "1024", "", true},
    {"MNOC_ADAPT", KnobKind::Bool, "0", "", true},
    {"MNOC_ADAPT_WINDOW", KnobKind::Count, "32", "", true},
    {"MNOC_JOURNAL", KnobKind::PathOrFlag, "0", "mnoc_journal.mjrn",
     false},
    {"MNOC_LOG_LEVEL", KnobKind::LogLevel, "info", "", false},
};

const KnobSpec &
knobRow(const char *name)
{
    for (const KnobSpec &spec : kKnobTable)
        if (std::strcmp(spec.name, name) == 0)
            return spec;
    panic(std::string(name) + " is not in the knob table");
}

void
exportAtExit()
{
    if (auto path = readKnob("MNOC_METRICS").path; !path.empty())
        MetricsRegistry::global().writeJson(path);
    if (auto path = readKnob("MNOC_TRACE_SPANS").path; !path.empty())
        SpanRecorder::global().writeJson(path);
    if (auto path = readKnob("MNOC_JOURNAL").path; !path.empty())
        Journal::global().writeFile(path);
}

std::atomic<bool> &
ledgerFlag()
{
    static std::atomic<bool> flag(readKnob("MNOC_LEDGER").enabled);
    return flag;
}

} // namespace

std::span<const KnobSpec>
knobTable()
{
    return kKnobTable;
}

const char *
knobText(const char *name)
{
    return std::getenv(knobRow(name).name);
}

bool
parseBoolKnob(const char *text, const char *knob)
{
    if (text == nullptr || *text == '\0' ||
        std::strcmp(text, "0") == 0)
        return false;
    fatalIf(std::strcmp(text, "1") != 0,
            std::string(knob) + " must be 0 or 1, got '" + text +
                "'");
    return true;
}

std::uint64_t
parsePositiveCount(const char *text, const char *knob,
                   std::uint64_t fallback)
{
    if (text == nullptr || *text == '\0')
        return fallback;
    char *end = nullptr;
    long long parsed = std::strtoll(text, &end, 10);
    fatalIf(end == text || *end != '\0' || parsed < 1,
            std::string(knob) +
                " must be a positive integer, got '" + text + "'");
    return static_cast<std::uint64_t>(parsed);
}

PathKnob
parsePathKnob(const char *text, const char *knob)
{
    if (text == nullptr || *text == '\0' ||
        std::strcmp(text, "0") == 0)
        return {};
    if (std::strcmp(text, "1") == 0)
        return {true, ""};

    std::string value(text), lowered;
    for (char c : value)
        lowered += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    bool flagish =
        lowered == "true" || lowered == "false" || lowered == "yes" ||
        lowered == "no" || lowered == "on" || lowered == "off" ||
        value.find_first_not_of("0123456789") == std::string::npos;
    fatalIf(flagish, std::string(knob) +
                         " must be 0, 1 or an export path, got '" +
                         value + "'");
    return {true, value};
}

LogLevel
parseLogLevelKnob(const char *text, const std::string &knob)
{
    std::string raw = text != nullptr ? text : "";
    if (raw.empty() || raw == "info")
        return LogLevel::Info;
    if (raw == "quiet")
        return LogLevel::Quiet;
    if (raw == "warn")
        return LogLevel::Warn;
    fatal(knob + " must be quiet, warn, or info, got '" + raw +
          "'");
}

int
parseThreadsKnob(const char *text, const char *knob, int fallback)
{
    if (text == nullptr || *text == '\0')
        return fallback;
    // A mistyped override must stop the run: silently falling back
    // would run at a different thread count than the user asked for.
    std::uint64_t threads = parsePositiveCount(text, knob, 1);
    fatalIf(threads > 4096, std::string(knob) +
                                " must be at most 4096, got " +
                                std::to_string(threads));
    return static_cast<int>(threads);
}

KnobValue
readKnob(const char *name)
{
    const KnobSpec &row = knobRow(name);
    const char *text = std::getenv(row.name);
    KnobValue value;
    switch (row.kind) {
    case KnobKind::Bool: value.enabled = parseBoolKnob(text, name); break;
    case KnobKind::Count:
        value.count = parsePositiveCount(
            text, name, std::strtoull(row.fallback, nullptr, 10));
        break;
    case KnobKind::PathOrFlag: {
        PathKnob knob = parsePathKnob(text, name);
        value.enabled = knob.enabled;
        value.path = knob.enabled && knob.path.empty()
                         ? row.defaultExport
                         : knob.path;
        break;
    }
    case KnobKind::Path:
        value.path = text != nullptr && *text != '\0' ? text : row.fallback;
        break;
    case KnobKind::LogLevel:
        value.level = parseLogLevelKnob(text, name);
        break;
    case KnobKind::Threads:
        value.count = static_cast<std::uint64_t>(
            parseThreadsKnob(text, name, 0));
        break;
    }
    return value;
}

void
initKnobs()
{
    for (const KnobSpec &spec : kKnobTable)
        readKnob(spec.name);
    registerKnobExport();
}

void
registerKnobExport()
{
    static std::once_flag once;
    std::call_once(once, [] { std::atexit(exportAtExit); });
}

bool
ledgerEnabled()
{
    return ledgerFlag().load(std::memory_order_relaxed);
}

void
setLedgerEnabled(bool on)
{
    ledgerFlag().store(on, std::memory_order_relaxed);
}

std::uint64_t
ledgerEpochMessages()
{
    static const std::uint64_t cached = readKnob("MNOC_EPOCH_MSGS").count;
    return cached;
}

bool
faultsEnabled()
{
    static const bool cached = readKnob("MNOC_FAULTS").enabled;
    return cached;
}

std::uint64_t
faultSeed()
{
    static const std::uint64_t cached = readKnob("MNOC_FAULT_SEED").count;
    return cached;
}

bool
adaptEnabled()
{
    static const bool cached = readKnob("MNOC_ADAPT").enabled;
    return cached;
}

std::uint64_t
adaptWindow()
{
    static const std::uint64_t cached = readKnob("MNOC_ADAPT_WINDOW").count;
    return cached;
}

} // namespace mnoc
