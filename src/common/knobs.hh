/**
 * @file
 * The environment-knob table (src/common/knobs.cc): every MNOC_*
 * variable the tree reads, with its kind, default, default export
 * path and whether run manifests record it.  Env parsing, manifest
 * capture, the at-exit export of the observability files and
 * `tools/doc_check.py`'s README cross-check all read this one table.
 *
 * The table fixes *where* a knob is parsed, not *when*: readKnob()
 * parses the environment when called, and each named accessor caches
 * its first read.  Parsers are strict: a mistyped knob fatals naming
 * the knob and the value.
 */

#ifndef MNOC_COMMON_KNOBS_HH
#define MNOC_COMMON_KNOBS_HH

#include <cstdint>
#include <span>
#include <string>

namespace mnoc {

enum class LogLevel;

/** How a knob's text is parsed; unset or empty means the default. */
enum class KnobKind
{
    Bool,       ///< "0" off, "1" on
    Count,      ///< positive integer
    PathOrFlag, ///< "0" off, "1" on, anything else an export path
    Path,       ///< free-form path
    LogLevel,   ///< quiet | warn | info
    Threads,    ///< integer in [1, 4096]
};

/** One row of the knob table. */
struct KnobSpec
{
    const char *name;
    KnobKind kind;
    const char *fallback;      ///< default (parsed for Count and Path)
    const char *defaultExport; ///< PathOrFlag "1" export ("": none)
    bool recorded; ///< manifests record it when set: it changes outputs
};

/** Every knob the tree reads, in manifest order. */
std::span<const KnobSpec> knobTable();

/** Raw value of table knob @p name (null when unset); panics on a
 *  name outside the table. */
const char *knobText(const char *name);

/** @name Strict parsers, one per kind; each fatals naming @p knob.
 *  A PathOrFlag value that looks like a mistyped flag (true/off/yes
 *  in any case, or all digits) is rejected, not taken as a path. */
///@{
bool parseBoolKnob(const char *text, const char *knob);
std::uint64_t parsePositiveCount(const char *text, const char *knob,
                                 std::uint64_t fallback);

struct PathKnob
{
    bool enabled = false;
    std::string path; ///< export path ("" when the value was "1")
};
PathKnob parsePathKnob(const char *text, const char *knob);

LogLevel parseLogLevelKnob(const char *text, const std::string &knob);
int parseThreadsKnob(const char *text, const char *knob, int fallback);
///@}

/** A knob's parsed value; the fields its kind sets are meaningful. */
struct KnobValue
{
    bool enabled = false;    ///< Bool, PathOrFlag
    std::uint64_t count = 0; ///< Count; Threads (0 when unset)
    std::string path;        ///< PathOrFlag export path; Path
    LogLevel level{};        ///< LogLevel
};

/** Parse table knob @p name from the environment now, by its row's
 *  kind: a PathOrFlag "1" yields the row's default export, an unset
 *  Count or Path the row's fallback. */
KnobValue readKnob(const char *name);

/** Validate every row against the environment (fatal on the first
 *  bad one) and register the at-exit exporter.  Entry points call it
 *  first so a mistyped knob stops any verb; it fills no cache. */
void initKnobs();

/** Register, once, the single at-exit exporter: it writes the
 *  metrics registry, span recorder and journal to every path
 *  MNOC_METRICS, MNOC_TRACE_SPANS and MNOC_JOURNAL name, even when
 *  nothing was recorded.  The recorders' global() calls it too. */
void registerKnobExport();

/** @name Named accessors, each reading its knob once on first call;
 *  setLedgerEnabled() overrides MNOC_LEDGER (tests, benches). */
///@{
bool ledgerEnabled();
void setLedgerEnabled(bool on);
std::uint64_t ledgerEpochMessages(); ///< MNOC_EPOCH_MSGS
bool faultsEnabled();                ///< MNOC_FAULTS
std::uint64_t faultSeed();           ///< MNOC_FAULT_SEED
bool adaptEnabled();                 ///< MNOC_ADAPT
std::uint64_t adaptWindow();         ///< MNOC_ADAPT_WINDOW
///@}

} // namespace mnoc

#endif // MNOC_COMMON_KNOBS_HH
