/**
 * @file
 * Measurement plumbing of the pipeline benchmark: host clocks, the
 * span recorder that times every call into a library layer from the
 * benchmark's own code, the op ledger that counts stage calls and
 * their failures, and the output digest.
 *
 * Nothing here reaches into the library: spans wrap calls made by
 * the benchmark, so the per-layer numbers are what a caller of each
 * module's public functions observes.
 */

#ifndef MNOC_PIPEBENCH_PROBE_HH
#define MNOC_PIPEBENCH_PROBE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace mnoc::pipebench {

/** Host wall-clock seconds (steady clock). */
double wallNow();

/** Host CPU seconds of the whole process, summed over threads. */
double cpuNow();

/** Peak resident set of the process so far, in MiB. */
double peakRssMib();

/** One timed interval: a stage of a pass or a call into a layer. */
struct SpanRecord
{
    int id = 0;
    std::string name;
    /** Enclosing span's id, -1 at top level. */
    int parent = -1;
    /** Pass the span belongs to; -1 for set-up. */
    int pass = -1;
    /** Stage spans partition a pass; layer spans sit inside them. */
    bool stage = false;
    double start = 0.0;
    double end = 0.0;
    /** Process CPU seconds consumed during the span (layer spans of
     *  a traced pass only; 0 otherwise). */
    double cpu = 0.0;
};

/**
 * In-memory span recorder.  Stage spans are always recorded (they
 * give the end-to-end stage times); layer spans only while tracing
 * is on, so an untraced pass pays two clock reads per stage and
 * nothing per layer call.  Spans are opened and closed on the
 * calling thread only; the benchmark makes every layer call from
 * its main thread.
 */
class Tracer
{
  public:
    /** RAII span: closes when it leaves scope, also on a throw. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, int id) : tracer_(tracer), id_(id) {}
        ~Scope() { tracer_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int id_;
    };

    /** Start pass @p pass with layer tracing on or off. */
    void beginPass(int pass, bool traced);

    bool traced() const { return traced_; }

    /** Time one stage of the current pass. */
    [[nodiscard]] Scope stage(const std::string &name);

    /** Time one call into a layer (no-op while untraced). */
    [[nodiscard]] Scope layer(const std::string &name);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Wall seconds of every stage of @p pass, by stage name. */
    std::map<std::string, double> stageTimes(int pass) const;

    /**
     * Self time of every span name in @p pass: the span's duration
     * minus the part of it that its child spans cover, summed over
     * the name's spans.
     */
    std::map<std::string, double> selfTimes(int pass) const;

    /** Summed wall and CPU seconds of the layer spans named
     *  @p name in @p pass. */
    std::pair<double, double> layerWallCpu(int pass,
                                           const std::string &name) const;

    /** Write every span as JSON to @p path (at exit). */
    void writeJson(const std::string &path,
                   const std::string &header_json) const;

  private:
    int open(const std::string &name, bool stage);
    void close(int id);

    std::vector<SpanRecord> spans_;
    std::vector<int> openStack_;
    int pass_ = -1;
    bool traced_ = false;
};

/**
 * Op accounting: an op is one stage call.  A FatalError or
 * PanicError thrown by the library, or a failed output check, counts
 * as exactly one failed op; the op is never retried.
 */
class OpLedger
{
  public:
    /** Run @p op; false (and one failure recorded) when it threw. */
    bool run(const std::string &name, const std::function<void()> &op);

    long long attempted() const { return attempted_; }
    long long failed() const { return failed_; }

  private:
    long long attempted_ = 0;
    long long failed_ = 0;
};

/**
 * Digest of a pass's simulated outputs.  Fields are rendered into
 * canonical "key=value" text (doubles bit-exact) and hashed, so two
 * passes, or two commits, compare with one string.
 */
class Digest
{
  public:
    void add(const std::string &key, std::uint64_t value);
    void add(const std::string &key, double value);
    void add(const std::string &key, const std::string &value);

    /** 16-hex-digit FNV-1a of the canonical text. */
    std::string hex() const;

  private:
    std::string text_;
};

/** The @p q quantile of @p values (must be non-empty), interpolated
 *  linearly between the two nearest order statistics. */
double quantile(std::vector<double> values, double q);

/** Median of @p values (must be non-empty). */
double median(std::vector<double> values);

/**
 * Lower quartile of @p values (must be non-empty).  Host noise only
 * ever adds time, so the fastest quarter of a run's passes is the
 * steadiest estimate of what a stage costs.
 */
double lowerQuartile(std::vector<double> values);

} // namespace mnoc::pipebench

#endif // MNOC_PIPEBENCH_PROBE_HH
