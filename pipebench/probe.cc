#include "probe.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <utility>

#include "checks.hh"
#include "common/io.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/manifest.hh"

namespace mnoc::pipebench {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
Tracer::beginPass(int pass, bool traced)
{
    panicIf(!openStack_.empty(), "pass started inside an open span");
    pass_ = pass;
    traced_ = traced;
}

Tracer::Scope
Tracer::stage(const std::string &name)
{
    return Scope(*this, open(name, true));
}

Tracer::Scope
Tracer::layer(const std::string &name)
{
    return Scope(*this, traced_ ? open(name, false) : -1);
}

int
Tracer::open(const std::string &name, bool stage)
{
    SpanRecord span;
    span.id = static_cast<int>(spans_.size());
    span.name = name;
    span.parent = openStack_.empty() ? -1 : openStack_.back();
    span.pass = pass_;
    span.stage = stage;
    if (traced_)
        span.cpu = cpuNow();
    span.start = wallNow();
    spans_.push_back(std::move(span));
    openStack_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    SpanRecord &span = spans_[static_cast<std::size_t>(id)];
    span.end = wallNow();
    span.cpu = traced_ ? cpuNow() - span.cpu : 0.0;
    panicIf(openStack_.empty() || openStack_.back() != id,
            "spans closed out of order");
    openStack_.pop_back();
}

std::map<std::string, double>
Tracer::stageTimes(int pass) const
{
    std::map<std::string, double> out;
    for (const auto &span : spans_)
        if (span.pass == pass && span.stage)
            out[span.name] += span.end - span.start;
    return out;
}

std::map<std::string, double>
Tracer::selfTimes(int pass) const
{
    // Spans of one thread nest without overlap, so a span's covered
    // time is the sum of its direct children's durations.
    std::map<int, double> covered;
    for (const auto &span : spans_)
        if (span.pass == pass && span.parent >= 0)
            covered[span.parent] += span.end - span.start;
    std::map<std::string, double> out;
    for (const auto &span : spans_)
        if (span.pass == pass)
            out[span.name] += span.end - span.start - covered[span.id];
    return out;
}

std::pair<double, double>
Tracer::layerWallCpu(int pass, const std::string &name) const
{
    double wall = 0.0, cpu = 0.0;
    for (const auto &span : spans_) {
        if (span.pass != pass || span.stage || span.name != name)
            continue;
        wall += span.end - span.start;
        cpu += span.cpu;
    }
    return {wall, cpu};
}

void
Tracer::writeJson(const std::string &path,
                  const std::string &header_json) const
{
    FileWriter out(path);
    auto &os = out.stream();
    os << "{\"run\":" << header_json << ",\"spans\":[";
    double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &span = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"id\":" << span.id
           << ",\"name\":\"" << escapeJson(span.name)
           << "\",\"kind\":\"" << (span.stage ? "stage" : "layer")
           << "\",\"parent\":" << span.parent
           << ",\"pass\":" << span.pass
           << ",\"start_s\":" << jsonNumber(span.start - origin)
           << ",\"end_s\":" << jsonNumber(span.end - origin)
           << ",\"cpu_s\":" << jsonNumber(span.cpu) << "}";
    }
    os << "\n]}\n";
    out.close();
}

bool
OpLedger::run(const std::string &name, const std::function<void()> &op)
{
    ++attempted_;
    try {
        op();
        return true;
    } catch (const FatalError &error) {
        std::cerr << "pipebench: op " << name << " failed: "
                  << error.what() << "\n";
    } catch (const PanicError &error) {
        std::cerr << "pipebench: op " << name << " failed: "
                  << error.what() << "\n";
    } catch (const CheckFailure &error) {
        std::cerr << "pipebench: op " << name
                  << " failed its output check: " << error.what()
                  << "\n";
    }
    ++failed_;
    return false;
}

void
Digest::add(const std::string &key, std::uint64_t value)
{
    text_ += key + "=" + std::to_string(value) + "\n";
}

void
Digest::add(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    text_ += key + "=" + buf + "\n";
}

void
Digest::add(const std::string &key, const std::string &value)
{
    text_ += key + "=" + value + "\n";
}

std::string
Digest::hex() const
{
    return hexDigest(fnv1a64(text_));
}

double
quantile(std::vector<double> values, double q)
{
    panicIf(values.empty(), "quantile of no values");
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
lowerQuartile(std::vector<double> values)
{
    return quantile(std::move(values), 0.25);
}

} // namespace mnoc::pipebench
