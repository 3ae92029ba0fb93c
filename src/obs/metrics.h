/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and sample
 * histograms with percentile summaries, exportable as one JSON object.
 *
 * The engine, serving runtime, auto-tuner, and PE executor already
 * compute rich latency/traffic breakdowns internally; this registry is
 * where they publish them so a run leaves behind one machine-readable
 * artifact (the per-stage statistics reporting that simulator
 * reproductions like PIMSIM-NN treat as a first-class output).
 *
 * Concurrency contract: metric objects are created once and never
 * destroyed for the lifetime of the process, so references returned by
 * the registry stay valid forever — hot paths may cache them. Counter
 * and Gauge updates are lock-free atomics; Histogram::record takes a
 * per-histogram mutex. reset() zeroes values in place (it never removes
 * entries), keeping cached references safe across test boundaries.
 */

#ifndef PIMDL_OBS_METRICS_H
#define PIMDL_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace pimdl {
namespace obs {

/** Monotonic event count (lock-free). */
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written instantaneous value (lock-free). */
class Gauge
{
  public:
    void
    set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Point-in-time summary of a Histogram. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * Sample distribution with exact count/sum/min/max and percentile
 * summaries. Keeps up to @p capacity raw samples; past that, new
 * samples deterministically replace old ones (a keyed reservoir), so
 * memory stays bounded while percentiles remain representative.
 *
 * Percentile semantics: over the sorted retained samples, rank
 * r = p * (n - 1) with linear interpolation between neighbours
 * (numpy's default "linear" method).
 */
class Histogram
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1 << 14;

    explicit Histogram(std::size_t capacity = kDefaultCapacity);

    void record(double sample);

    HistogramSnapshot snapshot() const;

    /** Percentile of the retained samples; p in [0, 1]. */
    double percentile(double p) const;

    std::uint64_t count() const;

    void reset();

  private:
    /** Percentile over an already-extracted sample copy. */
    double percentileLocked(std::vector<double> sorted, double p) const;

    mutable Mutex mutex_{"obs.metrics.histogram"};
    std::vector<double> samples_ PIMDL_GUARDED_BY(mutex_);
    std::size_t capacity_;
    std::uint64_t count_ PIMDL_GUARDED_BY(mutex_) = 0;
    double sum_ PIMDL_GUARDED_BY(mutex_) = 0.0;
    double min_ PIMDL_GUARDED_BY(mutex_) = 0.0;
    double max_ PIMDL_GUARDED_BY(mutex_) = 0.0;
};

/**
 * The process-wide metric namespace. Lookup is by dotted name
 * ("serving.request_latency_s"); the first lookup creates the metric,
 * later lookups return the same object. A name must keep one kind for
 * the process lifetime (looking it up as a different kind throws).
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Sorted name/value views for exporters and tests. */
    std::vector<std::pair<std::string, std::uint64_t>> counters() const;
    std::vector<std::pair<std::string, double>> gauges() const;
    std::vector<std::pair<std::string, HistogramSnapshot>>
    histograms() const;

    /**
     * Zeroes every registered metric in place. Entries are never
     * removed, so references obtained before reset() remain valid.
     */
    void reset();

    /**
     * The metrics section of the snapshot artifact:
     * {"counters":{...},"gauges":{...},"histograms":{...}}.
     */
    std::string toJson() const;

  private:
    MetricsRegistry() = default;

    mutable Mutex mutex_{"obs.metrics.registry"};
    std::map<std::string, std::unique_ptr<Counter>> counters_
        PIMDL_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_
        PIMDL_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Histogram>> histograms_
        PIMDL_GUARDED_BY(mutex_);
};

} // namespace obs
} // namespace pimdl

#endif // PIMDL_OBS_METRICS_H
