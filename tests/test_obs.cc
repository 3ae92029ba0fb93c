/**
 * @file
 * Observability-layer tests: histogram percentile math, span nesting and
 * ring-buffer wraparound, the snapshotJson() schema, and thread-safety
 * of counter/histogram updates under parallelFor.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "runtime/serving_live.h"

namespace pimdl {
namespace {

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON syntax checker, enough to prove that
// snapshotJson() emits well-formed JSON (the obs layer writes JSON but
// never parses it, so the test brings its own validator).

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return string();
        case 't':
            return literal("true");
        case 'f':
            return literal("false");
        case 'n':
            return literal("null");
        default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const std::string &word)
    {
        if (text_.compare(pos_, word.size(), word) != 0)
            return false;
        pos_ += word.size();
        return true;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------

TEST(ObsHistogram, PercentileLinearInterpolation)
{
    obs::Histogram hist;
    for (int i = 1; i <= 100; ++i)
        hist.record(static_cast<double>(i));

    const obs::HistogramSnapshot s = hist.snapshot();
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);
    // rank = p * (n - 1) with linear interpolation (numpy "linear").
    EXPECT_NEAR(s.p50, 50.5, 1e-9);
    EXPECT_NEAR(s.p95, 95.05, 1e-9);
    EXPECT_NEAR(s.p99, 99.01, 1e-9);
    EXPECT_NEAR(hist.percentile(0.0), 1.0, 1e-9);
    EXPECT_NEAR(hist.percentile(1.0), 100.0, 1e-9);
}

TEST(ObsHistogram, EmptySnapshotIsZero)
{
    obs::Histogram hist;
    const obs::HistogramSnapshot s = hist.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.p50, 0.0);
    EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(ObsHistogram, BoundedMemoryKeepsExactAggregates)
{
    obs::Histogram hist(64); // tiny reservoir
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hist.record(static_cast<double>(i % 1000));

    const obs::HistogramSnapshot s = hist.snapshot();
    EXPECT_EQ(s.count, static_cast<std::uint64_t>(n));
    EXPECT_DOUBLE_EQ(s.min, 0.0);
    EXPECT_DOUBLE_EQ(s.max, 999.0);
    // Percentiles come from the retained reservoir: bounded but sane.
    EXPECT_GE(s.p50, 0.0);
    EXPECT_LE(s.p50, 999.0);
}

TEST(ObsHistogram, ResetClearsState)
{
    obs::Histogram hist;
    hist.record(5.0);
    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.snapshot().max, 0.0);
}

TEST(ObsRegistry, CountersGaugesAndKindConflicts)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    obs::Counter &c = reg.counter("test_obs.registry.counter");
    c.add(3);
    // Same name returns the same object.
    EXPECT_EQ(reg.counter("test_obs.registry.counter").value(),
              c.value());

    reg.gauge("test_obs.registry.gauge").set(2.5);
    EXPECT_DOUBLE_EQ(reg.gauge("test_obs.registry.gauge").value(), 2.5);

    // One name, one kind.
    EXPECT_THROW(reg.gauge("test_obs.registry.counter"),
                 std::logic_error);
    EXPECT_THROW(reg.histogram("test_obs.registry.gauge"),
                 std::logic_error);
}

TEST(ObsRegistry, ResetZeroesInPlaceKeepingReferencesValid)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    obs::Counter &c = reg.counter("test_obs.registry.reset");
    c.add(7);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    c.add(1); // the reference must still be live after reset()
    EXPECT_EQ(reg.counter("test_obs.registry.reset").value(), 1u);
}

TEST(ObsRegistry, CounterIncrementsAreThreadSafeUnderParallelFor)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    obs::Counter &c = reg.counter("test_obs.registry.parallel_counter");
    obs::Histogram &h =
        reg.histogram("test_obs.registry.parallel_hist");
    c.reset();
    h.reset();

    const std::size_t n = 20000;
    parallelFor(n, [&](std::size_t i) {
        c.add();
        h.record(static_cast<double>(i));
    });
    EXPECT_EQ(c.value(), n);
    EXPECT_EQ(h.count(), n);
}

TEST(ObsTrace, SpanNestingRecordsBothSpans)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setEnabled(true);
    tracer.clear();

    {
        obs::TraceSpan outer("test_obs.outer");
        outer.attr("model", "bert");
        {
            obs::TraceSpan inner("test_obs.inner");
            inner.attr("depth", static_cast<std::uint64_t>(1));
        }
    }

    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 2u);
    // Spans record on destruction, so the inner span lands first.
    EXPECT_EQ(events[0].name, "test_obs.inner");
    EXPECT_EQ(events[1].name, "test_obs.outer");
    // The inner span starts no earlier and ends no later than the outer.
    EXPECT_GE(events[0].ts_us, events[1].ts_us);
    EXPECT_LE(events[0].ts_us + events[0].dur_us,
              events[1].ts_us + events[1].dur_us);
    ASSERT_EQ(events[1].args.size(), 1u);
    EXPECT_EQ(events[1].args[0].first, "model");
    EXPECT_EQ(events[1].args[0].second, "\"bert\"");
}

TEST(ObsTrace, RingBufferWrapsKeepingNewestEvents)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.setCapacity(4);

    for (int i = 0; i < 10; ++i) {
        obs::TraceEvent e;
        e.name = "ev" + std::to_string(i);
        e.ts_us = static_cast<std::uint64_t>(i);
        tracer.record(e);
    }

    EXPECT_EQ(tracer.recorded(), 10u);
    EXPECT_EQ(tracer.dropped(), 6u);
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first order over the surviving (newest) events.
    EXPECT_EQ(events[0].name, "ev6");
    EXPECT_EQ(events[3].name, "ev9");

    const std::string chrome = tracer.toChromeJson();
    EXPECT_TRUE(JsonChecker(chrome).valid()) << chrome;
    EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);

    // Restore the process-wide recorder for other tests.
    tracer.setCapacity(obs::Tracer::kDefaultCapacity);
}

TEST(ObsTrace, DisabledTracerRecordsNothing)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.setEnabled(false);
    {
        obs::TraceSpan span("test_obs.disabled");
    }
    EXPECT_EQ(tracer.events().size(), 0u);
    tracer.setEnabled(true);
}

TEST(ObsSnapshot, JsonIsWellFormedAndCarriesSchema)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.counter("test_obs.snapshot.counter").add(2);
    reg.gauge("test_obs.snapshot.gauge").set(1.25);
    obs::Histogram &h = reg.histogram("test_obs.snapshot.hist");
    for (int i = 0; i < 10; ++i)
        h.record(static_cast<double>(i));

    const std::string json = obs::snapshotJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;

    // Envelope: schema id plus the four top-level sections.
    EXPECT_NE(json.find("\"schema\":\"pimdl.metrics.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"counters\":"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\":"), std::string::npos);
    EXPECT_NE(json.find("\"histograms\":"), std::string::npos);
    EXPECT_NE(json.find("\"trace\":"), std::string::npos);

    // The metrics registered above appear with their values.
    EXPECT_NE(json.find("\"test_obs.snapshot.counter\":2"),
              std::string::npos);
    EXPECT_NE(json.find("\"test_obs.snapshot.gauge\":1.25"),
              std::string::npos);
    // Histogram entries expose the full summary tuple.
    const std::size_t hist_pos = json.find("\"test_obs.snapshot.hist\"");
    ASSERT_NE(hist_pos, std::string::npos);
    for (const char *key :
         {"\"count\":", "\"sum\":", "\"min\":", "\"max\":", "\"mean\":",
          "\"p50\":", "\"p95\":", "\"p99\":"})
        EXPECT_NE(json.find(key, hist_pos), std::string::npos) << key;
}

TEST(ObsSnapshot, InstrumentedStackPublishesRequiredKeys)
{
    // Drive the instrumented hot paths end-to-end on a shrunk model and
    // assert the snapshot carries the keys CI's bench-smoke gate (and
    // future perf-regression PRs) rely on.
    const TransformerConfig model =
        customTransformer("obs-tf", 256, 2, 128, 4);
    PimDlEngine engine(upmemPlatform(), xeon4210Dual());
    const LutNnParams params{4, 16};
    (void)engine.estimatePimDl(model, params);

    ReplayClock clock;
    ModeledBatchExecutor executor(engine, model, params,
                                  SchedulePolicy::Sequential, clock);
    LiveServingConfig cfg;
    cfg.max_batch = 8;
    cfg.max_wait_s = 0.1;
    (void)LiveServingRuntime::replay(cfg, executor, clock,
                                     poissonArrivals(5.0, 10.0, 1));

    const std::string json = obs::snapshotJson();
    EXPECT_TRUE(JsonChecker(json).valid());
    for (const char *key :
         {"\"engine.role.QKV.ccs_s\"", "\"engine.role.QKV.lut_s\"",
          "\"engine.role.FFN2.ccs_s\"", "\"engine.ccs_s\"",
          "\"engine.lut_s\"", "\"serving.live.request_latency_s\"",
          "\"serving.live.batch_size\"",
          "\"tuner.searches\"", "\"tuner.mappings_evaluated\"",
          "\"tuner.mappings_pruned\"", "\"tuner.search_wall_s\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(ObsSnapshot, EscapesAwkwardMetricNames)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.counter("test_obs.snapshot.\"quoted\"\\name").add(1);
    const std::string json = obs::snapshotJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
}

} // namespace
} // namespace pimdl
