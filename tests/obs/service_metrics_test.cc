// Service-level observability: MetricsSnapshot() must report the same
// per-query totals at every worker thread count and every ingest thread
// count (the instruments are striped and shared, but the sums are
// deterministic), histogram counts must agree with the sinks' match
// counts, memory gauges must track engine footprints exactly, and the
// dominant-last-position gauge must match the pattern semantics.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/cep_service.h"
#include "event/stream_source.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "workload/keyed_generator.h"

namespace cepjoin {
namespace {

MetricLabels QueryLabels(uint64_t id) {
  return {{"query", std::to_string(id)}};
}

MetricLabels QueryLabels(uint64_t id, const std::string& extra_key,
                         const std::string& extra_value) {
  MetricLabels labels = QueryLabels(id);
  labels.emplace_back(extra_key, extra_value);
  return labels;
}

struct Totals {
  double ingest_events = 0.0;
  double query_events = 0.0;
  double matches = 0.0;
  uint64_t detection_count = 0;
  uint64_t ingest_to_match_count = 0;
  double last_position = -1.0;
};

Totals ReadTotals(const MetricsSnapshot& snap, uint64_t query_id) {
  Totals t;
  t.ingest_events = snap.Value(metric_names::kIngestEvents);
  t.query_events = snap.Value(metric_names::kQueryEvents,
                              QueryLabels(query_id));
  t.matches = snap.Value(metric_names::kQueryMatches, QueryLabels(query_id));
  t.last_position = snap.Value(metric_names::kLastPosition,
                               QueryLabels(query_id), -1.0);
  const MetricPoint* detection =
      snap.Find(metric_names::kDetectionSeconds, QueryLabels(query_id));
  if (detection != nullptr) t.detection_count = detection->histogram.count;
  const MetricPoint* ingest_to_match =
      snap.Find(metric_names::kIngestToMatchSeconds, QueryLabels(query_id));
  if (ingest_to_match != nullptr) {
    t.ingest_to_match_count = ingest_to_match->histogram.count;
  }
  return t;
}

/// Sum of every cep_query_memory_bytes sample of one query.
double TotalMemoryBytes(const MetricsSnapshot& snap, uint64_t query_id) {
  double total = 0.0;
  const std::string query_value = std::to_string(query_id);
  for (const MetricPoint& p : snap.points) {
    if (p.name != metric_names::kQueryMemoryBytes) continue;
    for (const auto& [key, value] : p.labels) {
      if (key == "query" && value == query_value) total += p.value;
    }
  }
  return total;
}

TEST(ServiceMetricsTest, TotalsAreIdenticalAtEveryWorkerThreadCount) {
  KeyedWorkload workload = MakeKeyedWorkload(8, 6.0, 11);

  Totals reference;
  uint64_t reference_matches = 0;
  for (size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.history = &workload.stream;
    options.num_types = workload.registry.size();
    options.num_threads = threads;
    options.batch_size = 64;  // force multiple batches per shard
    auto service = CepService::Create(options).value();

    CollectingSink sink;
    auto handle = service->Register(
        QuerySpec::Simple(workload.pattern).Keyed().WithSink(&sink));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    service->ProcessStream(workload.stream);
    service->Finish();

    MetricsSnapshot snap = service->MetricsSnapshot();
    Totals totals = ReadTotals(snap, handle->id());
    EXPECT_EQ(totals.ingest_events,
              static_cast<double>(workload.stream.size()));
    // Every event routes to exactly one partition of the keyed query, so
    // the per-query event counter sums to the full stream length on both
    // the inline (threads=1) and the sharded path.
    EXPECT_EQ(totals.query_events,
              static_cast<double>(workload.stream.size()));
    EXPECT_EQ(totals.matches, static_cast<double>(sink.matches.size()));
    EXPECT_GT(sink.matches.size(), 0u);
    // Detection latency is recorded for every match; ingest-to-match
    // only for matches with an ingest anchor (Finish-time flushes have
    // none).
    EXPECT_EQ(totals.detection_count, sink.matches.size());
    EXPECT_LE(totals.ingest_to_match_count, sink.matches.size());
    // SEQ(A, B, C): the temporally last event of every match is C, so
    // the dominant last position is 2 regardless of threading.
    EXPECT_EQ(totals.last_position, 2.0);
    // All engines are finished and released: exact memory gauges report
    // zero resident bytes.
    EXPECT_EQ(TotalMemoryBytes(snap, handle->id()), 0.0);

    if (threads == 1) {
      reference = totals;
      reference_matches = sink.matches.size();
    } else {
      EXPECT_EQ(totals.ingest_events, reference.ingest_events);
      EXPECT_EQ(totals.query_events, reference.query_events);
      EXPECT_EQ(totals.matches, reference.matches);
      EXPECT_EQ(totals.detection_count, reference.detection_count);
      EXPECT_EQ(totals.last_position, reference.last_position);
      EXPECT_EQ(sink.matches.size(), reference_matches);
    }
  }
}

TEST(ServiceMetricsTest, TotalsAreIdenticalAtEveryIngestThreadCount) {
  KeyedWorkload workload = MakeKeyedWorkload(6, 5.0, 31);
  const double last_ts = workload.stream.events().back()->ts;

  Totals reference;
  for (size_t sources : {1u, 2u, 4u}) {
    SCOPED_TRACE("sources=" + std::to_string(sources));
    ServiceOptions options;
    options.history = &workload.stream;
    options.num_types = workload.registry.size();
    options.num_threads = 2;
    options.num_ingest_threads = sources;
    auto service = CepService::Create(options).value();

    CollectingSink sink;
    auto handle = service->Register(
        QuerySpec::Simple(workload.pattern).Keyed().WithSink(&sink));
    ASSERT_TRUE(handle.ok());

    // Fan the materialized stream out as `sources` interleaved slices:
    // the merge stage must reassemble the original timestamp order.
    std::vector<std::unique_ptr<StreamSource>> slices;
    for (size_t i = 0; i < sources; ++i) {
      slices.push_back(
          std::make_unique<EventStreamSource>(&workload.stream, i, sources));
    }
    IngestResult result = service->ProcessSourceAsync(std::move(slices));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.events, workload.stream.size());
    service->Finish();

    MetricsSnapshot snap = service->MetricsSnapshot();
    Totals totals = ReadTotals(snap, handle->id());
    // The async pipeline owns the ingest counters for merged runs.
    EXPECT_EQ(totals.ingest_events,
              static_cast<double>(workload.stream.size()));
    EXPECT_EQ(totals.query_events,
              static_cast<double>(workload.stream.size()));
    EXPECT_EQ(totals.matches, static_cast<double>(sink.matches.size()));
    EXPECT_GT(sink.matches.size(), 0u);

    // Watermarks: one gauge per source, each at its slice's last
    // timestamp; the merged watermark reached the stream's end; lags are
    // trailing distances, never negative.
    EXPECT_EQ(snap.Value(metric_names::kMergedWatermark), last_ts);
    for (size_t i = 0; i < sources; ++i) {
      MetricLabels source_labels = {{"source", std::to_string(i)}};
      const MetricPoint* wm =
          snap.Find(metric_names::kSourceWatermark, source_labels);
      ASSERT_NE(wm, nullptr) << "source " << i;
      EXPECT_GT(wm->value, 0.0);
      EXPECT_LE(wm->value, last_ts);
      double lag = snap.Value(metric_names::kSourceWatermarkLag,
                              source_labels, -1.0);
      EXPECT_GE(lag, 0.0) << "source " << i;
    }

    if (sources == 1) {
      reference = totals;
    } else {
      EXPECT_EQ(totals.ingest_events, reference.ingest_events);
      EXPECT_EQ(totals.query_events, reference.query_events);
      EXPECT_EQ(totals.matches, reference.matches);
      EXPECT_EQ(totals.detection_count, reference.detection_count);
    }
  }
}

TEST(ServiceMetricsTest, UnkeyedMemoryGaugeTracksEngineBytesExactly) {
  KeyedWorkload workload = MakeKeyedWorkload(6, 1.5, 19);
  ServiceOptions options;
  options.history = &workload.stream;
  options.num_types = workload.registry.size();
  auto service = CepService::Create(options).value();

  CollectingSink sink;
  auto handle = service->Register(
      QuerySpec::Simple(workload.pattern).WithSink(&sink));
  ASSERT_TRUE(handle.ok());

  // Mid-stream: the snapshot refreshes the gauge from the live engine,
  // so it must equal the engine's exact byte accounting, not an
  // estimate.
  const size_t half = workload.stream.size() / 2;
  service->OnBatch(workload.stream.events().data(), half);
  MetricsSnapshot mid = service->MetricsSnapshot();
  double mid_bytes = mid.Value(
      metric_names::kQueryMemoryBytes,
      QueryLabels(handle->id(), "partition", "all"), -1.0);
  EXPECT_EQ(mid_bytes,
            static_cast<double>(
                service->UnkeyedCounters(handle->id()).CurrentBytes()));
  EXPECT_GT(mid_bytes, 0.0);

  service->OnBatch(workload.stream.events().data() + half,
                   workload.stream.size() - half);
  service->Finish();

  // The engine is released at Finish: the gauge reports the real
  // resident footprint (zero), not the last pre-release value.
  MetricsSnapshot done = service->MetricsSnapshot();
  EXPECT_EQ(done.Value(metric_names::kQueryMemoryBytes,
                       QueryLabels(handle->id(), "partition", "all"), -1.0),
            0.0);
  EXPECT_EQ(done.Value(metric_names::kQueryMatches, QueryLabels(handle->id())),
            static_cast<double>(sink.matches.size()));
  EXPECT_GT(sink.matches.size(), 0u);
}

TEST(ServiceMetricsTest, KeyedMemoryGaugesCoverLivePartitions) {
  KeyedWorkload workload = MakeKeyedWorkload(8, 6.0, 23);
  ServiceOptions options;
  options.history = &workload.stream;
  options.num_types = workload.registry.size();
  options.num_threads = 1;
  auto service = CepService::Create(options).value();

  CollectingSink sink;
  auto handle = service->Register(
      QuerySpec::Simple(workload.pattern).Keyed().WithSink(&sink));
  ASSERT_TRUE(handle.ok());

  const size_t half = workload.stream.size() / 2;
  service->OnBatch(workload.stream.events().data(), half);
  MetricsSnapshot mid = service->MetricsSnapshot();
  // Every partition engine buffers its window mid-stream: per-partition
  // gauges exist and sum to a positive resident footprint.
  EXPECT_GT(TotalMemoryBytes(mid, handle->id()), 0.0);

  service->OnBatch(workload.stream.events().data() + half,
                   workload.stream.size() - half);
  service->Finish();
  EXPECT_EQ(TotalMemoryBytes(service->MetricsSnapshot(), handle->id()), 0.0);
}

TEST(ServiceMetricsTest, NamedQueriesCarryTheNameLabel) {
  KeyedWorkload workload = MakeKeyedWorkload(6, 1.5, 19);
  ServiceOptions options;
  options.history = &workload.stream;
  options.num_types = workload.registry.size();
  auto service = CepService::Create(options).value();

  CollectingSink sink;
  auto handle = service->Register(QuerySpec::Simple(workload.pattern)
                                      .Keyed()
                                      .WithName("fraud-alerts")
                                      .WithSink(&sink));
  ASSERT_TRUE(handle.ok());
  service->ProcessStream(workload.stream);
  service->Finish();

  MetricsSnapshot snap = service->MetricsSnapshot();
  EXPECT_EQ(snap.Value(metric_names::kQueryMatches,
                       QueryLabels(handle->id(), "name", "fraud-alerts")),
            static_cast<double>(sink.matches.size()));
  EXPECT_GT(sink.matches.size(), 0u);
}

TEST(ServiceMetricsTest, DisabledMetricsYieldAnEmptySnapshot) {
  KeyedWorkload workload = MakeKeyedWorkload(6, 1.5, 19);
  ServiceOptions options;
  options.history = &workload.stream;
  options.num_types = workload.registry.size();
  options.num_threads = 2;
  options.enable_metrics = false;
  auto service = CepService::Create(options).value();

  CollectingSink sink;
  auto handle = service->Register(
      QuerySpec::Simple(workload.pattern).Keyed().WithSink(&sink));
  ASSERT_TRUE(handle.ok());
  service->ProcessStream(workload.stream);
  service->Finish();

  EXPECT_EQ(service->metrics_registry(), nullptr);
  EXPECT_TRUE(service->MetricsSnapshot().points.empty());
  EXPECT_GT(sink.matches.size(), 0u);  // evaluation unaffected
}

TEST(ServiceMetricsTest, LedgerGaugeCountsLiveAttachedInserts) {
  KeyedWorkload workload = MakeKeyedWorkload(4, 1.0, 23);
  // Delta copy of the stream: every 4th insert is retracted right after
  // it occurs.
  EventStream delta;
  delta.EnableRetractions();
  std::vector<size_t> live_after;  // expected gauge after each event
  size_t live = 0;
  size_t index = 0;
  for (const EventPtr& e : workload.stream.events()) {
    Event insert = *e;
    insert.serial = 0;
    insert.partition_seq = 0;
    delta.Append(insert);
    live_after.push_back(++live);
    if (index++ % 4 != 0) continue;
    Event retraction = insert;
    retraction.polarity = -1;
    retraction.target_ts = insert.ts;
    delta.Append(retraction);
    live_after.push_back(--live);
  }

  ServiceOptions options;
  options.history = &workload.stream;
  options.num_types = workload.registry.size();
  auto service = CepService::Create(options).value();
  CountingSink sink;
  const SimplePattern pattern = workload.pattern.WithDeltaInput();
  ASSERT_TRUE(
      service->Register(QuerySpec::Simple(pattern).Keyed().WithSink(&sink))
          .ok());
  ASSERT_TRUE(
      service->AttachSource(std::make_unique<EventStreamSource>(&delta)).ok());
  size_t fed = 0;
  for (size_t chunk : {size_t{1}, size_t{6}, size_t{100}, delta.size()}) {
    auto pumped = service->PumpAttachedSources(chunk);
    ASSERT_TRUE(pumped.ok());
    fed += pumped.value();
    ASSERT_GT(fed, 0u);
    EXPECT_EQ(service->MetricsSnapshot().Value(
                  metric_names::kIngestLedgerLiveEntries),
              static_cast<double>(live_after[fed - 1]))
        << "after " << fed << " events";
  }
  EXPECT_EQ(fed, delta.size());
  service->Finish();
}

TEST(ServiceMetricsTest, SnapshotExportsCleanly) {
  KeyedWorkload workload = MakeKeyedWorkload(6, 1.5, 19);
  ServiceOptions options;
  options.history = &workload.stream;
  options.num_types = workload.registry.size();
  options.num_threads = 2;
  auto service = CepService::Create(options).value();

  CountingSink sink;
  ASSERT_TRUE(service
                  ->Register(QuerySpec::Simple(workload.pattern)
                                 .Keyed()
                                 .WithSink(&sink))
                  .ok());
  service->ProcessStream(workload.stream);
  service->Finish();

  MetricsSnapshot snap = service->MetricsSnapshot();
  ASSERT_FALSE(snap.points.empty());
  std::string text = ToPrometheusText(snap);
  EXPECT_NE(text.find(metric_names::kQueryMatches), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  std::string json = ToJson(snap);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find(metric_names::kShardEvents), std::string::npos);
}

}  // namespace
}  // namespace cepjoin
