// Tests for the serving layer (src/serve/): on-disk frame format
// (roundtrip, truncation, corruption, version skew, legacy fallback —
// every malformed file must surface as a Status, never an abort), the
// shard registry's id bumping, and the query engine's answers (bit-equal
// to direct Synopsis queries, also under concurrent callers), validation
// and observability surface (slow-query log, per-type tallies,
// achieved-vs-bound gauges, env knob parsing).
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/metrics.h"
#include "common/sealed_file.h"
#include "serve/engine.h"
#include "serve/format.h"
#include "serve/registry.h"
#include "test_util.h"
#include "wavelet/haar.h"
#include "wavelet/synopsis.h"

namespace dwm::serve {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("dwm_serve_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

using testing::ReadAll;

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  ASSERT_TRUE(testing::WriteBytes(path, bytes));
}

// Recomputes the sealed-file trailer so tests can re-seal a frame they
// edited (otherwise every edit lands in the checksum-mismatch path instead
// of the one actually under test).
void Reseal(std::vector<uint8_t>* bytes) {
  const size_t body = bytes->size() - sizeof(uint64_t);
  const uint64_t checksum = Fnv1a(kFnv1aOffset, bytes->data(), body);
  std::memcpy(bytes->data() + body, &checksum, sizeof(checksum));
}

Synopsis TestSynopsis(int64_t n = 64, uint64_t seed = 5) {
  const auto data = testing::PiecewiseData(n, seed);
  auto coeffs = ForwardHaar(data);
  std::vector<Coefficient> kept;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 2 == 0 && coeffs[static_cast<size_t>(i)] != 0.0) {
      kept.push_back({i, coeffs[static_cast<size_t>(i)]});
    }
  }
  return Synopsis(n, std::move(kept));
}

SynopsisFrame TestFrame() {
  SynopsisFrame frame;
  frame.dataset = "piecewise";
  frame.algo = "test_builder";
  frame.budget = 32;
  frame.synopsis = TestSynopsis();
  return frame;
}

TEST(SynopsisFrameTest, RoundTrip) {
  const std::string path = TestDir("roundtrip") + "/frame.dwms";
  const SynopsisFrame original = TestFrame();
  ASSERT_TRUE(SaveSynopsisFrame(path, original).ok());

  SynopsisFrame loaded;
  ASSERT_TRUE(LoadSynopsisFrame(path, &loaded).ok());
  EXPECT_EQ(loaded.version, kSynopsisFormatVersion);
  EXPECT_EQ(loaded.dataset, original.dataset);
  EXPECT_EQ(loaded.algo, original.algo);
  EXPECT_EQ(loaded.budget, original.budget);
  EXPECT_EQ(loaded.synopsis.domain_size(), original.synopsis.domain_size());
  EXPECT_EQ(loaded.synopsis.coefficients(),
            original.synopsis.coefficients());
}

TEST(SynopsisFrameTest, MissingFileIsIOError) {
  SynopsisFrame frame;
  const Status status =
      LoadSynopsisFrame(TestDir("missing") + "/nope.dwms", &frame);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST(SynopsisFrameTest, TruncatedFileIsRejected) {
  const std::string dir = TestDir("truncated");
  const std::string path = dir + "/frame.dwms";
  ASSERT_TRUE(SaveSynopsisFrame(path, TestFrame()).ok());
  const std::vector<uint8_t> bytes = ReadAll(path);
  // Every strict prefix must be rejected — the trailer no longer matches,
  // or the file is shorter than magic + trailer.
  for (const size_t keep :
       {size_t{0}, size_t{4}, size_t{15}, bytes.size() / 2,
        bytes.size() - 1}) {
    const std::string cut = dir + "/cut.dwms";
    WriteAll(cut, {bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    SynopsisFrame frame;
    frame.budget = -99;  // sentinel: must stay untouched on failure
    const Status status = LoadSynopsisFrame(cut, &frame);
    EXPECT_FALSE(status.ok()) << "keep=" << keep;
    EXPECT_EQ(frame.budget, -99) << "keep=" << keep;
  }
}

TEST(SynopsisFrameTest, BitFlipIsRejectedEverywhere) {
  const std::string dir = TestDir("bitflip");
  const std::string path = dir + "/frame.dwms";
  ASSERT_TRUE(SaveSynopsisFrame(path, TestFrame()).ok());
  const std::vector<uint8_t> bytes = ReadAll(path);
  for (size_t i = 0; i < bytes.size(); i += 7) {
    std::vector<uint8_t> flipped = bytes;
    flipped[i] ^= 0x40;
    const std::string bad = dir + "/bad.dwms";
    WriteAll(bad, flipped);
    SynopsisFrame frame;
    EXPECT_FALSE(LoadSynopsisFrame(bad, &frame).ok()) << "byte " << i;
  }
}

TEST(SynopsisFrameTest, VersionSkewIsRejected) {
  const std::string path = TestDir("skew") + "/frame.dwms";
  ASSERT_TRUE(SaveSynopsisFrame(path, TestFrame()).ok());
  std::vector<uint8_t> bytes = ReadAll(path);
  // The u32 version sits right after the 8-byte magic; bump it and re-seal
  // so the checksum passes and the loader exercises the version gate.
  const uint32_t future = kSynopsisFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &future, sizeof(future));
  Reseal(&bytes);
  WriteAll(path, bytes);
  SynopsisFrame frame;
  const Status status = LoadSynopsisFrame(path, &frame);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST(SynopsisFrameTest, InvalidCoefficientsAreRejectedNotTrusted) {
  // A checksummed, well-formed frame whose coefficients are duplicated:
  // the loader must reject it through Synopsis::Create, not abort.
  const std::string path = TestDir("dupes") + "/frame.dwms";
  SynopsisFrame frame = TestFrame();
  ASSERT_TRUE(SaveSynopsisFrame(path, frame).ok());
  std::vector<uint8_t> bytes = ReadAll(path);
  ASSERT_GE(frame.synopsis.size(), 2);
  // Coefficient pairs are the last size() * 16 bytes before the trailer;
  // copy pair 0's index over pair 1's.
  const size_t pairs =
      bytes.size() - sizeof(uint64_t) -
      static_cast<size_t>(frame.synopsis.size()) * 16;
  std::memcpy(bytes.data() + pairs + 16, bytes.data() + pairs, 8);
  Reseal(&bytes);
  WriteAll(path, bytes);
  SynopsisFrame loaded;
  const Status status = LoadSynopsisFrame(path, &loaded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
}

TEST(ShardRegistryTest, RegisterFindAndIdBump) {
  ShardRegistry registry;
  const ShardKey key{"ds", "algo", 16};
  const uint64_t id1 = registry.Register(key, TestSynopsis(64, 1));
  const Shard* shard = registry.Find(key);
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->id, id1);
  // Re-registering the same key replaces the shard under a NEW id, so an
  // id names exactly one registered version.
  const uint64_t id2 = registry.Register(key, TestSynopsis(64, 2));
  EXPECT_GT(id2, id1);
  EXPECT_EQ(registry.Find(key)->id, id2);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Find({"ds", "algo", 17}), nullptr);
}

TEST(ShardRegistryTest, RegisterFileUsesFrameProvenance) {
  const std::string dir = TestDir("registry");
  SynopsisFrame frame = TestFrame();
  ASSERT_TRUE(SaveSynopsisFrame(dir + "/f.dwms", frame).ok());

  ShardRegistry registry;
  ASSERT_TRUE(
      registry.RegisterFile(dir + "/f.dwms", {"fb", "fb_algo", 1}).ok());
  EXPECT_NE(registry.Find({"piecewise", "test_builder", 32}), nullptr);
  // A frame without provenance (as build writes it) takes the fallback key.
  SynopsisFrame bare;
  bare.synopsis = TestSynopsis();
  ASSERT_TRUE(SaveSynopsisFrame(dir + "/b.dwms", bare).ok());
  ASSERT_TRUE(
      registry.RegisterFile(dir + "/b.dwms", {"fb", "fb_algo", 0}).ok());
  const std::vector<ShardKey> keys = registry.Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].dataset, "fb");
  // A bad file must leave the registry unchanged.
  EXPECT_FALSE(
      registry.RegisterFile(dir + "/nope.dwms", {"x", "y", 0}).ok());
  EXPECT_EQ(registry.size(), 2u);
}

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() : scoped_(&registry_) {}

  metrics::Registry registry_;
  metrics::ScopedRegistry scoped_;
};

// dwm_serve_queries_by_type_total{type=<type>} in `registry`.
int64_t ByTypeCount(metrics::Registry& registry, const char* type) {
  return registry
      .GetCounter("dwm_serve_queries_by_type_total", "", {{"type", type}},
                  metrics::Stability::kStable)
      ->value();
}

// Bit pattern of a double: "bit-equal" also tells -0.0 from 0.0.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Every point, plus ranges of every shape (single leaf, aligned, straddling
// the root split, full domain), over a 64-leaf shard.
std::vector<Query> MixedQueries() {
  std::vector<Query> queries;
  for (int64_t j = 0; j < 64; ++j) {
    queries.push_back({QueryType::kPoint, j, j});
  }
  for (const auto& [lo, hi] : {std::pair<int64_t, int64_t>{3, 40},
                               {8, 15}, {0, 63}, {17, 17}, {31, 32}}) {
    queries.push_back({QueryType::kRangeSum, lo, hi});
    queries.push_back({QueryType::kRangeAvg, lo, hi});
  }
  return queries;
}

TEST_F(QueryEngineTest, AnswersMatchSynopsisQueries) {
  QueryEngine engine(EngineOptions{});
  const Synopsis synopsis = TestSynopsis(64, 11);
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, synopsis);

  const std::vector<Query> queries = MixedQueries();
  std::vector<double> results;
  ASSERT_TRUE(engine.AnswerBatch(key, queries, &results).ok());
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    double want = 0.0;
    switch (q.type) {
      case QueryType::kPoint:
        want = synopsis.PointEstimate(q.lo);
        break;
      case QueryType::kRangeSum:
        want = synopsis.RangeSum(q.lo, q.hi);
        break;
      case QueryType::kRangeAvg:
        want = synopsis.RangeSum(q.lo, q.hi) /
               static_cast<double>(q.hi - q.lo + 1);
        break;
    }
    EXPECT_EQ(Bits(results[i]), Bits(want))
        << "query " << i << " [" << q.lo << ", " << q.hi << "]";
  }
}

TEST_F(QueryEngineTest, ConcurrentBatchesMatchSingleThreadAnswers) {
  QueryEngine engine(EngineOptions{});
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 12));
  const std::vector<Query> queries = MixedQueries();
  std::vector<double> want;
  ASSERT_TRUE(engine.AnswerBatch(key, queries, &want).ok());

  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 200;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double> got;
      for (int b = 0; b < kBatchesPerThread; ++b) {
        if (!engine.AnswerBatch(key, queries, &got).ok()) {
          ++failures[static_cast<size_t>(t)];
          continue;
        }
        for (size_t i = 0; i < want.size(); ++i) {
          if (Bits(got[i]) != Bits(want[i])) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<size_t>(t)], 0) << "thread " << t;
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  const int64_t batches = 1 + kThreads * kBatchesPerThread;
  EXPECT_EQ(engine.Requests(), static_cast<uint64_t>(batches));
  const QueryEngine::TypeCounts counts = engine.QueryCounts();
  EXPECT_EQ(counts.points, 64 * batches);
  EXPECT_EQ(counts.points + counts.range_sums + counts.range_avgs,
            static_cast<int64_t>(queries.size()) * batches);
  EXPECT_EQ(ByTypeCount(registry_, "range_sum"), 5 * batches);
}

TEST_F(QueryEngineTest, RejectedBatchLeavesResultsUntouched) {
  QueryEngine engine(EngineOptions{});
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 13));
  std::vector<double> results = {123.0};
  // Unknown shard.
  EXPECT_EQ(engine.AnswerBatch({"no", "no", 0}, {{QueryType::kPoint, 0, 0}},
                               &results)
                .code(),
            StatusCode::kFailedPrecondition);
  // Out-of-domain point / inverted range — batch rejected wholesale even
  // though other entries are valid.
  for (const Query bad : {Query{QueryType::kPoint, 64, 64},
                          Query{QueryType::kPoint, -1, -1},
                          Query{QueryType::kRangeSum, 5, 3},
                          Query{QueryType::kRangeSum, 0, 64}}) {
    EXPECT_EQ(engine
                  .AnswerBatch(key, {{QueryType::kPoint, 1, 1}, bad},
                               &results)
                  .code(),
              StatusCode::kOutOfRange);
  }
  EXPECT_EQ(results, std::vector<double>({123.0}));
}

TEST_F(QueryEngineTest, ReRegisteringAShardAnswersFromTheNewSynopsis) {
  QueryEngine engine(EngineOptions{});
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 15));
  std::vector<double> stale;
  ASSERT_TRUE(
      engine.AnswerBatch(key, {{QueryType::kPoint, 0, 0}}, &stale).ok());
  // Replace the shard with a different synopsis under the same key: the
  // next answer must come from the new data.
  const Synopsis replacement = TestSynopsis(64, 16);
  engine.registry().Register(key, replacement);
  std::vector<double> fresh;
  ASSERT_TRUE(
      engine.AnswerBatch(key, {{QueryType::kPoint, 0, 0}}, &fresh).ok());
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(Bits(fresh[0]), Bits(replacement.PointEstimate(0)));
}

TEST_F(QueryEngineTest, SlowQueryThresholdZeroLogsEveryBatch) {
  EngineOptions options;
  options.slow_query_us = 0;  // every batch crosses the threshold
  QueryEngine engine(options);
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 21));
  log::ScopedCapture capture;
  std::vector<double> results;
  ASSERT_TRUE(engine
                  .AnswerBatch(key,
                               {{QueryType::kPoint, 1, 1},
                                {QueryType::kPoint, 9, 9},
                                {QueryType::kRangeSum, 0, 7}},
                               &results)
                  .ok());
  const std::string& text = capture.text();
  EXPECT_NE(text.find("\"event\":\"slow_query\""), std::string::npos);
  EXPECT_NE(text.find("\"queries\":3"), std::string::npos);
  EXPECT_NE(text.find("\"points\":2"), std::string::npos);
  EXPECT_NE(text.find("\"range_sums\":1"), std::string::npos);
  // Wall-clock-triggered, so the slow_query line itself must carry the
  // volatile marker: the stable projection drops exactly such lines.
  const size_t line_start = text.rfind('\n', text.find("\"slow_query\"")) + 1;
  const std::string line =
      text.substr(line_start, text.find('\n', line_start) - line_start);
  EXPECT_EQ(line.rfind("{\"lvl\":\"warn\",\"event\":\"slow_query\",", 0), 0u)
      << line;
  EXPECT_NE(line.find(",\"stable\":false,\"m\":{"), std::string::npos) << line;
}

TEST_F(QueryEngineTest, SlowQueryLogDisabledByDefault) {
  QueryEngine engine(EngineOptions{});  // slow_query_us = -1
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 22));
  log::ScopedCapture capture;
  std::vector<double> results;
  ASSERT_TRUE(
      engine.AnswerBatch(key, {{QueryType::kPoint, 0, 0}}, &results).ok());
  EXPECT_EQ(capture.text().find("slow_query"), std::string::npos);
}

TEST_F(QueryEngineTest, RejectionsEmitStructuredWarnings) {
  QueryEngine engine(EngineOptions{});
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 23));
  log::ScopedCapture capture;
  std::vector<double> results;
  EXPECT_FALSE(engine
                   .AnswerBatch({"no", "no", 0}, {{QueryType::kPoint, 0, 0}},
                                &results)
                   .ok());
  EXPECT_FALSE(
      engine.AnswerBatch(key, {{QueryType::kPoint, 64, 64}}, &results).ok());
  const std::string& text = capture.text();
  EXPECT_NE(text.find("\"reason\":\"unknown_shard\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"out_of_range\""), std::string::npos);
}

TEST_F(QueryEngineTest, CountsQueriesByTypeAndRequests) {
  QueryEngine engine(EngineOptions{});
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 24));
  std::vector<double> results;
  ASSERT_TRUE(engine
                  .AnswerBatch(key,
                               {{QueryType::kPoint, 0, 0},
                                {QueryType::kPoint, 1, 1},
                                {QueryType::kRangeSum, 0, 7},
                                {QueryType::kRangeAvg, 0, 3}},
                               &results)
                  .ok());
  // A rejected batch consumes a request id but tallies no queries.
  EXPECT_FALSE(engine
                   .AnswerBatch({"no", "no", 0}, {{QueryType::kPoint, 0, 0}},
                                &results)
                   .ok());
  const QueryEngine::TypeCounts counts = engine.QueryCounts();
  EXPECT_EQ(counts.points, 2);
  EXPECT_EQ(counts.range_sums, 1);
  EXPECT_EQ(counts.range_avgs, 1);
  EXPECT_EQ(engine.Requests(), 2u);
  EXPECT_EQ(ByTypeCount(registry_, "point"), 2);
  EXPECT_EQ(ByTypeCount(registry_, "range_sum"), 1);
  EXPECT_EQ(ByTypeCount(registry_, "range_avg"), 1);
  // Every query is counted once, by type: there is no separate total.
  EXPECT_EQ(registry_.PrometheusText().find("dwm_serve_queries_total"),
            std::string::npos);
}

TEST_F(QueryEngineTest, LatencyIsAttributedPerQueryType) {
  QueryEngine engine(EngineOptions{});
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 25));
  auto latency = [&](const char* type) {
    return registry_.GetHistogram("dwm_serve_latency_us", "",
                                  ServeLatencyBounds(), {{"type", type}},
                                  metrics::Stability::kMeasured);
  };
  // A points-only batch is one run, timed as the whole batch: its point
  // histogram and {type=all} see the same observations.
  std::vector<double> results;
  ASSERT_TRUE(engine
                  .AnswerBatch(key,
                               {{QueryType::kPoint, 0, 0},
                                {QueryType::kPoint, 5, 5},
                                {QueryType::kPoint, 9, 9}},
                               &results)
                  .ok());
  EXPECT_EQ(latency("point")->count(), 3);
  EXPECT_EQ(latency("point")->sum(), latency("all")->sum());
  EXPECT_EQ(latency("range_sum")->count(), 0);

  // Mixed batches: every query lands in its own type's histogram once, and
  // the per-type runs fit inside the batch turnaround.
  const std::vector<Query> queries = MixedQueries();
  for (int b = 0; b < 20; ++b) {
    ASSERT_TRUE(engine.AnswerBatch(key, queries, &results).ok());
  }
  const QueryEngine::TypeCounts counts = engine.QueryCounts();
  EXPECT_EQ(latency("point")->count(), counts.points);
  EXPECT_EQ(latency("range_sum")->count(), counts.range_sums);
  EXPECT_EQ(latency("range_avg")->count(), counts.range_avgs);
  EXPECT_EQ(latency("all")->count(),
            counts.points + counts.range_sums + counts.range_avgs);
  EXPECT_EQ(counts.range_sums, 20 * 5);
  EXPECT_LE(latency("point")->sum() + latency("range_sum")->sum() +
                latency("range_avg")->sum(),
            latency("all")->sum());
}

TEST_F(QueryEngineTest, AchievedErrorGaugeKeepsTheMaxNextToTheBound) {
  QueryEngine engine(EngineOptions{});
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 25), 10.0);
  engine.ObserveAchievedError(key, 2.5);
  engine.ObserveAchievedError(key, 1.0);            // below the max: kept out
  engine.ObserveAchievedError(key, std::nan(""));   // ignored
  engine.ObserveAchievedError({"no", "no", 0}, 99.0);  // unknown key: ignored
  const metrics::Labels labels = {
      {"dataset", "ds"}, {"algo", "a"}, {"budget", "8"}};
  EXPECT_DOUBLE_EQ(registry_
                       .GetGauge("dwm_serve_achieved_error", "", labels,
                                 metrics::Stability::kStable)
                       ->value(),
                   2.5);
  EXPECT_DOUBLE_EQ(registry_
                       .GetGauge("dwm_serve_error_bound", "", labels,
                                 metrics::Stability::kStable)
                       ->value(),
                   10.0);
}

TEST_F(QueryEngineTest, SlowQueryEnvOverrideParsesStrictly) {
  ASSERT_EQ(setenv("DWM_SLOW_QUERY_US", "250", 1), 0);
  EXPECT_EQ(EngineOptions::FromEnv().slow_query_us, 250);
  ASSERT_EQ(setenv("DWM_SLOW_QUERY_US", "0", 1), 0);
  EXPECT_EQ(EngineOptions::FromEnv().slow_query_us, 0);
  for (const char* bad : {"-5", " 5", "+5", "5us"}) {
    ASSERT_EQ(setenv("DWM_SLOW_QUERY_US", bad, 1), 0);
    // Default: disabled.
    EXPECT_EQ(EngineOptions::FromEnv().slow_query_us, -1) << "'" << bad << "'";
  }
  ASSERT_EQ(unsetenv("DWM_SLOW_QUERY_US"), 0);
  EXPECT_EQ(EngineOptions::FromEnv().slow_query_us, -1);
}

TEST_F(QueryEngineTest, TracerRecordsOneSpanTreePerRequest) {
  QueryEngine engine(EngineOptions{});
  const ShardKey key{"ds", "a", 8};
  engine.registry().Register(key, TestSynopsis(64, 26));
  engine.tracer().Enable();
  std::vector<double> results;
  ASSERT_TRUE(engine
                  .AnswerBatch(key,
                               {{QueryType::kPoint, 0, 0},
                                {QueryType::kRangeSum, 0, 7}},
                               &results)
                  .ok());
  ASSERT_TRUE(
      engine.AnswerBatch(key, {{QueryType::kPoint, 1, 1}}, &results).ok());
  engine.tracer().Disable();
  // Disabled collector: no further requests recorded.
  ASSERT_TRUE(
      engine.AnswerBatch(key, {{QueryType::kPoint, 2, 2}}, &results).ok());
  EXPECT_EQ(engine.tracer().size(), 2u);
  const mr::Trace trace = engine.tracer().Snapshot();
  int roots = 0;
  std::vector<std::string> phases;
  for (const mr::TraceSpan& span : trace.spans) {
    EXPECT_EQ(span.kind, mr::SpanKind::kServe);
    if (span.args_json.find("\"queries\"") != std::string::npos) {
      ++roots;
    } else {
      phases.push_back(span.name);
    }
  }
  EXPECT_EQ(roots, 2);
  EXPECT_EQ(phases, std::vector<std::string>({"req1/lookup", "req1/validate",
                                              "req1/answer", "req2/lookup",
                                              "req2/validate",
                                              "req2/answer"}));
}

}  // namespace
}  // namespace dwm::serve
