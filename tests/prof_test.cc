// Tests for the src/obs profiling layer: the per-thread CPU-time and
// page-fault readings, the Prof session gate and its per-span aggregation,
// memory accounting via /proc/self/status, and the contract that toggling
// Trace/Prof sessions MID-FIT — not just around a whole fit — leaves every
// computed number bit-identical.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/logic_lncl.h"
#include "crowd/simulator.h"
#include "data/sentiment_gen.h"
#include "models/text_cnn.h"
#include "obs/mem_stats.h"
#include "obs/metrics.h"
#include "obs/run_log.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace lncl {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Burns `ns` of the calling thread's CPU time. Gives up after 10 s of wall
// time, so a reading that never moves fails the caller's checks instead of
// hanging.
void BurnThreadCpu(uint64_t ns) {
  const obs::CounterValues start = obs::ReadThreadCounters();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  volatile double sink = 0.0;
  while ((obs::ReadThreadCounters() - start).task_clock_ns < ns &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
}

// ---------------------------------------------------------- counter values

TEST(CounterValuesTest, ArithmeticSaturates) {
  obs::CounterValues a;
  a.task_clock_ns = 1000;
  a.page_faults = 3;
  obs::CounterValues b;
  b.task_clock_ns = 400;
  b.page_faults = 5;  // larger than a's: difference must saturate

  obs::CounterValues sum = a;
  sum += b;
  EXPECT_EQ(sum.task_clock_ns, 1400u);
  EXPECT_EQ(sum.page_faults, 8u);

  const obs::CounterValues diff = a - b;
  EXPECT_EQ(diff.task_clock_ns, 600u);
  EXPECT_EQ(diff.page_faults, 0u);  // saturates, never wraps
}

TEST(CounterValuesTest, ThreadReadingIsMonotone) {
  const obs::CounterValues before = obs::ReadThreadCounters();
  BurnThreadCpu(1000000);
  const obs::CounterValues after = obs::ReadThreadCounters();
  EXPECT_GE(after.task_clock_ns, before.task_clock_ns + 1000000);
  // The main thread faulted in the program and its stack long before.
  EXPECT_GT(before.page_faults, 0u);
  EXPECT_GE(after.page_faults, before.page_faults);
}

// ------------------------------------------------------------ session gate

TEST(ProfTest, StartStopGateAndAggregation) {
  EXPECT_FALSE(obs::Prof::active());
  ASSERT_TRUE(obs::Prof::Start());
  EXPECT_TRUE(obs::Prof::active());
  EXPECT_FALSE(obs::Prof::Start());  // nested sessions refused

  obs::CounterValues delta;
  delta.task_clock_ns = 100;
  delta.page_faults = 50;
  obs::Prof::RecordSpan("unit_span", delta);
  obs::Prof::RecordSpan("unit_span", delta);

  ASSERT_TRUE(obs::Prof::Stop());
  EXPECT_FALSE(obs::Prof::active());
  EXPECT_FALSE(obs::Prof::Stop());  // double stop refused

  // Aggregates survive Stop so reporting happens after the measured region.
  const obs::Prof::SpanAgg agg = obs::Prof::SnapshotSpan("unit_span");
  EXPECT_EQ(agg.spans, 2u);
  EXPECT_EQ(agg.totals.task_clock_ns, 200u);
  EXPECT_EQ(agg.totals.page_faults, 100u);
  EXPECT_EQ(obs::Prof::SnapshotSpan("never_recorded").spans, 0u);

  const std::string path = TempPath("prof_test_session.json");
  ASSERT_TRUE(obs::Prof::WriteJson(path));
  const std::string text = ReadFile(path);
  EXPECT_NE(text.find("\"schema\": \"lncl.prof.v1\""), std::string::npos);
  EXPECT_NE(text.find("\"unit_span\": {\"spans\": 2, \"task_clock_ns\": 200, "
                      "\"page_faults\": 100}"),
            std::string::npos)
      << text;
  std::remove(path.c_str());

  // A new session clears the previous aggregates.
  ASSERT_TRUE(obs::Prof::Start());
  EXPECT_EQ(obs::Prof::SnapshotSpan("unit_span").spans, 0u);
  ASSERT_TRUE(obs::Prof::Stop());
}

TEST(ProfTest, SpansAttributeWhileActive) {
  ASSERT_TRUE(obs::Prof::Start());
  {
    LNCL_TRACE_SPAN("prof_attributed");
    BurnThreadCpu(1000000);
  }
  double accum = 0.0;
  { obs::PhaseSpan phase("prof_phase", &accum); }
  ASSERT_TRUE(obs::Prof::Stop());
  {
    LNCL_TRACE_SPAN("prof_after_stop");  // must not be attributed
  }
  EXPECT_EQ(obs::Prof::SnapshotSpan("prof_attributed").spans, 1u);
  EXPECT_EQ(obs::Prof::SnapshotSpan("prof_phase").spans, 1u);
  EXPECT_EQ(obs::Prof::SnapshotSpan("prof_after_stop").spans, 0u);
  EXPECT_GT(accum, 0.0);
  EXPECT_GT(obs::Prof::SnapshotSpan("prof_attributed").totals.task_clock_ns,
            0u);
}

// A span reads its own thread's accounting. The waiter's span covers a
// worker that burns 50 ms of CPU in its own span, yet the waiter only
// blocks in join(); a process-wide reading would put the worker's time on
// the waiter too.
TEST(ProfTest, SpansAttributeTheirOwnThread) {
  constexpr uint64_t kBurnNs = 50000000;
  ASSERT_TRUE(obs::Prof::Start());
  {
    LNCL_TRACE_SPAN("prof_waiter");
    std::thread worker([&] {
      LNCL_TRACE_SPAN("prof_worker");
      BurnThreadCpu(kBurnNs);
    });
    worker.join();
  }
  ASSERT_TRUE(obs::Prof::Stop());
  EXPECT_GE(obs::Prof::SnapshotSpan("prof_worker").totals.task_clock_ns,
            kBurnNs);
  EXPECT_LT(obs::Prof::SnapshotSpan("prof_waiter").totals.task_clock_ns,
            kBurnNs / 2);
}

// ---------------------------------------------------------- memory stats

TEST(MemStatsTest, ReadSelfStatusIsSane) {
  const obs::MemSample sample = obs::ReadSelfStatus();
  ASSERT_TRUE(sample.ok);
  EXPECT_GT(sample.vm_rss_kb, 0);
  // The high-water mark can never sit below the current resident set.
  EXPECT_GE(sample.vm_hwm_kb, sample.vm_rss_kb);
}

TEST(MemStatsTest, HwmTracksAllocation) {
  const obs::MemSample before = obs::ReadSelfStatus();
  ASSERT_TRUE(before.ok);
  // Touch ~32 MiB so the resident high-water must move past it.
  std::vector<char> block(32u << 20);
  for (size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
  const obs::MemSample after = obs::ReadSelfStatus();
  ASSERT_TRUE(after.ok);
  EXPECT_GE(after.vm_hwm_kb, before.vm_hwm_kb);
  EXPECT_GE(after.vm_hwm_kb, static_cast<int64_t>(block.size() >> 10));
}

TEST(MemStatsTest, SampleExportsGauges) {
  obs::Metrics::Enable(true);
  obs::Metrics::Reset();
  obs::SampleMemStatsToMetrics();
  const std::string snapshot = obs::Metrics::SnapshotJson();
  obs::Metrics::Enable(false);
  EXPECT_NE(snapshot.find("\"mem.vm_rss_kb\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"mem.vm_hwm_kb\""), std::string::npos);
}

TEST(MemStatsTest, HostFingerprintShape) {
  const std::string fp = obs::HostFingerprint();
  ASSERT_FALSE(fp.empty());
  // "<hostname>/<cpu-model>/<N>t" — two separators, thread-count suffix.
  const size_t first = fp.find('/');
  const size_t last = fp.rfind('/');
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, first);
  EXPECT_EQ(fp.back(), 't');
  EXPECT_EQ(fp, obs::HostFingerprint());  // stable within a process
}

// ------------------------------------- sessions toggled mid-fit ⊥ results

// Flips Trace and Prof sessions on and off BETWEEN EPOCHS, from inside the
// fit's observer callback. This is the nastiest client the span hooks have:
// spans open under an active session can close after Stop() (the epoch span
// wraps the observer call), and vice versa. The contract stays absolute —
// the fit's numbers must not move by a bit.
class MidFitToggleObserver : public obs::RunObserver {
 public:
  explicit MidFitToggleObserver(std::string trace_stem)
      : trace_stem_(std::move(trace_stem)) {}

  void OnEpoch(const obs::EpochRecord& record) override {
    if (record.epoch % 2 == 0) {
      trace_paths_.push_back(trace_stem_ + std::to_string(record.epoch) +
                             ".json");
      obs::Trace::Start(trace_paths_.back());
      obs::Prof::Start();
    } else {
      obs::Trace::Stop();
      obs::Prof::Stop();
    }
  }
  void OnFitEnd(const obs::FitSummary&) override {
    obs::Trace::Stop();  // no-op when the last toggle already stopped it
    obs::Prof::Stop();
  }

  const std::vector<std::string>& trace_paths() const { return trace_paths_; }

 private:
  std::string trace_stem_;
  std::vector<std::string> trace_paths_;
};

class MidFitToggleTest : public testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(77);
    data::SentimentGenConfig gcfg;
    corpus_ = data::GenerateSentimentCorpus(gcfg, 160, 48, 48, &rng);
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 10;
    auto sim = crowd::CrowdSimulator::MakeClassification(ccfg, 2, &rng);
    annotations_ = std::make_unique<crowd::AnnotationSet>(
        sim.Annotate(corpus_.train, &rng));
    models::TextCnnConfig mcfg;
    mcfg.feature_maps = 8;
    factory_ = models::TextCnn::Factory(mcfg, corpus_.embeddings);
  }

  core::LogicLnclResult Run(obs::RunObserver* observer) const {
    core::LogicLnclConfig config;
    config.epochs = 4;
    config.batch_size = 32;
    config.patience = 4;
    config.k_schedule = core::SentimentKSchedule();
    config.optimizer.kind = "adadelta";
    config.optimizer.lr = 1.0;
    config.threads = 2;
    config.run_observer = observer;
    util::Rng rng(1);
    core::LogicLncl learner(config, factory_, nullptr);
    return learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  }

  data::SentimentCorpus corpus_;
  std::unique_ptr<crowd::AnnotationSet> annotations_;
  models::ModelFactory factory_;
};

TEST_F(MidFitToggleTest, TogglingSessionsMidFitIsBitIdentical) {
  const core::LogicLnclResult plain = Run(nullptr);

  MidFitToggleObserver observer(TempPath("prof_test_midfit_trace_"));
  const core::LogicLnclResult toggled = Run(&observer);

  ASSERT_EQ(plain.loss_curve.size(), toggled.loss_curve.size());
  for (size_t i = 0; i < plain.loss_curve.size(); ++i) {
    EXPECT_EQ(plain.loss_curve[i], toggled.loss_curve[i]) << "epoch " << i;
  }
  ASSERT_EQ(plain.dev_curve.size(), toggled.dev_curve.size());
  for (size_t i = 0; i < plain.dev_curve.size(); ++i) {
    EXPECT_EQ(plain.dev_curve[i], toggled.dev_curve[i]) << "epoch " << i;
  }
  EXPECT_EQ(plain.best_epoch, toggled.best_epoch);
  EXPECT_EQ(plain.best_dev_score, toggled.best_dev_score);
  EXPECT_EQ(plain.early_stopped, toggled.early_stopped);

  // Epochs 0 and 2 each started a session; both files must exist (the
  // second epoch's Stop flushed the first, OnFitEnd the second).
  ASSERT_GE(observer.trace_paths().size(), 1u);
  for (const std::string& path : observer.trace_paths()) {
    const std::string text = ReadFile(path);
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos) << path;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace lncl
