// Tests for the src/obs telemetry subsystem: deterministic metric merges
// under varying thread counts, histogram bucket-edge semantics, trace-event
// JSON well-formedness (parsed back with a minimal validator), the run-log
// JSONL golden schema, and the core guarantee that attaching telemetry to a
// Fit does not perturb a single bit of its results.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/logic_lncl.h"
#include "crowd/simulator.h"
#include "data/sentiment_gen.h"
#include "models/text_cnn.h"
#include "obs/metrics.h"
#include "obs/run_log.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace lncl {
namespace {

// ----------------------------------------------------- minimal JSON checker
//
// Syntax-only recursive-descent validator (objects, arrays, strings,
// numbers, true/false/null). Enough to assert that the trace files and run
// logs we emit are real JSON, without pulling in a parser dependency.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return at_ == s_.size();
  }

 private:
  bool Value() {
    if (at_ >= s_.size()) return false;
    switch (s_[at_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++at_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++at_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++at_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++at_;
        continue;
      }
      if (Peek() == '}') return ++at_, true;
      return false;
    }
  }

  bool Array() {
    ++at_;  // '['
    SkipWs();
    if (Peek() == ']') return ++at_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++at_;
        continue;
      }
      if (Peek() == ']') return ++at_, true;
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++at_;
    while (at_ < s_.size() && s_[at_] != '"') {
      if (s_[at_] == '\\') {
        ++at_;
        if (at_ >= s_.size()) return false;
      }
      ++at_;
    }
    if (at_ >= s_.size()) return false;
    ++at_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = at_;
    if (Peek() == '-') ++at_;
    while (at_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[at_])) ||
            s_[at_] == '.' || s_[at_] == 'e' || s_[at_] == 'E' ||
            s_[at_] == '+' || s_[at_] == '-')) {
      ++at_;
    }
    return at_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::strlen(word);
    if (s_.compare(at_, len, word) != 0) return false;
    at_ += len;
    return true;
  }

  char Peek() const { return at_ < s_.size() ? s_[at_] : '\0'; }
  void SkipWs() {
    while (at_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[at_]))) {
      ++at_;
    }
  }

  const std::string& s_;
  size_t at_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// -------------------------------------------------------- metrics registry

// The same logical work (integer observations only) must produce the same
// snapshot JSON for every thread count: shard assignment varies with
// scheduling, but integer adds commute and snapshots merge shards in fixed
// slot order.
TEST(MetricsTest, MergeDeterministicAcrossThreadCounts) {
  obs::Metrics::Enable(true);
  std::vector<std::string> snapshots;
  for (int threads : {1, 2, 8}) {
    obs::Metrics::Reset();
    util::Parallelizer exec(threads);
    exec.RunSlots(util::Parallelizer::kSlots, [](int slot) {
      obs::Counter* c = obs::Metrics::GetCounter("test.merge.counter");
      obs::Gauge* g = obs::Metrics::GetGauge("test.merge.gauge");
      obs::Histogram* h =
          obs::Metrics::GetHistogram("test.merge.histo", {1, 2, 4, 8});
      for (int i = 0; i < 1000; ++i) {
        c->Add(static_cast<uint64_t>(slot) + 1);
        g->Update(slot * 10 + (i % 7));
        h->Observe(static_cast<double>((slot + i) % 10));
      }
    });
    snapshots.push_back(obs::Metrics::SnapshotJson());
  }
  obs::Metrics::Enable(false);
  ASSERT_EQ(snapshots.size(), 3u);
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
  EXPECT_TRUE(JsonChecker(snapshots[0]).Valid()) << snapshots[0];
  // Slot s contributes 1000 * (s + 1); sum over 8 slots = 1000 * 36.
  EXPECT_EQ(obs::Metrics::GetCounter("test.merge.counter")->Total(), 36000u);
  EXPECT_EQ(obs::Metrics::GetGauge("test.merge.gauge")->Value(), 76);
}

TEST(MetricsTest, DisabledIsNullSink) {
  obs::Metrics::Enable(false);
  obs::Counter* c = obs::Metrics::GetCounter("test.nullsink.counter");
  // The flag gates call sites, not the metric objects themselves: direct
  // Add still records (instrumentation sites check Metrics::enabled()).
  EXPECT_FALSE(obs::Metrics::enabled());
  const uint64_t before = c->Total();
  if (obs::Metrics::enabled()) c->Increment();  // the instrumentation idiom
  EXPECT_EQ(c->Total(), before);
}

TEST(MetricsTest, HistogramBucketEdges) {
  obs::Metrics::Enable(true);
  obs::Histogram* h =
      obs::Metrics::GetHistogram("test.edges.histo", {1, 2, 4, 8});
  // Edge semantics: bucket i counts v <= edges[i] (first match); overflow
  // counts v > 8.
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 8.0, 9.0, 100.0}) {
    h->Observe(v);
  }
  const std::vector<uint64_t> counts = h->BucketCounts();
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(counts[2], 2u);  // 3.0, 4.0
  EXPECT_EQ(counts[3], 2u);  // 7.0, 8.0
  EXPECT_EQ(counts[4], 2u);  // 9.0, 100.0 (overflow)
  EXPECT_EQ(h->TotalCount(), 10u);
  obs::Metrics::Enable(false);
}

TEST(MetricsTest, HistogramKeepsFirstRegistrationEdges) {
  obs::Metrics::Enable(true);
  obs::Histogram* a =
      obs::Metrics::GetHistogram("test.firstedges.histo", {1, 2});
  obs::Histogram* b =
      obs::Metrics::GetHistogram("test.firstedges.histo", {10, 20, 30});
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->edges(), (std::vector<double>{1, 2}));
  obs::Metrics::Enable(false);
}

TEST(MetricsTest, GaugeHighWaterAcrossThreads) {
  obs::Metrics::Enable(true);
  obs::Gauge* g = obs::Metrics::GetGauge("test.highwater.gauge");
  util::Parallelizer exec(4);
  exec.RunSlots(util::Parallelizer::kSlots, [&](int slot) {
    g->Update(slot);      // rises to the slot index...
    g->Update(slot / 2);  // ...and never goes back down
  });
  EXPECT_EQ(g->Value(), util::Parallelizer::kSlots - 1);
  obs::Metrics::Enable(false);
}

TEST(MetricsTest, CounterTotalsSortedByName) {
  obs::Metrics::Enable(true);
  obs::Metrics::GetCounter("test.sorted.zzz")->Increment();
  obs::Metrics::GetCounter("test.sorted.aaa")->Increment();
  const auto totals = obs::Metrics::CounterTotals();
  for (size_t i = 1; i < totals.size(); ++i) {
    EXPECT_LT(totals[i - 1].first, totals[i].first);
  }
  obs::Metrics::Enable(false);
}

// ------------------------------------------------------------ trace events

TEST(TraceTest, EmitsWellFormedChromeTraceJson) {
  const std::string path = TempPath("obs_trace_test.json");
  ASSERT_TRUE(obs::Trace::Start(path));
  {
    LNCL_TRACE_SPAN("outer");
    util::Parallelizer exec(4);
    exec.RunSlots(util::Parallelizer::kSlots, [](int slot) {
      LNCL_TRACE_SPAN_ARG("slot_work", "slot", slot);
      volatile double sink = 0.0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    });
  }
  double accum = 0.0;
  { obs::PhaseSpan phase("phase_under_trace", &accum); }
  obs::Trace::Stop();
  EXPECT_GT(accum, 0.0);

  const std::string text = ReadFile(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonChecker(text).Valid()) << text.substr(0, 400);
  // Chrome trace-event envelope and our span names.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"M\""), std::string::npos);  // thread names
  EXPECT_NE(text.find("\"outer\""), std::string::npos);
  EXPECT_NE(text.find("\"slot_work\""), std::string::npos);
  EXPECT_NE(text.find("\"phase_under_trace\""), std::string::npos);
  EXPECT_NE(text.find("\"slot\""), std::string::npos);  // span args survive
  std::remove(path.c_str());
}

TEST(TraceTest, InactiveTraceRecordsNothing) {
  EXPECT_FALSE(obs::Trace::active());
  LNCL_TRACE_SPAN("never_recorded");  // must be a safe no-op
  double accum = 0.0;
  { obs::PhaseSpan phase("still_times", &accum); }
  EXPECT_GT(accum, 0.0);  // PhaseSpan timing works without a trace session
}

// ---------------------------------------------------------------- run logs

TEST(RunLogTest, JsonlGoldenSchema) {
  const std::string path = TempPath("obs_runlog_test.jsonl");
  {
    obs::JsonlRunLogger logger(path, "unit/test");
    ASSERT_TRUE(logger.ok());
    obs::EpochRecord rec;
    rec.epoch = 3;
    rec.k = 0.25;
    rec.loss = 1.5;
    rec.dev_score = 0.75;
    rec.is_best = true;
    rec.mean_kl_qa_qb = 0.125;
    rec.rule_satisfaction = 0.875;
    rec.projected_items = 42;
    rec.confusion_diag_mass = 0.7;
    rec.confusion_drift = 0.01;
    rec.m_step_seconds = 0.5;
    rec.confusion_seconds = 0.125;
    rec.e_step_seconds = 0.25;
    rec.dev_eval_seconds = 0.0625;
    rec.e_step_instances_per_second = 1000.0;
    rec.metric_deltas = {{"gemm.calls", 7}, {"optimizer.steps", 3}};
    logger.OnEpoch(rec);
    obs::FitSummary summary;
    summary.best_epoch = 3;
    summary.epochs_run = 5;
    summary.early_stopped = true;
    summary.best_dev_score = 0.75;
    logger.OnFitEnd(summary);
  }

  std::ifstream is(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);

  // Golden schema: every record carries the envelope; epoch records carry
  // the full diagnostic set. Renaming a key is a schema break — update the
  // consumers (tools/prof_report.py, scripts/check.sh) with this test.
  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
    EXPECT_NE(line.find("\"schema\": \"lncl.em_run.v1\""), std::string::npos);
    EXPECT_NE(line.find("\"run\": \"unit/test\""), std::string::npos);
  }
  const std::string& epoch_line = lines[0];
  EXPECT_NE(epoch_line.find("\"record\": \"epoch\""), std::string::npos);
  for (const char* key :
       {"\"epoch\"", "\"k\"", "\"loss\"", "\"dev_score\"", "\"is_best\"",
        "\"mean_kl_qa_qb\"", "\"rule_satisfaction\"", "\"projected_items\"",
        "\"confusion_diag_mass\"", "\"confusion_drift\"",
        "\"phase_seconds\"", "\"m_step\"", "\"confusion\"", "\"e_step\"",
        "\"dev_eval\"", "\"e_step_instances_per_second\"",
        "\"metric_deltas\"", "\"gemm.calls\""}) {
    EXPECT_NE(epoch_line.find(key), std::string::npos)
        << "epoch record missing " << key << ": " << epoch_line;
  }
  const std::string& end_line = lines[1];
  EXPECT_NE(end_line.find("\"record\": \"fit_end\""), std::string::npos);
  for (const char* key : {"\"best_epoch\"", "\"epochs_run\"",
                          "\"early_stopped\"", "\"best_dev_score\""}) {
    EXPECT_NE(end_line.find(key), std::string::npos)
        << "fit_end record missing " << key << ": " << end_line;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- telemetry ⊥ fit results

// Collects records in memory (and sanity-checks invariants as they stream).
class RecordingObserver : public obs::RunObserver {
 public:
  void OnEpoch(const obs::EpochRecord& record) override {
    records.push_back(record);
  }
  void OnFitEnd(const obs::FitSummary& summary) override {
    summaries.push_back(summary);
  }
  std::vector<obs::EpochRecord> records;
  std::vector<obs::FitSummary> summaries;
};

class TelemetryFitTest : public testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(77);
    data::SentimentGenConfig gcfg;
    corpus_ = data::GenerateSentimentCorpus(gcfg, 200, 60, 60, &rng);
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 15;
    auto sim = crowd::CrowdSimulator::MakeClassification(ccfg, 2, &rng);
    annotations_ = std::make_unique<crowd::AnnotationSet>(
        sim.Annotate(corpus_.train, &rng));
    models::TextCnnConfig mcfg;
    mcfg.feature_maps = 8;
    factory_ = models::TextCnn::Factory(mcfg, corpus_.embeddings);
  }

  struct Snapshot {
    core::LogicLnclResult result;
    std::vector<std::vector<float>> params;
  };

  Snapshot Run(obs::RunObserver* observer) const {
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
    Snapshot snap;
    snap.result = learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
    for (nn::Parameter* p : learner.model()->Params()) {
      snap.params.emplace_back(p->value.data(),
                               p->value.data() + p->value.size());
    }
    return snap;
  }

  data::SentimentCorpus corpus_;
  std::unique_ptr<crowd::AnnotationSet> annotations_;
  models::ModelFactory factory_;
};

TEST_F(TelemetryFitTest, FullTelemetryDoesNotPerturbFit) {
  const Snapshot plain = Run(nullptr);

  obs::Metrics::Enable(true);
  obs::Metrics::Reset();
  RecordingObserver observer;
  const std::string trace_path = TempPath("obs_fit_trace.json");
  ASSERT_TRUE(obs::Trace::Start(trace_path));
  const Snapshot instrumented = Run(&observer);
  obs::Trace::Stop();
  const std::string trace = ReadFile(trace_path);
  EXPECT_TRUE(JsonChecker(trace).Valid());
  EXPECT_NE(trace.find("\"e_step_shard\""), std::string::npos);
  EXPECT_NE(trace.find("\"m_step\""), std::string::npos);
  std::remove(trace_path.c_str());
  obs::Metrics::Enable(false);

  // Bit-identity: exact double/float equality, not closeness.
  ASSERT_EQ(plain.result.loss_curve.size(),
            instrumented.result.loss_curve.size());
  for (size_t i = 0; i < plain.result.loss_curve.size(); ++i) {
    EXPECT_EQ(plain.result.loss_curve[i], instrumented.result.loss_curve[i]);
  }
  ASSERT_EQ(plain.result.dev_curve.size(),
            instrumented.result.dev_curve.size());
  for (size_t i = 0; i < plain.result.dev_curve.size(); ++i) {
    EXPECT_EQ(plain.result.dev_curve[i], instrumented.result.dev_curve[i]);
  }
  EXPECT_EQ(plain.result.best_epoch, instrumented.result.best_epoch);
  EXPECT_EQ(plain.result.best_dev_score, instrumented.result.best_dev_score);
  EXPECT_EQ(plain.result.early_stopped, instrumented.result.early_stopped);
  ASSERT_EQ(plain.params.size(), instrumented.params.size());
  for (size_t i = 0; i < plain.params.size(); ++i) {
    ASSERT_EQ(plain.params[i].size(), instrumented.params[i].size());
    EXPECT_EQ(std::memcmp(plain.params[i].data(),
                          instrumented.params[i].data(),
                          plain.params[i].size() * sizeof(float)),
              0)
        << "parameter " << i << " differs under telemetry";
  }

  // The observer saw one record per epoch run plus one summary, and the
  // records mirror the result curves exactly.
  ASSERT_EQ(observer.records.size(),
            static_cast<size_t>(instrumented.result.epochs_run));
  ASSERT_EQ(observer.summaries.size(), 1u);
  for (size_t i = 0; i < observer.records.size(); ++i) {
    const obs::EpochRecord& rec = observer.records[i];
    EXPECT_EQ(rec.epoch, static_cast<int>(i));
    EXPECT_EQ(rec.loss, instrumented.result.loss_curve[i]);
    EXPECT_EQ(rec.dev_score, instrumented.result.dev_curve[i]);
    EXPECT_GE(rec.rule_satisfaction, 0.0);
    EXPECT_LE(rec.rule_satisfaction, 1.0);
    // No projector attached in this fit: nothing was projected.
    EXPECT_EQ(rec.projected_items, 0);
    EXPECT_GT(rec.confusion_diag_mass, 0.0);
    // Metrics were enabled, so per-epoch counter deltas are attached.
    EXPECT_FALSE(rec.metric_deltas.empty());
  }
  EXPECT_EQ(observer.summaries[0].best_epoch, instrumented.result.best_epoch);
  EXPECT_EQ(observer.summaries[0].epochs_run, instrumented.result.epochs_run);
  EXPECT_EQ(observer.summaries[0].early_stopped,
            instrumented.result.early_stopped);
}

TEST_F(TelemetryFitTest, EarlyStoppedFlagDistinguishesRestoredBest) {
  // patience 1 with several epochs: the run should stop before the epoch
  // budget, and the result must say so while best_epoch stays the restored
  // (not the last) epoch.
  core::LogicLnclConfig config;
  config.epochs = 12;
  config.batch_size = 32;
  config.patience = 1;
  config.k_schedule = core::SentimentKSchedule();
  config.optimizer.kind = "adadelta";
  config.optimizer.lr = 1.0;
  util::Rng rng(5);
  core::LogicLncl learner(config, factory_, nullptr);
  const core::LogicLnclResult res =
      learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  EXPECT_EQ(res.early_stopped, res.epochs_run < config.epochs);
  EXPECT_EQ(static_cast<size_t>(res.epochs_run), res.dev_curve.size());
  EXPECT_EQ(static_cast<size_t>(res.epochs_run), res.loss_curve.size());
  ASSERT_GE(res.best_epoch, 0);
  EXPECT_LT(res.best_epoch, res.epochs_run);
  if (res.early_stopped) {
    // The early-stopped tail: the best epoch is strictly before the last
    // epoch run, and the curves retain the non-improving tail.
    EXPECT_LT(res.best_epoch, res.epochs_run - 1);
  }
  EXPECT_EQ(res.best_dev_score, res.dev_curve[res.best_epoch]);
}

}  // namespace
}  // namespace lncl
