#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "crowd/simulator.h"
#include "data/bio.h"
#include "data/ner_gen.h"
#include "data/sentiment_gen.h"
#include "eval/metrics.h"
#include "inference/bsc_seq.h"
#include "inference/catd.h"
#include "inference/dawid_skene.h"
#include "inference/glad.h"
#include "inference/hmm_crowd.h"
#include "inference/ibcc.h"
#include "inference/majority_vote.h"
#include "inference/pm.h"
#include "inference/truth_inference.h"
#include "util/chain.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace lncl::inference {
namespace {

using util::ChainForwardBackward;
using util::Rng;

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

// 64-bit FNV-1a over the shape and raw float bytes of `m`, continuing `h`.
uint64_t HashMatrix(const util::Matrix& m, uint64_t h = kFnvOffset) {
  const auto mix = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  const int shape[2] = {m.rows(), m.cols()};
  mix(shape, sizeof(shape));
  mix(m.data(), m.size() * sizeof(float));
  return h;
}

uint64_t HashMatrices(const std::vector<util::Matrix>& ms) {
  uint64_t h = kFnvOffset;
  for (const util::Matrix& m : ms) h = HashMatrix(m, h);
  return h;
}

// The ner_aggregate benchmark workload's aggregator options: a fixed
// number of EM iterations (a negative tolerance never converges early).
constexpr DawidSkene::Options kDsFixed = {
    .max_iters = 5, .tol = -1.0, .smoothing = 1e-2};
constexpr Ibcc::Options kIbccFixed = {
    .diag_pseudo = 2.0, .smoothing = 0.5, .max_iters = 4};
constexpr BscSeq::Options kBscFixed = {.max_iters = 10,
                                       .confusion_pseudo = 0.3,
                                       .diag_pseudo = 1.0,
                                       .transition_pseudo = 0.2,
                                       .tol = -1.0};
constexpr HmmCrowd::Options kHmmFixed = {
    .max_iters = 5, .smoothing = 0.1, .tol = -1.0};

// The EM cores that run on a Parallelizer (DS and IBCC through
// DawidSkene::Run, HMM-Crowd and BSC-seq through RunSequenceEm), at their
// default settings, give the same bits at 1, 2, 3 and 4 workers. Explicit
// worker counts, so a sanitizer sees real concurrency on any host.
void ExpectSameBitsAtEveryWorkerCount(const crowd::AnnotationSet& ann,
                                      const std::vector<int>& items) {
  const ItemView view = FlattenItems(ann, items);
  const Ibcc::Options ibcc;
  const DawidSkene ds;
  const DawidSkene ibcc_core(
      {.max_iters = ibcc.max_iters, .smoothing = ibcc.smoothing});
  std::vector<uint64_t> reference;
  for (int workers = 1; workers <= 4; ++workers) {
    util::Parallelizer exec(workers);
    const std::vector<uint64_t> hashes = {
        HashMatrix(ds.Run(view, 0.0, nullptr, &exec)),
        HashMatrix(ibcc_core.Run(view, ibcc.diag_pseudo, nullptr, &exec)),
        HashMatrices(RunSequenceEm(ann, items, HmmCrowd().model(), &exec)),
        HashMatrices(RunSequenceEm(ann, items, BscSeq().model(), &exec)),
    };
    if (workers == 1) {
      reference = hashes;
    } else {
      EXPECT_EQ(hashes, reference) << workers << " workers";
    }
  }
}

// Threads of this process, or -1 where /proc/self/task is absent.
int ProcessThreads() {
  std::error_code error;
  const std::filesystem::directory_iterator tasks("/proc/self/task", error);
  if (error) return -1;
  return static_cast<int>(
      std::distance(tasks, std::filesystem::directory_iterator()));
}

// Every posterior has `items_per_instance[i]` rows of K finite
// probabilities summing to one.
void ExpectValidPosteriors(const std::vector<util::Matrix>& q,
                           const std::vector<int>& items_per_instance,
                           int k, const std::string& label) {
  ASSERT_EQ(q.size(), items_per_instance.size()) << label;
  for (size_t i = 0; i < q.size(); ++i) {
    ASSERT_EQ(q[i].rows(), items_per_instance[i]) << label << " instance " << i;
    ASSERT_EQ(q[i].cols(), k) << label << " instance " << i;
    for (int t = 0; t < q[i].rows(); ++t) {
      double sum = 0.0;
      for (int c = 0; c < k; ++c) {
        const float v = q[i](t, c);
        EXPECT_TRUE(std::isfinite(v)) << label << " (" << i << ", " << t << ")";
        EXPECT_GE(v, 0.0f) << label;
        sum += v;
      }
      EXPECT_NEAR(sum, 1.0, 1e-5) << label << " (" << i << ", " << t << ")";
    }
  }
}

// Shared fixture: a classification corpus with a simulated crowd.
class ClassificationInferenceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(123);
    data::SentimentGenConfig gcfg;
    corpus_ = new data::SentimentCorpus(
        data::GenerateSentimentCorpus(gcfg, 600, 50, 50, rng_));
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 40;
    sim_ = new crowd::CrowdSimulator(
        crowd::CrowdSimulator::MakeClassification(ccfg, 2, rng_));
    annotations_ = new crowd::AnnotationSet(
        sim_->Annotate(corpus_->train, rng_));
    items_ = new std::vector<int>(ItemsPerInstance(corpus_->train));
  }
  static void TearDownTestSuite() {
    delete items_;
    delete annotations_;
    delete sim_;
    delete corpus_;
    delete rng_;
  }

  static double RunAccuracy(const TruthInference& method) {
    Rng rng(7);
    const auto posteriors = method.Infer(*annotations_, *items_, &rng);
    return eval::PosteriorAccuracy(posteriors, corpus_->train);
  }

  static Rng* rng_;
  static data::SentimentCorpus* corpus_;
  static crowd::CrowdSimulator* sim_;
  static crowd::AnnotationSet* annotations_;
  static std::vector<int>* items_;
};

Rng* ClassificationInferenceTest::rng_ = nullptr;
data::SentimentCorpus* ClassificationInferenceTest::corpus_ = nullptr;
crowd::CrowdSimulator* ClassificationInferenceTest::sim_ = nullptr;
crowd::AnnotationSet* ClassificationInferenceTest::annotations_ = nullptr;
std::vector<int>* ClassificationInferenceTest::items_ = nullptr;

TEST_F(ClassificationInferenceTest, FlattenRoundTrip) {
  const ItemView view = FlattenItems(*annotations_, *items_);
  EXPECT_EQ(view.num_items(), corpus_->train.size());
  EXPECT_EQ(view.num_classes, 2);
  EXPECT_EQ(static_cast<long>(view.labels.size()),
            annotations_->TotalAnnotations());
  for (int i = 0; i < annotations_->num_instances(); ++i) {
    const auto& entries = annotations_->instance(i).entries;
    ASSERT_EQ(view.item(i).size(), entries.size());
    for (size_t p = 0; p < entries.size(); ++p) {
      EXPECT_EQ(view.item(i)[p].first, entries[p].annotator);
      EXPECT_EQ(view.item(i)[p].second, entries[p].labels[0]);
    }
  }
}

// A sequence view lists each token's labels in entry order, so entry p's
// label at token t sits at label_begin[begin[i]] + t * entries + p.
TEST(ItemViewTest, SequenceLabelsAreTokenMajorInEntryOrder) {
  crowd::AnnotationSet ann(3, 3, 4);
  ann.instance(0).entries.push_back({2, {0, 1, 2}});
  ann.instance(0).entries.push_back({0, {3, 3, 0}});
  ann.instance(1).entries.push_back({1, {}});
  ann.instance(2).entries.push_back({1, {2, 1}});
  const ItemView view = FlattenItems(ann, {3, 0, 2});
  EXPECT_EQ(view.begin, (std::vector<int>{0, 3, 3, 5}));
  EXPECT_EQ(view.label_begin, (std::vector<int>{0, 2, 4, 6, 7, 8}));
  const std::vector<std::pair<int, int>> labels = {
      {2, 0}, {0, 3}, {2, 1}, {0, 3}, {2, 2}, {0, 0}, {1, 2}, {1, 1}};
  EXPECT_EQ(view.labels, labels);
  const std::vector<util::Matrix> mv =
      UnflattenPosteriors(view, MajorityVotePosteriors(view));
  const std::vector<util::Matrix> expected = ann.MajorityVote({3, 0, 2});
  ASSERT_EQ(mv.size(), expected.size());
  for (size_t i = 0; i < mv.size(); ++i) {
    EXPECT_EQ(HashMatrix(mv[i]), HashMatrix(expected[i])) << i;
  }
}

// A crowd whose entries do not match its corpus's item counts is refused
// with a message naming the instance, by every aggregator, before any
// label is read (unchecked, an entry longer than its sentence is written
// past the item array, and a shorter one is read past its labels).
TEST(ItemViewDeathTest, MismatchedEntryLengthsAbortNamingTheInstance) {
  const std::vector<int> items = {4, 2};
  crowd::AnnotationSet longer(2, 2, 3);
  longer.instance(0).entries.push_back({0, {0, 1, 2, 0}});
  longer.instance(1).entries.push_back({1, {0, 1, 2}});  // 3 labels for 2
  crowd::AnnotationSet shorter(2, 2, 3);
  shorter.instance(0).entries.push_back({0, {0, 1, 2, 0}});
  shorter.instance(0).entries.push_back({1, {0, 1}});  // 2 labels for 4
  MajorityVote mv;
  DawidSkene ds;
  HmmCrowd hmm;
  const TruthInference* methods[] = {&mv, &ds, &hmm};
  for (const TruthInference* method : methods) {
    Rng rng(1);
    EXPECT_DEATH(method->Infer(longer, items, &rng),
                 "instance 1: annotator 1 gave 3 labels for 2 items")
        << method->name();
    EXPECT_DEATH(method->Infer(shorter, items, &rng),
                 "instance 0: annotator 1 gave 2 labels for 4 items")
        << method->name();
  }
  Rng rng(1);
  EXPECT_DEATH(mv.Infer(longer, {4}, &rng), "items_per_instance.size\\(\\)");
}

// A crowd built in code can hold an annotator id outside the pool or a
// label outside [0, K); every aggregator refuses it with a message naming
// the instance, the annotator and the value (unchecked, such an entry is
// counted past the M-steps' confusion tables and the majority vote's rows).
TEST(ItemViewDeathTest, OutOfRangeEntriesAbortNamingTheValue) {
  const std::vector<int> items = {3, 2};
  crowd::AnnotationSet bad_id(2, 2, 3);
  bad_id.instance(0).entries.push_back({0, {0, 1, 2}});
  bad_id.instance(1).entries.push_back({2, {0, 1}});  // the pool is {0, 1}
  crowd::AnnotationSet bad_label(2, 2, 3);
  bad_label.instance(0).entries.push_back({0, {0, 1, 2}});
  bad_label.instance(1).entries.push_back({0, {0, 1}});
  bad_label.instance(1).entries.push_back({1, {0, 3}});  // K = 3
  crowd::AnnotationSet negative(2, 2, 3);
  negative.instance(0).entries.push_back({1, {2, -1, 0}});
  MajorityVote mv;
  DawidSkene ds;
  HmmCrowd hmm;
  const TruthInference* methods[] = {&mv, &ds, &hmm};
  for (const TruthInference* method : methods) {
    Rng rng(1);
    EXPECT_DEATH(method->Infer(bad_id, items, &rng),
                 "instance 1: annotator 2 is outside the pool of 2 "
                 "annotators")
        << method->name();
    EXPECT_DEATH(method->Infer(bad_label, items, &rng),
                 "instance 1: annotator 1 gave label 3, outside \\[0, 3\\)")
        << method->name();
    EXPECT_DEATH(method->Infer(negative, items, &rng),
                 "instance 0: annotator 1 gave label -1, outside \\[0, 3\\)")
        << method->name();
  }
}

TEST_F(ClassificationInferenceTest, MajorityVoteBetterThanChance) {
  MajorityVote mv;
  EXPECT_GT(RunAccuracy(mv), 0.62);  // default crowd config is quite noisy
}

TEST_F(ClassificationInferenceTest, DawidSkeneBeatsMajorityVote) {
  MajorityVote mv;
  DawidSkene ds;
  EXPECT_GT(RunAccuracy(ds), RunAccuracy(mv));
}

TEST_F(ClassificationInferenceTest, GladBeatsMajorityVote) {
  MajorityVote mv;
  Glad glad;
  EXPECT_GT(RunAccuracy(glad), RunAccuracy(mv));
}

TEST_F(ClassificationInferenceTest, IbccCompetitiveWithDs) {
  DawidSkene ds;
  Ibcc ibcc;
  EXPECT_GT(RunAccuracy(ibcc), RunAccuracy(ds) - 0.02);
}

TEST_F(ClassificationInferenceTest, PmAndCatdBeatMajorityVote) {
  MajorityVote mv;
  Pm pm;
  Catd catd;
  const double mv_acc = RunAccuracy(mv);
  EXPECT_GE(RunAccuracy(pm), mv_acc - 0.005);
  EXPECT_GE(RunAccuracy(catd), mv_acc - 0.005);
}

TEST_F(ClassificationInferenceTest, DsRecoversAnnotatorReliabilityOrdering) {
  DawidSkene ds;
  const ItemView view = FlattenItems(*annotations_, *items_);
  crowd::ConfusionSet confusions;
  util::Parallelizer exec;
  ds.Run(view, 0.0, &confusions, &exec);
  const crowd::ConfusionSet empirical =
      crowd::EmpiricalConfusions(*annotations_, corpus_->train);
  const auto labels = annotations_->LabelsPerAnnotator();
  // Estimated reliabilities should correlate with the empirical truth.
  double cov = 0.0, ve = 0.0, va = 0.0, me = 0.0, ma = 0.0;
  int n = 0;
  for (size_t j = 0; j < confusions.size(); ++j) {
    if (labels[j] < 30) continue;
    me += confusions[j].Reliability();
    ma += empirical[j].Reliability();
    ++n;
  }
  ASSERT_GT(n, 5);
  me /= n;
  ma /= n;
  for (size_t j = 0; j < confusions.size(); ++j) {
    if (labels[j] < 30) continue;
    const double de = confusions[j].Reliability() - me;
    const double da = empirical[j].Reliability() - ma;
    cov += de * da;
    ve += de * de;
    va += da * da;
  }
  EXPECT_GT(cov / std::sqrt(ve * va), 0.7);
}

TEST_F(ClassificationInferenceTest, GladEstimatesAbilityOrdering) {
  Glad glad;
  const auto detailed = glad.RunDetailed(*annotations_, *items_);
  const crowd::ConfusionSet empirical =
      crowd::EmpiricalConfusions(*annotations_, corpus_->train);
  const auto labels = annotations_->LabelsPerAnnotator();
  // The most able annotator (by alpha) among heavy labelers should have
  // above-average empirical accuracy.
  int best = -1;
  double best_alpha = -1e9;
  for (size_t j = 0; j < detailed.ability.size(); ++j) {
    if (labels[j] < 50) continue;
    if (detailed.ability[j] > best_alpha) {
      best_alpha = detailed.ability[j];
      best = static_cast<int>(j);
    }
  }
  ASSERT_GE(best, 0);
  EXPECT_GT(empirical[best].Reliability(), 0.7);
}

// Posterior fingerprints of the item-independent EM aggregators on this
// fixture (default options), taken from the reference implementation under
// the toolchain of SequenceInferenceTest.PosteriorsMatchGoldenHashes below:
// a change to the flat item view or to any E-/M-step operand or its order
// must re-take them. K = 2 runs the run-time-K instantiation of the E-step
// kernel. DS and IBCC were re-taken once, when the M-step counts moved to
// the E-step's item slots (see the sequence test's comment).
TEST_F(ClassificationInferenceTest, PosteriorsMatchGoldenHashes) {
  struct Case {
    std::unique_ptr<TruthInference> method;
    uint64_t hash;
  };
  Case cases[] = {
      {std::make_unique<DawidSkene>(), 0xa3e8a1484459bbdcull},
      {std::make_unique<Ibcc>(), 0x0d359bc7f6ac2616ull},
      {std::make_unique<Glad>(), 0xc8ef46db09a3290bull},
      {std::make_unique<Pm>(), 0xce40323761421ceaull},
      {std::make_unique<Catd>(), 0xec1ddcc158bb150dull},
  };
  for (const Case& c : cases) {
    Rng rng(7);
    const uint64_t h =
        HashMatrices(c.method->Infer(*annotations_, *items_, &rng));
    EXPECT_EQ(h, c.hash) << c.method->name() << ": 0x" << std::hex << h;
  }
}

TEST_F(ClassificationInferenceTest, EmCoresMatchAtEveryWorkerCount) {
  ExpectSameBitsAtEveryWorkerCount(*annotations_, *items_);
}

// --------------------------------------------------------------- Chain --

// The one-chain smoother the lane kernel replaced, kept as its oracle: the
// batch entry point must reproduce it bit for bit in every lane.
void ReferenceChainForwardBackward(const util::Vector& prior,
                                   const util::Matrix& transition,
                                   const util::Matrix& emission,
                                   util::Matrix* gamma, util::Matrix* xi_sum) {
  const int t_len = emission.rows();
  const int k = emission.cols();
  gamma->ResizeNoZero(t_len, k);
  if (t_len == 0) return;
  const size_t kk = static_cast<size_t>(k);
  std::vector<double> alpha(t_len * kk), beta(t_len * kk), row(kk * kk);
  const float* const tr = transition.data();
  const float* const em = emission.data();

  const auto normalize = [k](double* v) {
    double sum = 0.0;
    for (int m = 0; m < k; ++m) sum += v[m];
    if (sum <= 1e-300) {
      for (int m = 0; m < k; ++m) v[m] = 1.0 / k;
    } else {
      for (int m = 0; m < k; ++m) v[m] /= sum;
    }
  };

  for (int m = 0; m < k; ++m) alpha[m] = prior[m] * em[m];
  normalize(alpha.data());
  for (int t = 1; t < t_len; ++t) {
    const double* prev = alpha.data() + (t - 1) * kk;
    double* cur = alpha.data() + t * kk;
    const float* em_t = em + t * kk;
    for (int b = 0; b < k; ++b) {
      double s = 0.0;
      for (int a = 0; a < k; ++a) s += prev[a] * tr[a * kk + b];
      cur[b] = s * em_t[b];
    }
    normalize(cur);
  }
  std::fill_n(beta.data() + (t_len - 1) * kk, kk, 1.0);
  for (int t = t_len - 2; t >= 0; --t) {
    const double* next = beta.data() + (t + 1) * kk;
    const float* em_next = em + (t + 1) * kk;
    double* cur = beta.data() + t * kk;
    for (int a = 0; a < k; ++a) {
      const float* tr_a = tr + a * kk;
      double s = 0.0;
      for (int b = 0; b < k; ++b) s += tr_a[b] * em_next[b] * next[b];
      cur[a] = s;
    }
    normalize(cur);
  }

  float* const out = gamma->data();
  for (int t = 0; t < t_len; ++t) {
    const double* al = alpha.data() + t * kk;
    const double* be = beta.data() + t * kk;
    for (int m = 0; m < k; ++m) row[m] = al[m] * be[m];
    normalize(row.data());
    for (int m = 0; m < k; ++m) out[t * kk + m] = static_cast<float>(row[m]);
  }

  if (xi_sum == nullptr) return;
  float* const xs = xi_sum->data();
  for (int t = 0; t + 1 < t_len; ++t) {
    const double* al = alpha.data() + t * kk;
    const float* em_next = em + (t + 1) * kk;
    const double* be_next = beta.data() + (t + 1) * kk;
    double total = 0.0;
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        const double v = al[a] * tr[a * kk + b] * em_next[b] * be_next[b];
        row[a * kk + b] = v;
        total += v;
      }
    }
    if (total <= 1e-300) continue;
    for (size_t i = 0; i < kk * kk; ++i) {
      xs[i] += static_cast<float>(row[i] / total);
    }
  }
}

// Same shape and the same float bits.
bool SameBits(const util::Matrix& a, const util::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// One chain through the batch entry point.
void SmoothChain(const util::Vector& prior, const util::Matrix& transition,
                 const util::Matrix& emission, util::Matrix* gamma,
                 util::Matrix* xi_sum) {
  ChainForwardBackward(prior, transition, {&emission, 1}, {gamma, 1}, xi_sum);
}

TEST(ChainTest, UniformEverythingGivesUniformMarginals) {
  const int k = 3;
  util::Vector prior(k, 1.0f / k);
  util::Matrix transition(k, k, 1.0f / k);
  util::Matrix emission(4, k, 1.0f);
  util::Matrix gamma;
  SmoothChain(prior, transition, emission, &gamma, nullptr);
  for (int t = 0; t < 4; ++t) {
    for (int m = 0; m < k; ++m) EXPECT_NEAR(gamma(t, m), 1.0 / k, 1e-5);
  }
}

TEST(ChainTest, StrongEmissionDominates) {
  const int k = 2;
  util::Vector prior(k, 0.5f);
  util::Matrix transition(k, k, 0.5f);
  util::Matrix emission(3, k, 1e-3f);
  emission(0, 0) = 1.0f;
  emission(1, 1) = 1.0f;
  emission(2, 0) = 1.0f;
  util::Matrix gamma;
  SmoothChain(prior, transition, emission, &gamma, nullptr);
  EXPECT_GT(gamma(0, 0), 0.95f);
  EXPECT_GT(gamma(1, 1), 0.95f);
  EXPECT_GT(gamma(2, 0), 0.95f);
}

TEST(ChainTest, TransitionSmoothsAmbiguousStep) {
  // Middle step has flat emission; sticky transitions should pull it toward
  // the neighbors' state.
  const int k = 2;
  util::Vector prior(k, 0.5f);
  util::Matrix transition(k, k);
  transition(0, 0) = 0.9f; transition(0, 1) = 0.1f;
  transition(1, 0) = 0.1f; transition(1, 1) = 0.9f;
  util::Matrix emission(3, k, 1.0f);
  emission(0, 1) = 0.01f;
  emission(2, 1) = 0.01f;
  util::Matrix gamma;
  SmoothChain(prior, transition, emission, &gamma, nullptr);
  EXPECT_GT(gamma(1, 0), 0.9f);
}

TEST(ChainTest, XiSumsAccumulate) {
  const int k = 2;
  util::Vector prior(k, 0.5f);
  util::Matrix transition(k, k, 0.5f);
  util::Matrix emission(4, k, 1.0f);
  util::Matrix gamma;
  util::Matrix xi(k, k);
  SmoothChain(prior, transition, emission, &gamma, &xi);
  double total = 0.0;
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) total += xi(a, b);
  }
  EXPECT_NEAR(total, 3.0, 1e-4);  // T-1 pairwise distributions
}

// Positive prior and row-stochastic transitions, shared by a batch of
// chains; entries >= lo.
struct ChainModel {
  util::Vector prior;
  util::Matrix transition;
};

ChainModel MakeChainModel(int k, double lo, Rng* rng) {
  ChainModel c;
  c.prior.resize(k);
  float total = 0.0f;
  for (float& p : c.prior) {
    p = static_cast<float>(rng->Uniform(0.05, 1.0));
    total += p;
  }
  for (float& p : c.prior) p /= total;
  c.transition = util::Matrix(k, k);
  for (int a = 0; a < k; ++a) {
    float row = 0.0f;
    for (int b = 0; b < k; ++b) {
      c.transition(a, b) = static_cast<float>(rng->Uniform(lo, 1.0));
      row += c.transition(a, b);
    }
    for (int b = 0; b < k; ++b) c.transition(a, b) /= row;
  }
  return c;
}

// Emissions in [lo, 1).
util::Matrix MakeEmission(int t_len, int k, double lo, Rng* rng) {
  util::Matrix emission(t_len, k);
  for (int t = 0; t < t_len; ++t) {
    for (int m = 0; m < k; ++m) {
      emission(t, m) = static_cast<float>(rng->Uniform(lo, 1.0));
    }
  }
  return emission;
}

// Fingerprints of gamma and xi_sum from the reference smoother. Pinned to
// the operand order of the forward/backward recursions, so a reordering or
// a widened product (e.g. transition * emission in double) breaks them.
// The oracle and a batch of one must both hit them.
TEST(ChainTest, MatchesGoldenHashesOnRandomK9Chain) {
  Rng rng(99);
  const ChainModel c = MakeChainModel(9, 0.01, &rng);
  const util::Matrix emission = MakeEmission(23, 9, 1e-3, &rng);
  util::Matrix gamma, oracle_gamma;
  util::Matrix xi(9, 9), oracle_xi(9, 9);
  SmoothChain(c.prior, c.transition, emission, &gamma, &xi);
  ReferenceChainForwardBackward(c.prior, c.transition, emission,
                                &oracle_gamma, &oracle_xi);
  for (const util::Matrix* g : {&gamma, &oracle_gamma}) {
    EXPECT_EQ(HashMatrix(*g), 0xa4a0066b68ee990cull)
        << std::hex << HashMatrix(*g);
  }
  for (const util::Matrix* x : {&xi, &oracle_xi}) {
    EXPECT_EQ(HashMatrix(*x), 0xe3d61017550e8fe2ull)
        << std::hex << HashMatrix(*x);
  }
}

// Random batches against the one-chain oracle, bit for bit: batch sizes
// 1-20 (full groups, tails, lone chains), lengths 0-40, K in {2, 3, 9},
// emissions down to 1e-30 and transitions down to 1e-6, in place and not,
// xi on and off. Every other batch zeroes one emission row, which takes
// the uniform-row branch of the forward, backward and gamma passes and
// drops a step from xi.
TEST(ChainTest, BatchMatchesOneChainOracleBitForBit) {
  Rng rng(2024);
  const int widths[] = {2, 3, 9};
  for (int trial = 0; trial < 240; ++trial) {
    const int k = widths[trial % 3];
    const bool with_xi = trial % 2 == 0;
    const bool in_place = trial % 4 < 2;
    const int batch = 1 + rng.UniformInt(20);
    const ChainModel c = MakeChainModel(k, 1e-6, &rng);
    std::vector<util::Matrix> emissions;
    for (int i = 0; i < batch; ++i) {
      const double lo = rng.Bernoulli(0.5) ? 1e-30 : 1e-3;
      emissions.push_back(MakeEmission(rng.UniformInt(41), k, lo, &rng));
    }
    if (trial % 8 < 4) {
      util::Matrix& victim = emissions[rng.UniformInt(batch)];
      if (victim.rows() > 0) {
        float* row = victim.Row(rng.UniformInt(victim.rows()));
        std::fill(row, row + k, 0.0f);
      }
    }

    std::vector<util::Matrix> oracle(batch);
    util::Matrix oracle_xi(k, k);
    for (int i = 0; i < batch; ++i) {
      ReferenceChainForwardBackward(c.prior, c.transition, emissions[i],
                                    &oracle[i], with_xi ? &oracle_xi : nullptr);
    }
    std::vector<util::Matrix> gammas(batch);
    util::Matrix xi(k, k);
    util::Matrix* const xi_out = with_xi ? &xi : nullptr;
    if (in_place) {
      gammas = emissions;
      ChainForwardBackward(c.prior, c.transition, gammas, gammas, xi_out);
    } else {
      ChainForwardBackward(c.prior, c.transition, emissions, gammas, xi_out);
    }
    for (int i = 0; i < batch; ++i) {
      EXPECT_EQ(gammas[i].cols(), k);
      EXPECT_TRUE(SameBits(gammas[i], oracle[i]))
          << "trial " << trial << " chain " << i << " of " << batch;
    }
    EXPECT_TRUE(SameBits(xi, oracle_xi)) << "trial " << trial;
  }
}

// The smoother's scratch buffers are per thread and reused across calls of
// different batch size, length and width; results must not depend on which
// thread ran a batch or what it ran before.
TEST(ChainTest, ParallelCallsMatchSerialBitForBit) {
  constexpr int kSlots = util::Parallelizer::kSlots;
  // (batch size, K): full groups, tails, lone chains and an empty batch.
  const int shapes[][2] = {{11, 9}, {1, 9}, {8, 3}, {2, 3}, {19, 9}, {0, 9}};
  struct Batch {
    ChainModel model;
    std::vector<util::Matrix> emissions;
  };
  Rng rng(5);
  std::vector<Batch> batches;
  for (int s = 0; s < kSlots; ++s) {
    for (const auto& [size, k] : shapes) {
      Batch b{MakeChainModel(k, 0.01, &rng), {}};
      for (int i = 0; i < size; ++i) {
        b.emissions.push_back(MakeEmission(rng.UniformInt(42), k, 1e-3, &rng));
      }
      batches.push_back(std::move(b));
    }
  }
  const int n = static_cast<int>(batches.size());
  const auto smooth = [&batches](int i, std::vector<util::Matrix>* gammas,
                                 util::Matrix* xi) {
    const Batch& b = batches[i];
    const int k = b.model.transition.rows();
    gammas->resize(b.emissions.size());
    xi->Resize(k, k);
    ChainForwardBackward(b.model.prior, b.model.transition, b.emissions,
                         *gammas, xi);
  };
  std::vector<std::vector<util::Matrix>> serial_gamma(n), gamma(n);
  std::vector<util::Matrix> serial_xi(n), xi(n);
  for (int i = 0; i < n; ++i) smooth(i, &serial_gamma[i], &serial_xi[i]);

  util::Parallelizer exec(4);
  exec.RunSlots(kSlots, [&](int s) {
    const auto [begin, end] = util::Parallelizer::SlotRange(n, s, kSlots);
    for (int i = begin; i < end; ++i) smooth(i, &gamma[i], &xi[i]);
  });
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(HashMatrices(gamma[i]), HashMatrices(serial_gamma[i])) << i;
    EXPECT_EQ(HashMatrix(xi[i]), HashMatrix(serial_xi[i])) << i;
  }
}

// -------------------------------------------------------- Xi quotients --

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

double FromBits(uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

uint32_t Bits(float x) {
  uint32_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// How many doubles apart two nonnegative doubles are.
uint64_t Steps(double a, double b) {
  return Bits(a) > Bits(b) ? Bits(a) - Bits(b) : Bits(b) - Bits(a);
}

// What the smoother's xi quotients must equal: the double quotient rounded
// to float.
float Divided(double row, double divisor) {
  return static_cast<float>(row / divisor);
}

// A double with a random significand in [2^e, 2^(e+1)).
double RandomInBinade(int e, Rng* rng) {
  const uint64_t mantissa = rng->engine()() >> 12;
  return std::ldexp(1.0 + static_cast<double>(mantissa) * 0x1p-52, e);
}

// Runs every (rows[i], divisors[i]) pair through util::ChainQuotients in
// three layouts and expects (float)(rows[i] / divisors[i]) bit for bit:
//  - all pairs as one-term steps, so kChainLanes pairs share a group (and a
//    fallback) and a short tail runs at width 1;
//  - each pair as the one lane of a group whose other lanes divide 1 by 3,
//    far from any rounding boundary, so the group's fallback is its own;
//  - each pair as one term of a lone 9-term step whose other terms are
//    0.3 of its divisor, on the width-1 path.
void ExpectQuotientsMatchDivision(const std::vector<double>& rows,
                                  const std::vector<double>& divisors) {
  const size_t n = rows.size();
  std::vector<float> out(n);
  util::ChainQuotients(rows, divisors, out);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(Bits(out[i]), Bits(Divided(rows[i], divisors[i])))
        << "lanes: " << std::hexfloat << rows[i] << " / " << divisors[i];
  }

  constexpr int kLanes = util::kChainLanes;
  std::vector<double> lane_rows(kLanes, 1.0), lane_divisors(kLanes, 3.0);
  std::vector<float> lane_out(kLanes);
  constexpr int kTerms = 9;
  std::vector<double> step_rows(kTerms);
  std::vector<float> step_out(kTerms);
  for (size_t i = 0; i < n; ++i) {
    const float want = Divided(rows[i], divisors[i]);
    const int lane = static_cast<int>(i % kLanes);
    lane_rows[lane] = rows[i];
    lane_divisors[lane] = divisors[i];
    util::ChainQuotients(lane_rows, lane_divisors, lane_out);
    ASSERT_EQ(Bits(lane_out[lane]), Bits(want))
        << "one lane: " << std::hexfloat << rows[i] << " / " << divisors[i];
    lane_rows[lane] = 1.0;
    lane_divisors[lane] = 3.0;

    const int term = static_cast<int>(i % kTerms);
    for (int m = 0; m < kTerms; ++m) step_rows[m] = 0.3 * divisors[i];
    step_rows[term] = rows[i];
    util::ChainQuotients(step_rows, {&divisors[i], 1}, step_out);
    ASSERT_EQ(Bits(step_out[term]), Bits(want))
        << "lone step: " << std::hexfloat << rows[i] << " / " << divisors[i];
  }
}

// The bound the check rests on (DESIGN.md §5): row * (1 / divisor), each
// product rounded to double, is the rounded quotient or a neighbouring
// double. Each divisor covers rows.size() / divisors.size() consecutive
// rows, as in ChainQuotients. Returns the largest distance seen, in doubles.
uint64_t MaxReciprocalSteps(const std::vector<double>& rows,
                            const std::vector<double>& divisors) {
  const size_t terms = rows.size() / divisors.size();
  uint64_t worst = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const double d = divisors[i / terms];
    worst = std::max(worst, Steps(rows[i] * (1.0 / d), rows[i] / d));
  }
  return worst;
}

// Pairs whose quotient lies within a few doubles of a float rounding
// midpoint (normal and subnormal, ties included), of a power of two, of
// 2^-126 and of zero, over divisors from 2^-600 to 2^600, 1 (a uniform or
// padded lane) and the smoother's range. Where the reciprocal product alone
// rounds to the wrong float (the test asserts there are such pairs, so it
// would catch a missing or too narrow check), ChainQuotients must still
// return the division's float.
TEST(ChainQuotientTest, PairsNearRoundingBoundariesMatchDivision) {
  Rng rng(1717);
  std::vector<double> targets = {0.0, 0x1p-126, 0x1p-125, 0x1p-150,
                                 0x1p-149, 0x1p-126 - 0x1p-150};
  for (int e = -150; e <= 1; ++e) {
    targets.push_back(std::ldexp(1.0, e));                    // float
    targets.push_back(std::ldexp(1.0, e) - std::ldexp(1.0, e - 25));
  }
  for (int i = 0; i < 3000; ++i) {
    // The midpoint above a random normal float in [2^-126, 2).
    const int e = rng.UniformInt(-126, 0);
    const float f = static_cast<float>(RandomInBinade(e, &rng));
    targets.push_back(static_cast<double>(f) + std::ldexp(1.0, e - 24));
  }
  for (int i = 0; i < 500; ++i) {
    // An odd multiple of 2^-150: a midpoint of the subnormal float grid.
    const int k = i < 4 ? i : rng.UniformInt(1 << 23);
    targets.push_back((2.0 * k + 1.0) * 0x1p-150);
  }

  std::vector<double> rows, divisors;
  for (const double target : targets) {
    const double ds[] = {1.0, 3.0, 0x1p-40, 0x1p30,
                         rng.Uniform(0.5, 81.0),
                         RandomInBinade(rng.UniformInt(-600, 600), &rng)};
    for (const double d : ds) {
      const double row = target * d;
      for (int j = -4; j <= 4; ++j) {
        if (j < 0 && Bits(row) < static_cast<uint64_t>(-j)) continue;
        rows.push_back(FromBits(Bits(row) + j));
        divisors.push_back(d);
      }
    }
  }
  size_t naive_wrong = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const float naive = static_cast<float>(rows[i] * (1.0 / divisors[i]));
    naive_wrong += Bits(naive) != Bits(Divided(rows[i], divisors[i]));
  }
  EXPECT_GT(naive_wrong, 0u) << "no pair needs the check";
  EXPECT_EQ(MaxReciprocalSteps(rows, divisors), 1u);
  ExpectQuotientsMatchDivision(rows, divisors);
}

// 10^7 random pairs in 9 x 9-term steps, as the smoother's K = 9 xi pass
// makes them: divisors over 2^-60..2^60 (some exactly 1 or a power of two),
// rows a log-uniform 2^-160..1 fraction of the divisor or random bits
// within 2^±150 of it, and some zero rows. The steps are made, checked and
// dropped a chunk at a time, so the test holds a few MB.
TEST(ChainQuotientTest, RandomPairsMatchDivision) {
  Rng rng(4242);
  constexpr size_t kTerms = 81;
  constexpr size_t kSteps = 123457;  // 10,000,017 pairs
  constexpr size_t kChunk = 4096;    // a multiple of kChainLanes
  std::vector<double> rows, divisors;
  std::vector<float> out;
  uint64_t worst = 0;
  size_t wrong = 0;
  for (size_t first = 0; first < kSteps; first += kChunk) {
    const size_t steps = std::min(kChunk, kSteps - first);
    rows.resize(steps * kTerms);
    divisors.resize(steps);
    out.resize(rows.size());
    for (size_t j = 0; j < steps; ++j) {
      const double u = rng.Uniform();
      double d = RandomInBinade(rng.UniformInt(-60, 60), &rng);
      if (u < 0.05) d = 1.0;
      if (u > 0.95) d = std::ldexp(1.0, rng.UniformInt(-60, 60));
      divisors[j] = d;
      for (size_t i = 0; i < kTerms; ++i) {
        const double v = rng.Uniform();
        double row;
        if (v < 0.01) {
          row = 0.0;
        } else if (v < 0.7) {
          row = d * std::exp2(-160.0 * rng.Uniform());
        } else {
          row = RandomInBinade(std::ilogb(d) + rng.UniformInt(-150, 0), &rng);
        }
        rows[j * kTerms + i] = row;
      }
    }
    worst = std::max(worst, MaxReciprocalSteps(rows, divisors));
    util::ChainQuotients(rows, divisors, out);
    for (size_t i = 0; i < rows.size(); ++i) {
      wrong += Bits(out[i]) != Bits(Divided(rows[i], divisors[i / kTerms]));
    }
  }
  EXPECT_EQ(worst, 1u);
  EXPECT_EQ(wrong, 0u);
}

// Emissions log-uniform in [1e-30, 1], so that products of two of them
// reach below the float range.
util::Matrix MakeSparseEmission(int t_len, int k, Rng* rng) {
  util::Matrix emission(t_len, k);
  float* const e = emission.data();
  for (size_t i = 0; i < emission.size(); ++i) {
    e[i] = static_cast<float>(std::exp(-69.0 * rng->Uniform()));
  }
  return emission;
}

// Chains whose xi quotients sit exactly on float rounding midpoints, where
// the check must send the step to division:
//  - M: 0.25 * (1 + 2^-11 + 2^-24), a normal-range tie, rounds to even
//    (down);
//  - S: 3 * 2^-150, a subnormal tie below 2^-125, rounds to even (up).
// Each runs as lane 3 of a full group and as the lone chain after it, with
// group mates on the same transitions and sparse emissions whose quotients
// reach the subnormal float range and zero. Gammas and xi_sum must equal
// the oracle's bit for bit, and the lone chain's xi the ties' floats.
TEST(ChainTest, QuotientsOnRoundingTiesMatchOracleBitForBit) {
  struct Special {
    const char* name;
    float transition[4];
    float emission[4];  // 2 steps x 2 states
    int a, b;           // the xi entry on the tie
    float tie;          // its float, rounded to even
  };
  const Special specials[] = {
      {"M",
       {1.0f + 0x1p-12f, 1.0f - 0x1p-11f, 1.0f - 0x1p-12f, 1.0f},
       {1.0f, 1.0f, 1.0f + 0x1p-12f, 1.0f},
       0, 0, 0.25f * (1.0f + 0x1p-11f)},
      {"S",
       {1.0f, 3.0f * 0x1p-75f, 1.0f, 1.0f},
       {1.0f, 1.0f, 1.0f, 0x1p-74f},
       0, 1, 0x1p-148f},
  };
  Rng rng(77);
  const util::Vector prior = {0.5f, 0.5f};
  for (const Special& sp : specials) {
    util::Matrix transition(2, 2), special(2, 2);
    std::copy_n(sp.transition, 4, transition.data());
    std::copy_n(sp.emission, 4, special.data());

    util::Matrix alone_xi(2, 2);
    util::Matrix alone_gamma;
    SmoothChain(prior, transition, special, &alone_gamma, &alone_xi);
    EXPECT_EQ(Bits(alone_xi(sp.a, sp.b)), Bits(sp.tie)) << sp.name;

    for (int trial = 0; trial < 20; ++trial) {
      std::vector<util::Matrix> emissions;
      for (int i = 0; i < util::kChainLanes + 1; ++i) {
        emissions.push_back(i == 3 || i == util::kChainLanes
                                ? special
                                : MakeSparseEmission(rng.UniformInt(13), 2,
                                                     &rng));
      }
      std::vector<util::Matrix> oracle(emissions.size()), gammas;
      util::Matrix oracle_xi(2, 2), xi(2, 2);
      for (size_t i = 0; i < emissions.size(); ++i) {
        ReferenceChainForwardBackward(prior, transition, emissions[i],
                                      &oracle[i], &oracle_xi);
      }
      gammas.resize(emissions.size());
      ChainForwardBackward(prior, transition, emissions, gammas, &xi);
      for (size_t i = 0; i < emissions.size(); ++i) {
        EXPECT_TRUE(SameBits(gammas[i], oracle[i]))
            << sp.name << " trial " << trial << " chain " << i;
      }
      EXPECT_TRUE(SameBits(xi, oracle_xi)) << sp.name << " trial " << trial;
    }
  }
}

// ----------------------------------------------------- Sequence methods --

class SequenceInferenceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(321);
    data::NerGenConfig gcfg;
    corpus_ = new data::NerCorpus(
        data::GenerateNerCorpus(gcfg, 250, 30, 30, &rng));
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 25;
    auto sim = crowd::CrowdSimulator::MakeSequence(ccfg, &rng);
    annotations_ = new crowd::AnnotationSet(
        sim.AnnotateSequences(corpus_->train, &rng));
    items_ = new std::vector<int>(ItemsPerInstance(corpus_->train));
  }
  static void TearDownTestSuite() {
    delete items_;
    delete annotations_;
    delete corpus_;
  }

  static double RunF1(const TruthInference& method) {
    Rng rng(7);
    const auto posteriors = method.Infer(*annotations_, *items_, &rng);
    return eval::PosteriorSpanF1(posteriors, corpus_->train).f1;
  }

  static data::NerCorpus* corpus_;
  static crowd::AnnotationSet* annotations_;
  static std::vector<int>* items_;
};

data::NerCorpus* SequenceInferenceTest::corpus_ = nullptr;
crowd::AnnotationSet* SequenceInferenceTest::annotations_ = nullptr;
std::vector<int>* SequenceInferenceTest::items_ = nullptr;

TEST_F(SequenceInferenceTest, TokenMethodsBetterThanNothing) {
  MajorityVote mv;
  EXPECT_GT(RunF1(mv), 0.35);
}

TEST_F(SequenceInferenceTest, DsBeatsMvOnSequences) {
  MajorityVote mv;
  DawidSkene ds;
  EXPECT_GT(RunF1(ds), RunF1(mv));
}

TEST_F(SequenceInferenceTest, HmmCrowdBeatsTokenMv) {
  MajorityVote mv;
  HmmCrowd hmm;
  EXPECT_GT(RunF1(hmm), RunF1(mv));
}

TEST_F(SequenceInferenceTest, BscSeqCompetitiveWithHmmCrowd) {
  HmmCrowd hmm;
  BscSeq bsc;
  EXPECT_GT(RunF1(bsc), RunF1(hmm) - 0.03);
}

TEST_F(SequenceInferenceTest, PosteriorsRowStochastic) {
  Rng rng(7);
  HmmCrowd hmm;
  const auto posteriors = hmm.Infer(*annotations_, *items_, &rng);
  for (size_t i = 0; i < posteriors.size(); i += 40) {
    for (int t = 0; t < posteriors[i].rows(); ++t) {
      double sum = 0.0;
      for (int c = 0; c < posteriors[i].cols(); ++c) {
        sum += posteriors[i](t, c);
      }
      EXPECT_NEAR(sum, 1.0, 1e-4);
    }
  }
}

// Posterior fingerprints of the EM aggregators on this fixture, taken from
// the reference implementation (toolchain: GCC with -ffp-contract=off,
// glibc libm). They pin every E-/M-step operand and its order: an
// intentional numeric change must re-take them. The fixed-iteration options
// are the ner_aggregate benchmark workload's (a negative tolerance never
// converges early); the defaults run to convergence. The four HMM-Crowd and
// BSC-seq hashes were re-taken once when the sequence E-step moved to
// Parallelizer::kSlots sentence slots, each with its own xi sum merged in
// slot order: built with a single E-step slot, that code reproduces the
// previous four hashes, so the slot merge of xi is their only numeric
// change. The DS, IBCC, BSC-seq and HMM-Crowd hashes here and DS and IBCC
// on the classification fixture (ten) were re-taken once more when the
// M-step confusion counts moved from per-annotator worker tables to the
// E-step's item or sentence slots, one count table per slot merged in slot
// order. The compile-time-K kernels that landed with that change (K = 9
// here) keep every literal on their own, and a build of that code that
// counts each M-step's labels in one slot reproduces the ten previous
// hashes, so the slot grouping of each count cell is their only numeric
// change.
TEST_F(SequenceInferenceTest, PosteriorsMatchGoldenHashes) {
  struct Case {
    const char* label;
    std::unique_ptr<TruthInference> method;
    uint64_t hash;
  };
  Case cases[] = {
      {"DS default", std::make_unique<DawidSkene>(), 0xfb8a76c8cc9cf2e8ull},
      {"DS fixed", std::make_unique<DawidSkene>(kDsFixed),
       0x87a38389d910ae24ull},
      {"IBCC default", std::make_unique<Ibcc>(), 0x8742e7cb05589e69ull},
      {"IBCC fixed", std::make_unique<Ibcc>(kIbccFixed), 0x0a30d60688c18496ull},
      {"BSC-seq default", std::make_unique<BscSeq>(), 0x74df21ff1dd9d958ull},
      {"BSC-seq fixed", std::make_unique<BscSeq>(kBscFixed),
       0xa0af4b18a909a674ull},
      {"HMM-Crowd default", std::make_unique<HmmCrowd>(),
       0xf90a460280b0d445ull},
      {"HMM-Crowd fixed", std::make_unique<HmmCrowd>(kHmmFixed),
       0x8fc8008d28fb4bc0ull},
      {"MV", std::make_unique<MajorityVote>(), 0xf92ae90191d08104ull},
      {"GLAD default", std::make_unique<Glad>(), 0xc277a1856c753882ull},
      {"PM default", std::make_unique<Pm>(), 0x31fce168385e10a3ull},
      {"CATD default", std::make_unique<Catd>(), 0xe776cf3b5e592705ull},
  };
  for (const Case& c : cases) {
    Rng rng(7);
    const uint64_t h =
        HashMatrices(c.method->Infer(*annotations_, *items_, &rng));
    EXPECT_EQ(h, c.hash) << c.label << ": 0x" << std::hex << h;
  }
}

TEST_F(SequenceInferenceTest, EmCoresMatchAtEveryWorkerCount) {
  ExpectSameBitsAtEveryWorkerCount(*annotations_, *items_);
}

// The ner_aggregate benchmark workload times its set-up (corpus, crowd,
// item counts and the five aggregators' constructors) apart from its
// rounds: constructing an aggregator starts no thread, and every Infer
// joins the workers it starts before it returns.
TEST_F(SequenceInferenceTest, AggregatorsStartNoThreadOutsideInfer) {
  const int before = ProcessThreads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task on this host";
  std::vector<std::unique_ptr<TruthInference>> methods;
  methods.push_back(std::make_unique<MajorityVote>());
  methods.push_back(std::make_unique<DawidSkene>(kDsFixed));
  methods.push_back(std::make_unique<Ibcc>(kIbccFixed));
  methods.push_back(std::make_unique<BscSeq>(kBscFixed));
  methods.push_back(std::make_unique<HmmCrowd>(kHmmFixed));
  EXPECT_EQ(ProcessThreads(), before);
  for (const auto& method : methods) {
    Rng rng(7);
    method->Infer(*annotations_, *items_, &rng);
    // A joined worker leaves the task list asynchronously: wait up to 2 s.
    int now = ProcessThreads();
    for (int waits = 0; waits < 200 && now != before; ++waits) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      now = ProcessThreads();
    }
    EXPECT_EQ(now, before) << method->name();
  }
}

// Degenerate crowds: an empty sentence (with and without an empty label
// entry), a sentence nobody labeled, an annotator who never labels; K = 2
// and K = 9, so both instantiations of the EM kernels (kCompiledClasses)
// see them. Label 1 of the K = 2 crowd is K - 1.
TEST(SequenceEdgeTest, EmAggregatorsStayValidOnDegenerateCrowd) {
  for (const int k : {2, kCompiledClasses}) {
    const int e = k - 1;
    const std::vector<int> items = {5, 0, 4, 3, 0};
    crowd::AnnotationSet ann(static_cast<int>(items.size()),
                             /*num_annotators=*/3, k);
    ann.instance(0).entries.push_back({0, {0, e, e, 0, 0}});
    ann.instance(0).entries.push_back({1, {0, e, 0, 0, e}});
    ann.instance(1).entries.push_back({0, {}});
    ann.instance(3).entries.push_back({1, {e, e, 0}});
    // Annotator 2 labels nothing; instances 2 and 4 have no entries.
    MajorityVote mv;
    DawidSkene ds;
    Ibcc ibcc;
    Glad glad;
    Pm pm;
    Catd catd;
    BscSeq bsc;
    HmmCrowd hmm;
    const TruthInference* methods[] = {&mv, &ds,   &ibcc, &glad,
                                       &pm, &catd, &bsc,  &hmm};
    for (const TruthInference* method : methods) {
      Rng rng(3);
      ExpectValidPosteriors(method->Infer(ann, items, &rng), items, k,
                            method->name() + " K=" + std::to_string(k));
    }
  }
}

// Fewer sentences (3) and items (5) than Parallelizer::kSlots: the empty
// E- and M-step slots add nothing, and the four EM cores give valid
// posteriors with the same bits at 1-4 workers, at K = 2 and K = 9.
TEST(SequenceEdgeTest, EmCoresMatchAtEveryWorkerCountWithEmptySlots) {
  static_assert(util::Parallelizer::kSlots > 5);
  for (const int k : {2, kCompiledClasses}) {
    const int e = k - 1;
    const std::vector<int> items = {3, 0, 2};
    crowd::AnnotationSet ann(static_cast<int>(items.size()),
                             /*num_annotators=*/3, k);
    ann.instance(0).entries.push_back({0, {0, e, 1}});
    ann.instance(0).entries.push_back({2, {0, e, 0}});
    ann.instance(1).entries.push_back({1, {}});
    ann.instance(2).entries.push_back({1, {e, 0}});
    ExpectSameBitsAtEveryWorkerCount(ann, items);
    DawidSkene ds;
    Ibcc ibcc;
    BscSeq bsc;
    HmmCrowd hmm;
    const TruthInference* methods[] = {&ds, &ibcc, &bsc, &hmm};
    for (const TruthInference* method : methods) {
      Rng rng(3);
      ExpectValidPosteriors(method->Infer(ann, items, &rng), items, k,
                            method->name() + " K=" + std::to_string(k));
    }
  }
}


TEST(PmToyTest, DownWeightsPersistentlyWrongSource) {
  Rng rng(11);
  const int n = 400;
  crowd::AnnotationSet ann(n, 3, 2);
  data::Dataset d;
  d.num_classes = 2;
  for (int i = 0; i < n; ++i) {
    data::Instance x;
    x.tokens = {1};
    x.label = rng.UniformInt(2);
    d.instances.push_back(x);
    const int truth = d.instances[i].label;
    ann.instance(i).entries.push_back({0, {truth}});
    ann.instance(i).entries.push_back(
        {1, {rng.Bernoulli(0.9) ? truth : 1 - truth}});
    ann.instance(i).entries.push_back({2, {1 - truth}});  // always wrong
  }
  Pm pm;
  Rng run(1);
  const auto q = pm.Infer(ann, std::vector<int>(n, 1), &run);
  // Despite the adversary, weighted voting stays close to the reliable
  // annotators' ceiling (the 3-vote committee cannot fully mute it).
  EXPECT_GT(eval::PosteriorAccuracy(q, d), 0.88);
}

TEST(CatdToyTest, LowVolumeSourceGetsConservativeWeight) {
  // Annotator 2 is perfect but labeled only 5 items; annotator 1 is 85%
  // accurate over everything. CATD must still aggregate sensibly.
  Rng rng(12);
  const int n = 300;
  crowd::AnnotationSet ann(n, 3, 2);
  data::Dataset d;
  d.num_classes = 2;
  for (int i = 0; i < n; ++i) {
    data::Instance x;
    x.tokens = {1};
    x.label = rng.UniformInt(2);
    d.instances.push_back(x);
    const int truth = d.instances[i].label;
    ann.instance(i).entries.push_back({0, {truth}});
    ann.instance(i).entries.push_back(
        {1, {rng.Bernoulli(0.85) ? truth : 1 - truth}});
    if (i < 5) ann.instance(i).entries.push_back({2, {truth}});
  }
  Catd catd;
  Rng run(1);
  const auto q = catd.Infer(ann, std::vector<int>(n, 1), &run);
  EXPECT_GT(eval::PosteriorAccuracy(q, d), 0.85);
}

TEST(IbccToyTest, PriorStabilizesSparseAnnotators) {
  // Sparse labels per annotator: plain DS overfits its confusion estimates;
  // IBCC's diagonal prior must keep the posterior accuracy reasonable.
  Rng rng(13);
  const int n = 120;
  const int annotators = 40;  // each labels ~9 items
  crowd::AnnotationSet ann(n, annotators, 2);
  data::Dataset d;
  d.num_classes = 2;
  for (int i = 0; i < n; ++i) {
    data::Instance x;
    x.tokens = {1};
    x.label = rng.UniformInt(2);
    d.instances.push_back(x);
    for (int j : rng.SampleWithoutReplacement(annotators, 3)) {
      const int truth = d.instances[i].label;
      ann.instance(i).entries.push_back(
          {j, {rng.Bernoulli(0.75) ? truth : 1 - truth}});
    }
  }
  Ibcc ibcc;
  Rng run(1);
  const auto q = ibcc.Infer(ann, std::vector<int>(n, 1), &run);
  EXPECT_GT(eval::PosteriorAccuracy(q, d), 0.75);
}

TEST(HmmCrowdToyTest, TransitionsRepairIsolatedTokenErrors) {
  // Truth: long runs of state 0 with occasional 1s; a noisy annotator flips
  // isolated tokens. The chain prior should smooth isolated flips better
  // than token-wise DS.
  Rng rng(14);
  const int n = 80;
  data::Dataset d;
  d.num_classes = 2;
  d.sequence = true;
  crowd::AnnotationSet ann(n, 4, 2);
  for (int i = 0; i < n; ++i) {
    data::Instance x;
    const int len = 12;
    x.tokens.assign(len, 1);
    x.tag_labels.assign(len, 0);
    // one run of 1s of length 3
    const int start = rng.UniformInt(len - 3);
    for (int t = start; t < start + 3; ++t) x.tag_labels[t] = 1;
    d.instances.push_back(x);
    for (int j = 0; j < 4; ++j) {
      crowd::AnnotatorLabels e;
      e.annotator = j;
      for (int t = 0; t < len; ++t) {
        const int truth = d.instances[i].tag_labels[t];
        e.labels.push_back(rng.Bernoulli(0.8) ? truth : 1 - truth);
      }
      ann.instance(i).entries.push_back(std::move(e));
    }
  }
  HmmCrowd hmm;
  DawidSkene ds;
  Rng run(1);
  const auto items = ItemsPerInstance(d);
  const double hmm_acc =
      eval::PosteriorAccuracy(hmm.Infer(ann, items, &run), d);
  const double ds_acc = eval::PosteriorAccuracy(ds.Infer(ann, items, &run), d);
  EXPECT_GE(hmm_acc, ds_acc - 0.01);
  EXPECT_GT(hmm_acc, 0.9);
}

// ---------------------------------------------- Small planted sanity set --

// Three annotators: two perfect, one adversarial. DS must learn to discount
// the adversary; MV cannot when the adversary teams with one noisy labeler.
TEST(DawidSkeneToyTest, DiscountsAdversarialAnnotator) {
  Rng rng(5);
  const int n = 200;
  data::Dataset d;
  d.num_classes = 2;
  crowd::AnnotationSet ann(n, 3, 2);
  for (int i = 0; i < n; ++i) {
    data::Instance x;
    x.tokens = {1};
    x.label = rng.UniformInt(2);
    d.instances.push_back(x);
    const int truth = d.instances[i].label;
    ann.instance(i).entries.push_back({0, {truth}});  // perfect
    // Good-but-noisy annotator (85%).
    const int noisy = rng.Bernoulli(0.85) ? truth : 1 - truth;
    ann.instance(i).entries.push_back({1, {noisy}});
    // Adversary: always wrong.
    ann.instance(i).entries.push_back({2, {1 - truth}});
  }
  DawidSkene ds;
  Rng run_rng(1);
  const auto q = ds.Infer(ann, std::vector<int>(n, 1), &run_rng);
  EXPECT_GT(eval::PosteriorAccuracy(q, d), 0.97);

  // And the confusion estimate of the adversary has a low diagonal.
  const ItemView view = FlattenItems(ann, std::vector<int>(n, 1));
  crowd::ConfusionSet confusions;
  util::Parallelizer exec(2);
  ds.Run(view, 0.0, &confusions, &exec);
  EXPECT_LT(confusions[2].Reliability(), 0.2);
  EXPECT_GT(confusions[0].Reliability(), 0.9);
}

TEST(GladToyTest, HardItemsGetHigherDifficulty) {
  // Annotators agree on easy items, disagree on hard ones.
  Rng rng(6);
  const int n_easy = 100, n_hard = 100;
  crowd::AnnotationSet ann(n_easy + n_hard, 6, 2);
  for (int i = 0; i < n_easy + n_hard; ++i) {
    const bool hard = i >= n_easy;
    for (int j = 0; j < 6; ++j) {
      const int label = hard ? rng.UniformInt(2) : 0;
      ann.instance(i).entries.push_back({j, {label}});
    }
  }
  Glad glad;
  const auto detailed =
      glad.RunDetailed(ann, std::vector<int>(n_easy + n_hard, 1));
  double mean_easy = 0.0, mean_hard = 0.0;
  for (int i = 0; i < n_easy; ++i) mean_easy += detailed.difficulty[i];
  for (int i = n_easy; i < n_easy + n_hard; ++i) {
    mean_hard += detailed.difficulty[i];
  }
  EXPECT_GT(mean_hard / n_hard, mean_easy / n_easy);
}

}  // namespace
}  // namespace lncl::inference
