#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "data/bio.h"
#include "data/dataset.h"
#include "data/embedding.h"
#include "data/io.h"
#include "data/ner_gen.h"
#include "data/sentiment_gen.h"
#include "data/vocab.h"
#include "util/rng.h"

namespace lncl::data {
namespace {

using util::Rng;

// ----------------------------------------------------------------- Vocab --

TEST(VocabTest, PadReservedAndStableIds) {
  Vocab v;
  EXPECT_EQ(v.size(), 1);
  EXPECT_EQ(v.Find("<pad>"), Vocab::kPadId);
  const int a = v.Add("alpha");
  const int b = v.Add("beta");
  EXPECT_EQ(v.Add("alpha"), a);  // idempotent
  EXPECT_NE(a, b);
  EXPECT_EQ(v.TokenOf(a), "alpha");
  EXPECT_EQ(v.Find("gamma"), -1);
}

// ------------------------------------------------------------- Embedding --

TEST(EmbeddingTest, LookupShapesAndPadding) {
  EmbeddingTable table(5, 3);
  for (int d = 0; d < 3; ++d) table.table()(2, d) = 1.0f;
  util::Matrix out;
  table.Lookup({2, 0, 99}, &out);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 3);
  EXPECT_FLOAT_EQ(out(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out(1, 0), 0.0f);  // pad row
  EXPECT_FLOAT_EQ(out(2, 0), 0.0f);  // out-of-range id -> zero
}

// ------------------------------------------------------------------- BIO --

TEST(BioTest, LabelPredicates) {
  EXPECT_TRUE(IsBegin(kBPer));
  EXPECT_TRUE(IsInside(kIOrg));
  EXPECT_FALSE(IsBegin(kO));
  EXPECT_FALSE(IsInside(kO));
  EXPECT_EQ(EntityTypeOf(kBLoc), EntityTypeOf(kILoc));
  for (int t = 0; t < kNumEntityTypes; ++t) {
    EXPECT_EQ(EntityTypeOf(BeginLabel(t)), t);
    EXPECT_EQ(EntityTypeOf(InsideLabel(t)), t);
  }
  EXPECT_EQ(BioLabelName(kO), "O");
  EXPECT_EQ(BioLabelName(kBOrg), "B-ORG");
  EXPECT_EQ(EntityTypeName(0), "PER");
}

TEST(BioTest, ExtractSpansBasic) {
  // O B-PER I-PER O B-ORG
  const std::vector<int> tags = {kO, kBPer, kIPer, kO, kBOrg};
  const auto spans = ExtractSpans(tags);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], (EntitySpan{1, 3, 0}));
  EXPECT_EQ(spans[1], (EntitySpan{4, 5, 2}));
}

TEST(BioTest, ExtractSpansAdjacentEntities) {
  // B-PER B-PER: two single-token entities (B starts a new span).
  const auto spans = ExtractSpans({kBPer, kBPer});
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].end, 1);
  EXPECT_EQ(spans[1].begin, 1);
}

TEST(BioTest, ExtractSpansToleratesDanglingInside) {
  // I-LOC at start: conventionally treated as starting an entity.
  const auto spans = ExtractSpans({kILoc, kILoc, kO});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (EntitySpan{0, 2, 1}));
}

TEST(BioTest, ExtractSpansTypeChangeSplits) {
  // B-PER I-ORG: the I of a different type starts a new span.
  const auto spans = ExtractSpans({kBPer, kIOrg});
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].type, 0);
  EXPECT_EQ(spans[1].type, 2);
}

TEST(BioTest, WriteSpanRoundTrip) {
  std::vector<int> tags(6, kO);
  WriteSpan({2, 5, 3}, &tags);
  EXPECT_EQ(tags[2], kBMisc);
  EXPECT_EQ(tags[3], kIMisc);
  EXPECT_EQ(tags[4], kIMisc);
  const auto spans = ExtractSpans(tags);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (EntitySpan{2, 5, 3}));
}

TEST(BioTest, ValidityCheck) {
  EXPECT_TRUE(IsValidBioSequence({kO, kBPer, kIPer, kO}));
  EXPECT_FALSE(IsValidBioSequence({kO, kIPer}));
  EXPECT_FALSE(IsValidBioSequence({kIPer}));
  EXPECT_FALSE(IsValidBioSequence({kBOrg, kIPer}));
  EXPECT_TRUE(IsValidBioSequence({kBOrg, kIOrg, kIOrg}));
}

// --------------------------------------------------------------- Dataset --

TEST(DatasetTest, ItemAccessors) {
  Dataset d;
  d.num_classes = 2;
  d.sequence = false;
  Instance a;
  a.tokens = {1, 2, 3};
  a.label = 1;
  d.instances.push_back(a);
  EXPECT_EQ(d.NumItems(0), 1);
  EXPECT_EQ(d.ItemLabel(0, 0), 1);
  EXPECT_EQ(d.TotalItems(), 1);

  Dataset s;
  s.num_classes = 9;
  s.sequence = true;
  Instance b;
  b.tokens = {1, 2};
  b.tag_labels = {0, 3};
  s.instances.push_back(b);
  EXPECT_EQ(s.NumItems(0), 2);
  EXPECT_EQ(s.ItemLabel(0, 1), 3);
  EXPECT_EQ(s.TotalItems(), 2);
}

TEST(DatasetTest, SubsetAndSampling) {
  Rng rng(3);
  Dataset d;
  d.num_classes = 2;
  for (int i = 0; i < 10; ++i) {
    Instance x;
    x.tokens = {i};
    x.label = i % 2;
    d.instances.push_back(x);
  }
  const auto idx = SampleSubset(d, 4, &rng);
  EXPECT_EQ(idx.size(), 4u);
  const Dataset sub = Subset(d, idx);
  EXPECT_EQ(sub.size(), 4);
  EXPECT_EQ(sub.num_classes, 2);
  // Oversized request returns everything.
  EXPECT_EQ(SampleSubset(d, 100, &rng).size(), 10u);
}

TEST(DatasetTest, ClauseBExtraction) {
  Instance x;
  x.tokens = {5, 6, 7, 8, 9};
  x.contrast_index = 2;
  x.label = 1;
  const Instance b = ClauseB(x);
  EXPECT_EQ(b.tokens, (std::vector<int>{8, 9}));
  EXPECT_EQ(b.label, 1);
}

// --------------------------------------------------------- SentimentGen --

class SentimentGenTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(42);
    corpus_ = GenerateSentimentCorpus(config_, 500, 100, 100, &rng);
  }
  SentimentGenConfig config_;
  SentimentCorpus corpus_;
};

TEST_F(SentimentGenTest, SplitSizesAndClasses) {
  EXPECT_EQ(corpus_.train.size(), 500);
  EXPECT_EQ(corpus_.dev.size(), 100);
  EXPECT_EQ(corpus_.test.size(), 100);
  EXPECT_EQ(corpus_.train.num_classes, 2);
  EXPECT_FALSE(corpus_.train.sequence);
}

TEST_F(SentimentGenTest, TokensInVocabulary) {
  for (const Instance& x : corpus_.train.instances) {
    EXPECT_FALSE(x.tokens.empty());
    for (int t : x.tokens) {
      EXPECT_GT(t, 0);
      EXPECT_LT(t, corpus_.vocab.size());
    }
    EXPECT_TRUE(x.label == 0 || x.label == 1);
    EXPECT_GE(x.difficulty, 0.0);
    EXPECT_LE(x.difficulty, 1.0);
  }
}

TEST_F(SentimentGenTest, ContrastFractionRoughlyMatchesConfig) {
  int but = 0, however = 0;
  for (const Instance& x : corpus_.train.instances) {
    if (x.contrast_index < 0) continue;
    const int marker = x.tokens[x.contrast_index];
    if (marker == corpus_.but_token) ++but;
    if (marker == corpus_.however_token) ++however;
  }
  EXPECT_NEAR(but / 500.0, config_.but_frac, 0.08);
  EXPECT_NEAR(however / 500.0, config_.however_frac, 0.05);
}

TEST_F(SentimentGenTest, ContrastMarkersHaveBothClauses) {
  for (const Instance& x : corpus_.train.instances) {
    if (x.contrast_index < 0) continue;
    EXPECT_GT(x.contrast_index, 0);
    EXPECT_LT(x.contrast_index + 1, static_cast<int>(x.tokens.size()));
  }
}

TEST_F(SentimentGenTest, LabelsRoughlyBalanced) {
  int pos = 0;
  for (const Instance& x : corpus_.train.instances) pos += x.label;
  EXPECT_NEAR(pos / 500.0, 0.5, 0.1);
}

TEST_F(SentimentGenTest, ReproducibleFromSeed) {
  Rng rng(42);
  const SentimentCorpus again =
      GenerateSentimentCorpus(config_, 500, 100, 100, &rng);
  ASSERT_EQ(again.train.size(), corpus_.train.size());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(again.train.instances[i].tokens, corpus_.train.instances[i].tokens);
    EXPECT_EQ(again.train.instances[i].label, corpus_.train.instances[i].label);
  }
}

TEST_F(SentimentGenTest, EmbeddingTableMatchesVocab) {
  EXPECT_EQ(corpus_.embeddings->vocab_size(), corpus_.vocab.size());
  EXPECT_EQ(corpus_.embeddings->dim(), config_.embedding_dim);
}

// --------------------------------------------------------------- NerGen --

class NerGenTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    corpus_ = GenerateNerCorpus(config_, 300, 50, 50, &rng);
  }
  NerGenConfig config_;
  NerCorpus corpus_;
};

TEST_F(NerGenTest, ShapesAndClasses) {
  EXPECT_EQ(corpus_.train.size(), 300);
  EXPECT_TRUE(corpus_.train.sequence);
  EXPECT_EQ(corpus_.train.num_classes, kNumBioLabels);
}

TEST_F(NerGenTest, AllSequencesValidBio) {
  for (const Instance& x : corpus_.train.instances) {
    EXPECT_EQ(x.tokens.size(), x.tag_labels.size());
    EXPECT_TRUE(IsValidBioSequence(x.tag_labels));
    EXPECT_GE(static_cast<int>(x.tokens.size()), config_.min_len);
    EXPECT_LE(static_cast<int>(x.tokens.size()), config_.max_len);
  }
}

TEST_F(NerGenTest, EverySentenceHasAtLeastOneEntity) {
  int with_entity = 0;
  for (const Instance& x : corpus_.train.instances) {
    if (!ExtractSpans(x.tag_labels).empty()) ++with_entity;
  }
  // Placement can occasionally fail, but almost all sentences have entities.
  EXPECT_GT(with_entity, 290);
}

TEST_F(NerGenTest, EntityGapInvariant) {
  // Generated entities never touch: there is at least one O between spans.
  for (const Instance& x : corpus_.train.instances) {
    const auto spans = ExtractSpans(x.tag_labels);
    for (size_t s = 1; s < spans.size(); ++s) {
      EXPECT_GE(spans[s].begin, spans[s - 1].end + 1);
    }
  }
}

TEST_F(NerGenTest, AllFourTypesAppear) {
  std::set<int> types;
  for (const Instance& x : corpus_.train.instances) {
    for (const auto& span : ExtractSpans(x.tag_labels)) types.insert(span.type);
  }
  EXPECT_EQ(types.size(), static_cast<size_t>(kNumEntityTypes));
}

TEST_F(NerGenTest, EntityLengthsWithinThree) {
  for (const Instance& x : corpus_.train.instances) {
    for (const auto& span : ExtractSpans(x.tag_labels)) {
      EXPECT_GE(span.end - span.begin, 1);
      EXPECT_LE(span.end - span.begin, 3);
    }
  }
}

TEST_F(NerGenTest, ReproducibleFromSeed) {
  Rng rng(7);
  const NerCorpus again = GenerateNerCorpus(config_, 300, 50, 50, &rng);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(again.train.instances[i].tokens,
              corpus_.train.instances[i].tokens);
    EXPECT_EQ(again.train.instances[i].tag_labels,
              corpus_.train.instances[i].tag_labels);
  }
}


// -------------------------------------------------------------------- IO --

TEST(ConllIoTest, RoundTripPreservesEverything) {
  Rng rng(31);
  NerGenConfig gcfg;
  const NerCorpus corpus = GenerateNerCorpus(gcfg, 40, 1, 1, &rng);
  std::stringstream ss;
  SaveConll(ss, corpus.train, corpus.vocab);

  Vocab vocab2;
  Dataset loaded;
  ASSERT_TRUE(LoadConll(ss, &vocab2, &loaded));
  ASSERT_EQ(loaded.size(), corpus.train.size());
  for (int i = 0; i < loaded.size(); ++i) {
    const Instance& a = corpus.train.instances[i];
    const Instance& b = loaded.instances[i];
    ASSERT_EQ(a.tokens.size(), b.tokens.size());
    EXPECT_EQ(a.tag_labels, b.tag_labels);
    for (size_t t = 0; t < a.tokens.size(); ++t) {
      EXPECT_EQ(corpus.vocab.TokenOf(a.tokens[t]), vocab2.TokenOf(b.tokens[t]));
    }
  }
}

TEST(ConllIoTest, RejectsMalformedLines) {
  Vocab vocab;
  Dataset d;
  std::stringstream no_tab("word-without-tab\n");
  EXPECT_FALSE(LoadConll(no_tab, &vocab, &d));
  std::stringstream bad_tag("word\tB-NOPE\n");
  EXPECT_FALSE(LoadConll(bad_tag, &vocab, &d));
}

TEST(ConllIoTest, ParsesHandWrittenFile) {
  std::stringstream ss(
      "John\tB-PER\nSmith\tI-PER\nvisited\tO\nParis\tB-LOC\n\n"
      "Acme\tB-ORG\n\n");
  Vocab vocab;
  Dataset d;
  ASSERT_TRUE(LoadConll(ss, &vocab, &d));
  ASSERT_EQ(d.size(), 2);
  EXPECT_EQ(d.instances[0].tag_labels,
            (std::vector<int>{kBPer, kIPer, kO, kBLoc}));
  EXPECT_EQ(d.instances[1].tag_labels, (std::vector<int>{kBOrg}));
  EXPECT_EQ(vocab.TokenOf(d.instances[0].tokens[3]), "Paris");
}

TEST(SentimentTsvTest, RoundTrip) {
  Rng rng(32);
  SentimentGenConfig gcfg;
  const SentimentCorpus corpus = GenerateSentimentCorpus(gcfg, 30, 1, 1, &rng);
  std::stringstream ss;
  SaveSentimentTsv(ss, corpus.train, corpus.vocab);

  Vocab vocab2;
  Dataset loaded;
  ASSERT_TRUE(LoadSentimentTsv(ss, &vocab2, &loaded));
  ASSERT_EQ(loaded.size(), corpus.train.size());
  EXPECT_EQ(loaded.num_classes, 2);
  for (int i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.instances[i].label, corpus.train.instances[i].label);
    EXPECT_EQ(loaded.instances[i].tokens.size(),
              corpus.train.instances[i].tokens.size());
  }
}

TEST(SentimentTsvTest, RejectsBadLabels) {
  Vocab vocab;
  Dataset d;
  std::stringstream negative("-2\tsome words\n");
  EXPECT_FALSE(LoadSentimentTsv(negative, &vocab, &d));
  Dataset d2;
  std::stringstream junk("abc\tsome words\n");
  EXPECT_FALSE(LoadSentimentTsv(junk, &vocab, &d2));
  Dataset d3;
  std::stringstream trailing("1x\tgood movie\n");
  EXPECT_FALSE(LoadSentimentTsv(trailing, &vocab, &d3));
  Dataset d4;
  std::stringstream int_max("2147483647\tgood movie\n");
  EXPECT_FALSE(LoadSentimentTsv(int_max, &vocab, &d4));
}


// ------------------------------------------------ Generator statistics --

TEST_F(SentimentGenTest, DifficultyHigherForContrastSentences) {
  double contrast = 0.0, plain = 0.0;
  int n_contrast = 0, n_plain = 0;
  for (const Instance& x : corpus_.train.instances) {
    if (x.contrast_index >= 0) {
      contrast += x.difficulty;
      ++n_contrast;
    } else {
      plain += x.difficulty;
      ++n_plain;
    }
  }
  ASSERT_GT(n_contrast, 10);
  ASSERT_GT(n_plain, 10);
  EXPECT_GT(contrast / n_contrast, plain / n_plain);
}

TEST_F(SentimentGenTest, SentimentWordsCorrelateWithLabels) {
  // Count polarity-lexicon tokens per class: positive sentences must carry
  // more "pos*" words than negative ones (this is what the CNN learns).
  long pos_in_pos = 0, pos_in_neg = 0, tokens_pos = 0, tokens_neg = 0;
  for (const Instance& x : corpus_.train.instances) {
    for (int t : x.tokens) {
      const std::string& w = corpus_.vocab.TokenOf(t);
      const bool is_pos_word = w.rfind("pos", 0) == 0;
      if (x.label == kSentimentPositive) {
        pos_in_pos += is_pos_word;
        ++tokens_pos;
      } else {
        pos_in_neg += is_pos_word;
        ++tokens_neg;
      }
    }
  }
  const double rate_pos = static_cast<double>(pos_in_pos) / tokens_pos;
  const double rate_neg = static_cast<double>(pos_in_neg) / tokens_neg;
  EXPECT_GT(rate_pos, 2.0 * rate_neg);
}

TEST_F(NerGenTest, DifficultyTracksAmbiguousWords) {
  // Mean difficulty should increase with sentence entity count (ambiguous
  // entity words drive the difficulty model).
  double with_many = 0.0, with_few = 0.0;
  int n_many = 0, n_few = 0;
  for (const Instance& x : corpus_.train.instances) {
    const size_t entities = ExtractSpans(x.tag_labels).size();
    if (entities >= 2) {
      with_many += x.difficulty;
      ++n_many;
    } else {
      with_few += x.difficulty;
      ++n_few;
    }
  }
  if (n_many > 10 && n_few > 10) {
    EXPECT_GE(with_many / n_many, with_few / n_few - 0.02);
  }
}

TEST_F(NerGenTest, SplitsComeFromTheSameDistribution) {
  // Entity rates in train and test should be close (same generator).
  auto entity_rate = [](const Dataset& d) {
    long entities = 0, tokens = 0;
    for (const Instance& x : d.instances) {
      entities += ExtractSpans(x.tag_labels).size();
      tokens += x.tokens.size();
    }
    return static_cast<double>(entities) / tokens;
  };
  EXPECT_NEAR(entity_rate(corpus_.train), entity_rate(corpus_.test), 0.03);
}

}  // namespace
}  // namespace lncl::data
