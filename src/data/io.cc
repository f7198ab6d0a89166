#include "data/io.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>

#include "data/bio.h"
#include "util/logging.h"

namespace lncl::data {

namespace {

// Reverse lookup of a BIO tag name; -1 when unknown.
int TagByName(const std::string& name) {
  for (int label = 0; label < kNumBioLabels; ++label) {
    if (BioLabelName(label) == name) return label;
  }
  return -1;
}

}  // namespace

void SaveConll(std::ostream& os, const Dataset& dataset, const Vocab& vocab) {
  LNCL_CHECK(dataset.sequence);
  for (const Instance& x : dataset.instances) {
    for (size_t t = 0; t < x.tokens.size(); ++t) {
      os << vocab.TokenOf(x.tokens[t]) << "\t"
         << BioLabelName(x.tag_labels[t]) << "\n";
    }
    os << "\n";
  }
}

bool LoadConll(std::istream& is, Vocab* vocab, Dataset* dataset) {
  dataset->sequence = true;
  dataset->num_classes = kNumBioLabels;
  Instance current;
  std::string line;
  auto flush = [&]() {
    if (!current.tokens.empty()) {
      dataset->instances.push_back(std::move(current));
      current = Instance();
    }
  };
  while (std::getline(is, line)) {
    if (line.empty()) {
      flush();
      continue;
    }
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) return false;
    const std::string token = line.substr(0, tab);
    const int tag = TagByName(line.substr(tab + 1));
    if (token.empty() || tag < 0) return false;
    current.tokens.push_back(vocab->Add(token));
    current.tag_labels.push_back(tag);
  }
  flush();
  return true;
}

void SaveSentimentTsv(std::ostream& os, const Dataset& dataset,
                      const Vocab& vocab) {
  for (const Instance& x : dataset.instances) {
    os << x.label << "\t";
    for (size_t t = 0; t < x.tokens.size(); ++t) {
      if (t > 0) os << " ";
      os << vocab.TokenOf(x.tokens[t]);
    }
    os << "\n";
  }
}

bool LoadSentimentTsv(std::istream& is, Vocab* vocab, Dataset* dataset) {
  dataset->sequence = false;
  std::string line;
  int max_label = dataset->num_classes - 1;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) return false;
    Instance x;
    const std::string label = line.substr(0, tab);
    try {
      size_t used = 0;
      x.label = std::stoi(label, &used);
      if (used != label.size()) return false;
    } catch (...) {
      return false;
    }
    // num_classes is max_label + 1, so the largest int is no label.
    if (x.label < 0 || x.label == std::numeric_limits<int>::max()) {
      return false;
    }
    max_label = std::max(max_label, x.label);
    std::istringstream tokens(line.substr(tab + 1));
    std::string token;
    while (tokens >> token) x.tokens.push_back(vocab->Add(token));
    if (x.tokens.empty()) return false;
    dataset->instances.push_back(std::move(x));
  }
  dataset->num_classes = max_label + 1;
  return true;
}

}  // namespace lncl::data
