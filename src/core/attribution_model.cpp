#include "core/attribution_model.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "ml/dataset.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace sca::core {

AttributionModel::AttributionModel(ModelConfig config)
    : config_(config),
      extractor_(config.extractor),
      forest_(config.forest) {}

void AttributionModel::train(const std::vector<std::string>& sources,
                             const std::vector<int>& labels) {
  if (sources.size() != labels.size()) {
    throw std::invalid_argument("AttributionModel::train: size mismatch");
  }
  if (sources.empty()) {
    throw std::invalid_argument("AttributionModel::train: empty corpus");
  }
  extractor_ = features::FeatureExtractor(config_.extractor);
  extractor_.fit(sources);
  const std::vector<std::vector<double>> x = extractor_.transformAll(sources);
  obs::Span phase("forest_train", obs::kPhaseCategory);
  selector_ = features::FeatureSelector();
  selector_.fit(x, labels, config_.selectTopK);
  ml::Dataset data;
  data.x = selector_.applyAll(x);
  data.y = labels;
  forest_ = ml::RandomForest(config_.forest);
  forest_.fit(data);
}

int AttributionModel::predict(const std::string& source) const {
  return forest_.predict(selector_.apply(extractor_.transform(source)));
}

std::vector<int> AttributionModel::predictAll(
    const std::vector<std::string>& sources) const {
  obs::Span phase("predict", obs::kPhaseCategory);
  std::vector<std::vector<double>> rows =
      runtime::parallelMap<std::vector<double>>(
          sources.size(),
          [&](std::size_t i) {
            return selector_.apply(extractor_.transform(sources[i]));
          },
          runtime::ParallelOptions{.maxWorkers = 0, .grain = 8});
  return forest_.predictAll(rows);
}

std::vector<double> AttributionModel::predictProba(
    const std::string& source) const {
  return forest_.predictProba(selector_.apply(extractor_.transform(source)));
}

std::vector<std::pair<std::string, double>> AttributionModel::topFeatures(
    std::size_t n) const {
  const std::size_t projected = selector_.identity()
                                    ? extractor_.dimension()
                                    : selector_.selected().size();
  const std::vector<double> importances =
      forest_.featureImportances(projected);
  std::vector<std::pair<std::string, double>> named;
  named.reserve(projected);
  const auto& names = extractor_.featureNames();
  for (std::size_t i = 0; i < projected; ++i) {
    const std::size_t original =
        selector_.identity() ? i : selector_.selected()[i];
    named.emplace_back(original < names.size() ? names[original]
                                               : "f" + std::to_string(original),
                       importances[i]);
  }
  std::sort(named.begin(), named.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (named.size() > n) named.resize(n);
  return named;
}

namespace {

void writeTerms(std::ostream& os, const char* tag,
                const std::vector<std::string>& terms) {
  os << tag << ' ' << terms.size() << '\n';
  for (const std::string& term : terms) os << term << '\n';
}

std::vector<std::string> readTerms(std::istream& is, const char* tag) {
  std::string seen;
  std::size_t count = 0;
  if (!(is >> seen >> count) || seen != tag) {
    throw std::runtime_error(std::string("model load: expected ") + tag);
  }
  std::vector<std::string> terms(count);
  for (std::string& term : terms) {
    if (!(is >> term)) {
      throw std::runtime_error("model load: truncated term list");
    }
  }
  return terms;
}

}  // namespace

void AttributionModel::save(std::ostream& os) const {
  os << "sca-attribution-model v1\n";
  os << "config " << config_.extractor.useLexical << ' '
     << config_.extractor.useLayout << ' ' << config_.extractor.useSyntactic
     << ' ' << config_.extractor.identifierVocabulary << ' '
     << config_.extractor.bigramVocabulary << '\n';
  writeTerms(os, "ident-vocab", extractor_.identifierVocabulary().terms());
  writeTerms(os, "bigram-vocab", extractor_.bigramVocabulary().terms());
  os << "selector " << selector_.selected().size() << '\n';
  for (const std::size_t idx : selector_.selected()) os << idx << ' ';
  os << '\n';
  forest_.save(os);
}

AttributionModel AttributionModel::load(std::istream& is) {
  std::string magic, version;
  if (!(is >> magic >> version) || magic != "sca-attribution-model" ||
      version != "v1") {
    throw std::runtime_error("model load: bad magic/version");
  }
  std::string tag;
  ModelConfig config;
  if (!(is >> tag >> config.extractor.useLexical >>
        config.extractor.useLayout >> config.extractor.useSyntactic >>
        config.extractor.identifierVocabulary >>
        config.extractor.bigramVocabulary) ||
      tag != "config") {
    throw std::runtime_error("model load: bad config line");
  }
  auto identVocab =
      features::Vocabulary::fromTerms(readTerms(is, "ident-vocab"));
  auto bigramVocab =
      features::Vocabulary::fromTerms(readTerms(is, "bigram-vocab"));
  std::size_t selectedCount = 0;
  if (!(is >> tag >> selectedCount) || tag != "selector") {
    throw std::runtime_error("model load: bad selector line");
  }
  AttributionModel model(config);
  model.extractor_ = features::FeatureExtractor(
      config.extractor, std::move(identVocab), std::move(bigramVocab));
  const std::size_t dimension = model.extractor_.dimension();
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < selectedCount; ++i) {
    std::size_t idx = 0;
    if (!(is >> idx)) {
      throw std::runtime_error("model load: truncated selector");
    }
    if (idx >= dimension) {
      throw std::runtime_error("model load: selector index " +
                               std::to_string(idx) + " out of range");
    }
    selected.push_back(idx);
  }
  // The forest was fitted on the selector's projection, so its splits
  // must stay inside that width.
  const std::size_t projected = selected.empty() ? dimension : selected.size();
  model.selector_ = features::FeatureSelector::fromIndices(std::move(selected));
  model.forest_ = ml::RandomForest::load(is, projected);
  return model;
}

void AttributionModel::saveFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  save(os);
  if (!os) throw std::runtime_error("write failed: " + path);
}

AttributionModel AttributionModel::loadFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load(is);
}

}  // namespace sca::core
