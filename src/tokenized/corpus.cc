#include "tokenized/corpus.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace tsj {

TokenId Corpus::InternToken(std::string_view token) {
  auto it = token_index_.find(std::string(token));
  if (it != token_index_.end()) return it->second;
  const TokenId id = static_cast<TokenId>(token_texts_.size());
  token_texts_.emplace_back(token);
  token_index_.emplace(token_texts_.back(), id);
  return id;
}

StringId Corpus::AddString(const TokenizedString& tokens) {
  // The columns index with uint32_t: reject a string that would overflow
  // the occurrence offsets or its aggregate length instead of wrapping.
  constexpr uint64_t kMax = std::numeric_limits<uint32_t>::max();
  uint64_t aggregate = 0;
  for (const auto& token : tokens) aggregate += token.size();
  if (token_ids_.size() + tokens.size() > kMax || aggregate > kMax) {
    throw std::length_error("Corpus: string exceeds the uint32_t columns");
  }
  const size_t begin = token_ids_.size();
  for (const auto& token : tokens) {
    token_ids_.push_back(InternToken(token));
    histograms_.push_back(static_cast<uint32_t>(token.size()));
  }
  std::sort(histograms_.begin() + begin, histograms_.end());
  offsets_.push_back(static_cast<uint32_t>(token_ids_.size()));
  aggregate_lengths_.push_back(static_cast<uint32_t>(aggregate));
  return static_cast<StringId>(aggregate_lengths_.size() - 1);
}

TokenizedString Corpus::Materialize(StringId id) const {
  TokenizedString out;
  MaterializeInto(id, &out);
  return out;
}

void Corpus::MaterializeInto(StringId id, TokenizedString* out) const {
  const std::span<const TokenId> ids = tokens(id);
  out->resize(ids.size());
  // std::string::assign reuses each slot's character buffer when the
  // capacity suffices.
  for (size_t i = 0; i < ids.size(); ++i) {
    (*out)[i].assign(token_texts_[ids[i]]);
  }
}

std::vector<uint32_t> Corpus::ComputeTokenStringFrequencies() const {
  // last_string[t] is the last string counted for token t, so a token
  // repeated within one string counts once, without a per-string sort.
  std::vector<uint32_t> freq(token_texts_.size(), 0);
  std::vector<StringId> last_string(token_texts_.size(),
                                    std::numeric_limits<StringId>::max());
  for (StringId s = 0; s < size(); ++s) {
    for (TokenId t : tokens(s)) {
      if (last_string[t] != s) {
        last_string[t] = s;
        ++freq[t];
      }
    }
  }
  return freq;
}

}  // namespace tsj
