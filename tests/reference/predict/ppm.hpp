// PPM-style higher-order context predictor (prediction by partial match),
// the data-compression approach of Vitter & Krishnan [13]: contexts of
// length k, k-1, ..., 1 are blended, longer contexts weighted by escape
// probabilities (method C: escape mass = distinct successors / (total +
// distinct)).
#pragma once

#include <deque>
#include <vector>

#include "predict/predictor.hpp"
#include "util/flat_hash.hpp"

namespace specpf {

class PpmPredictor final : public Predictor {
 public:
  /// `max_order` >= 1: longest context length used.
  explicit PpmPredictor(std::size_t max_order = 3);

  void observe(UserId user, std::uint64_t item) override;
  std::vector<Candidate> predict(UserId user,
                                 std::size_t max_candidates) const override;

  std::size_t max_order() const { return max_order_; }
  std::size_t context_count() const { return contexts_.size(); }

 private:
  struct ContextCounts {
    FlatHashMap<std::uint64_t> successors;
    std::uint64_t total = 0;
  };

  /// Hash of an item sequence (order-dependent).
  static std::uint64_t hash_context(const std::deque<std::uint64_t>& history,
                                    std::size_t length);

  std::size_t max_order_;
  FlatHashMap<ContextCounts> contexts_;
  FlatHashMap<std::deque<std::uint64_t>> history_;
};

}  // namespace specpf
