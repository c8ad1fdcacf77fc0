#include "predict/ppm.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace specpf {

PpmPredictor::PpmPredictor(std::size_t max_order) : max_order_(max_order) {
  SPECPF_EXPECTS(max_order >= 1);
}

std::uint64_t PpmPredictor::hash_context(
    const std::deque<std::uint64_t>& history, std::size_t length) {
  // FNV-1a over the most recent `length` items plus the length itself, so
  // contexts of different orders never collide by construction.
  std::uint64_t h = 14695981039346656037ULL ^ (length * 0x9E3779B97F4A7C15ULL);
  const std::size_t start = history.size() - length;
  for (std::size_t i = start; i < history.size(); ++i) {
    h ^= history[i];
    h *= 1099511628211ULL;
    h ^= h >> 29;
  }
  return h;
}

void PpmPredictor::observe(UserId user, std::uint64_t item) {
  auto& hist = history_[user];
  // Update every context order ending just before this access.
  for (std::size_t order = 1; order <= std::min(max_order_, hist.size());
       ++order) {
    ContextCounts& ctx = contexts_[hash_context(hist, order)];
    ++ctx.successors[item];
    ++ctx.total;
  }
  hist.push_back(item);
  if (hist.size() > max_order_) hist.pop_front();
}

std::vector<Candidate> PpmPredictor::predict(
    UserId user, std::size_t max_candidates) const {
  const std::deque<std::uint64_t>* hist = history_.find(user);
  if (!hist || hist->empty()) return {};

  // PPM-C blending: start from the longest matching context; its
  // predictions get weight (1 - escape); the escape mass flows to the next
  // shorter context, and so on.
  FlatHashMap<double> blended;
  double carry = 1.0;  // probability mass not yet assigned
  for (std::size_t order = std::min(max_order_, hist->size()); order >= 1;
       --order) {
    const ContextCounts* ctx = contexts_.find(hash_context(*hist, order));
    if (!ctx || ctx->total == 0) continue;
    const double distinct = static_cast<double>(ctx->successors.size());
    const double total = static_cast<double>(ctx->total);
    const double escape = distinct / (total + distinct);
    for (const auto& [item, count] : ctx->successors) {
      blended[item] +=
          carry * (1.0 - escape) * static_cast<double>(count) / total;
    }
    carry *= escape;
    if (carry < 1e-6) break;
  }
  if (blended.empty()) return {};

  std::vector<Candidate> out;
  out.reserve(blended.size());
  for (const auto& [item, prob] : blended) out.push_back(Candidate{item, prob});
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.probability != b.probability) return a.probability > b.probability;
    return a.item < b.item;
  });
  if (out.size() > max_candidates) out.resize(max_candidates);
  return out;
}

}  // namespace specpf
