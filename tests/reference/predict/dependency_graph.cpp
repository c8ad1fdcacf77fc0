#include "predict/dependency_graph.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace specpf {

DependencyGraphPredictor::DependencyGraphPredictor(std::size_t lookahead)
    : lookahead_(lookahead) {
  SPECPF_EXPECTS(lookahead >= 1);
}

void DependencyGraphPredictor::observe(UserId user, std::uint64_t item) {
  auto& window = window_[user];
  // Credit `item` as a follower of each access still inside the window —
  // at most once per occurrence. The window holds at most `lookahead_`
  // entries (a handful), so de-duplicating by scanning the window prefix
  // beats materializing a per-call hash set.
  for (std::size_t i = 0; i < window.size(); ++i) {
    const std::uint64_t predecessor = window[i];
    if (predecessor == item) continue;
    if (std::find(window.begin(), window.begin() + static_cast<std::ptrdiff_t>(i),
                  predecessor) != window.begin() + static_cast<std::ptrdiff_t>(i)) {
      continue;  // duplicate window slot, already credited this occurrence
    }
    ++graph_[predecessor].followers[item];
  }
  ++graph_[item].occurrences;
  window.push_back(item);
  if (window.size() > lookahead_) window.pop_front();
}

std::vector<Candidate> DependencyGraphPredictor::predict(
    UserId user, std::size_t max_candidates) const {
  const std::deque<std::uint64_t>* window = window_.find(user);
  if (!window || window->empty()) return {};
  const std::uint64_t current = window->back();
  const NodeCounts* node = graph_.find(current);
  if (!node || node->occurrences == 0) return {};

  std::vector<Candidate> out;
  out.reserve(node->followers.size());
  const double occurrences = static_cast<double>(node->occurrences);
  for (const auto& [item, count] : node->followers) {
    // P(B follows A within w) estimated as count / occurrences(A); clip to 1
    // (a follower can be credited once per occurrence, so this stays <= 1).
    out.push_back(
        Candidate{item, std::min(1.0, static_cast<double>(count) / occurrences)});
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.probability != b.probability) return a.probability > b.probability;
    return a.item < b.item;
  });
  if (out.size() > max_candidates) out.resize(max_candidates);
  return out;
}

double DependencyGraphPredictor::dependency_probability(std::uint64_t a,
                                                        std::uint64_t b) const {
  const NodeCounts* node = graph_.find(a);
  if (!node || node->occurrences == 0) return 0.0;
  const std::uint64_t* count = node->followers.find(b);
  if (!count) return 0.0;
  return static_cast<double>(*count) /
         static_cast<double>(node->occurrences);
}

}  // namespace specpf
