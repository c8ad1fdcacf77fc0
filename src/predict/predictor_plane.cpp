#include "predict/predictor_plane.hpp"

#include <algorithm>

#include "predict/context_arena.hpp"
#include "util/contract.hpp"
#include "workload/session_graph.hpp"

namespace specpf {

namespace {

using core::Candidate;

bool candidate_before(const Candidate& a, const Candidate& b) {
  if (a.probability != b.probability) return a.probability > b.probability;
  return a.item < b.item;  // deterministic tie order
}

/// Batched top-k: partial-select the k best candidates, then sort only
/// those. Items within one prediction are unique and ties break by item,
/// so the comparator is a strict total order — the result is bit-identical
/// to the reference tables' full sort + truncate, at O(n + k log k) instead of
/// O(n log n).
void select_top_candidates(std::vector<Candidate>& candidates, std::size_t k) {
  if (candidates.size() > k) {
    std::nth_element(candidates.begin(),
                     candidates.begin() + static_cast<std::ptrdiff_t>(k),
                     candidates.end(), candidate_before);
    candidates.resize(k);
  }
  std::sort(candidates.begin(), candidates.end(), candidate_before);
}

// --- frequency: one global context ----------------------------------------

class FrequencyPlane final : public PredictorPlane {
 public:
  explicit FrequencyPlane(std::size_t max_candidates)
      : arena_(max_candidates), ctx_(arena_.intern(0)) {}

  void observe(UserId /*user*/, std::uint64_t item) override {
    arena_.add(ctx_, arena_.intern_item(item));
  }

  void predict_into(UserId /*user*/, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    SPECPF_EXPECTS(max_candidates <= arena_.top_capacity());
    out.clear();
    const std::uint64_t total = arena_.total(ctx_);
    if (total == 0) return;
    // p = c/total is strictly increasing in c: the ranked head is already
    // in candidate_before order.
    const double total_d = static_cast<double>(total);
    arena_.for_each_top(ctx_, max_candidates,
                        [&](std::uint64_t item, std::uint16_t c) {
      out.push_back(Candidate{item, static_cast<double>(c) / total_d});
    });
  }

  std::uint64_t counter_halvings() const override { return arena_.halvings(); }
  std::uint64_t context_count() const override {
    return arena_.context_count();
  }

  void audit(AuditReport& report) const override { arena_.audit(report); }

 private:
  ContextArena arena_;
  ContextArena::CtxId ctx_;
};

// --- markov: one context per last item -------------------------------------

class MarkovPlane final : public PredictorPlane {
 public:
  MarkovPlane(std::size_t num_users, double laplace,
              std::size_t max_candidates)
      : laplace_(laplace),
        arena_(max_candidates),
        last_(num_users, 0),
        has_last_(num_users, 0) {
    // Up to 2^32, c + α and (c + α)/denom stay distinct for distinct
    // counts c <= 65535; above it they may round to ties that the ranked
    // head would order by count, not by item as candidate_before does.
    SPECPF_EXPECTS(laplace >= 0.0 && laplace <= 4294967296.0);
  }

  void observe(UserId user, std::uint64_t item) override {
    SPECPF_EXPECTS(user < last_.size());
    if (has_last_[user]) {
      arena_.add(arena_.intern(last_[user]), arena_.intern_item(item));
    }
    last_[user] = item;
    has_last_[user] = 1;
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    SPECPF_EXPECTS(max_candidates <= arena_.top_capacity());
    out.clear();
    if (!has_last_[user]) return;
    const ContextArena::CtxId ctx = arena_.find(last_[user]);
    if (ctx == ContextArena::kNoCtx || arena_.total(ctx) == 0) return;
    // p = (c + α)/denom is strictly increasing in c: the ranked head is
    // already in candidate_before order.
    const double denom =
        static_cast<double>(arena_.total(ctx)) +
        laplace_ * static_cast<double>(arena_.distinct(ctx));
    arena_.for_each_top(ctx, max_candidates,
                        [&](std::uint64_t item, std::uint16_t c) {
      out.push_back(Candidate{item, (static_cast<double>(c) + laplace_) / denom});
    });
  }

  std::uint64_t counter_halvings() const override { return arena_.halvings(); }
  std::uint64_t context_count() const override {
    return arena_.context_count();
  }

  void audit(AuditReport& report) const override { arena_.audit(report); }

 private:
  double laplace_;
  ContextArena arena_;
  std::vector<std::uint64_t> last_;
  std::vector<std::uint8_t> has_last_;
};

// --- ppm: order-k context trie over hashed histories ------------------------

class PpmPlane final : public PredictorPlane {
 public:
  /// Ranked-head depth per allowed candidate. The bounded read settles
  /// only once the heads reach past k (perf_cache_predict's wide-fan-out
  /// stream falls back on under 1 call in 10^4 at 4k); the lazy head
  /// blocks keep the extra depth cheap in memory.
  static constexpr std::size_t kHeadDepthPerCandidate = 4;

  PpmPlane(std::size_t num_users, std::size_t max_order,
           std::size_t max_candidates)
      : max_order_(max_order),
        max_candidates_(max_candidates),
        arena_(kHeadDepthPerCandidate * max_candidates),
        history_(num_users, max_order) {
    SPECPF_EXPECTS(max_order >= 1);
  }

  void observe(UserId user, std::uint64_t item) override {
    const std::uint32_t item_id = arena_.intern_item(item);
    const std::size_t len = history_.size(user);
    for (std::size_t order = 1; order <= std::min(max_order_, len); ++order) {
      arena_.add(arena_.intern(context_hash(user, order)), item_id);
    }
    history_.push(user, item);
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    SPECPF_EXPECTS(max_candidates <= max_candidates_);
    out.clear();
    if (history_.size(user) == 0 || max_candidates == 0) return;
    collect_orders(user);
    if (orders_.empty()) return;
    if (!read_heads(max_candidates, out)) {
      ++full_scans_;
      scan_all(max_candidates, out);
    }
  }

  std::uint64_t full_scans() const override { return full_scans_; }
  std::uint64_t counter_halvings() const override { return arena_.halvings(); }
  std::uint64_t context_count() const override {
    return arena_.context_count();
  }

  void audit(AuditReport& report) const override { arena_.audit(report); }

 private:
  /// One matching context of the blend. Its term for a successor counted
  /// c is weight * c / total, evaluated exactly as the reference table's
  /// carry * (1 - escape) * c / total.
  struct Order {
    ContextArena::CtxId ctx;
    double weight;        ///< carry * (1 - escape)
    double total;         ///< context total
    std::uint32_t len;    ///< ranked-head length
    bool off_head;        ///< successors beyond the head exist
  };

  static double term(const Order& o, std::uint16_t c) {
    return o.weight * static_cast<double>(c) / o.total;
  }

  /// PPM-C blending weights, replicated from the reference table: the longest
  /// matching context's predictions carry weight (1 - escape), the escape
  /// mass flows to the next shorter context, and so on, until the carried
  /// mass drops below 1e-6. Fills orders_, longest first.
  void collect_orders(UserId user) const {
    orders_.clear();
    double carry = 1.0;
    for (std::size_t order = std::min(max_order_, history_.size(user));
         order >= 1; --order) {
      const ContextArena::CtxId ctx = arena_.find(context_hash(user, order));
      if (ctx == ContextArena::kNoCtx || arena_.total(ctx) == 0) continue;
      const double distinct = static_cast<double>(arena_.distinct(ctx));
      const double total = static_cast<double>(arena_.total(ctx));
      const double escape = distinct / (total + distinct);
      const std::uint32_t len = arena_.top_len(ctx);
      orders_.push_back(Order{ctx, carry * (1.0 - escape), total, len,
                              arena_.distinct(ctx) > len});
      carry *= escape;
      if (carry < 1e-6) break;
    }
  }

  /// An item's exact blend: its terms summed in descending-order sequence,
  /// the same additions as the reference table, so the sum is bit-identical.
  /// Order `from` already knows the count `c` (read off its head).
  double blend(std::uint32_t item_id, std::size_t from,
               std::uint16_t c) const {
    double p = 0.0;
    for (std::size_t j = 0; j < orders_.size(); ++j) {
      const std::uint16_t cj =
          j == from ? c : arena_.count(orders_[j].ctx, item_id);
      if (cj != 0) p += term(orders_[j], cj);
    }
    return p;
  }

  /// Threshold-algorithm top-k over the orders' ranked heads, read depth
  /// by depth. Every newly seen item gets its exact blend. Before each
  /// depth, the bound on any unseen item sums, in the same sequence, each
  /// order's term at its next unread count (an exhausted head: its last
  /// count while off-head successors remain, else nothing). Terms are
  /// non-negative and IEEE rounding is monotone, so no unseen item's blend
  /// exceeds the bound; once the k-th best seen candidate is strictly above
  /// it, `out` is the exact top k. Returns false when the heads run out
  /// with off-head successors still able to reach the top k.
  bool read_heads(std::size_t k, std::vector<Candidate>& out) const {
    seen_.clear();
    for (std::uint32_t depth = 0;; ++depth) {
      double bound = 0.0;
      bool unread = false;
      bool off_head = false;
      for (const Order& o : orders_) {
        if (depth < o.len) {
          bound += term(o, arena_.top_at(o.ctx, depth).count);
          unread = true;
        } else if (o.off_head) {
          bound += term(o, arena_.top_at(o.ctx, o.len - 1).count);
          off_head = true;
        }
      }
      if (out.size() == k && out.back().probability > bound) return true;
      if (!unread) return !off_head;
      for (std::size_t j = 0; j < orders_.size(); ++j) {
        if (depth >= orders_[j].len) continue;
        const ContextArena::Ranked r = arena_.top_at(orders_[j].ctx, depth);
        if (std::find(seen_.begin(), seen_.end(), r.item_id) != seen_.end()) {
          continue;
        }
        seen_.push_back(r.item_id);
        const Candidate cand{arena_.item_value(r.item_id),
                             blend(r.item_id, j, r.count)};
        if (out.size() == k) {
          if (!candidate_before(cand, out.back())) continue;
          out.pop_back();
        }
        out.insert(std::upper_bound(out.begin(), out.end(), cand,
                                    candidate_before),
                   cand);
      }
    }
  }

  /// The exact fallback: blend every successor of every order, then rank.
  void scan_all(std::size_t k, std::vector<Candidate>& out) const {
    blended_.clear();
    for (const Order& o : orders_) {
      arena_.for_each_successor(o.ctx, [&](std::uint64_t item, std::uint16_t c) {
        blended_[item] += term(o, c);
      });
    }
    out.clear();
    out.reserve(blended_.size());
    for (const auto& [item, prob] : blended_) {
      out.push_back(Candidate{item, prob});
    }
    select_top_candidates(out, k);
  }

  /// Hash of the user's most recent `length` items — the same FNV-1a mix
  /// (seeded by the length) as PpmPredictor::hash_context, so context
  /// interning groups observations exactly as the reference table does,
  /// including any 64-bit hash collisions.
  std::uint64_t context_hash(UserId user, std::size_t length) const {
    std::uint64_t h =
        14695981039346656037ULL ^ (length * 0x9E3779B97F4A7C15ULL);
    const std::size_t len = history_.size(user);
    for (std::size_t i = len - length; i < len; ++i) {
      h ^= history_.at(user, i);
      h *= 1099511628211ULL;
      h ^= h >> 29;
    }
    return h;
  }

  std::size_t max_order_;
  std::size_t max_candidates_;
  ContextArena arena_;
  HistoryRing history_;
  /// Scratch for predict_into; cleared per call, capacity persists (no
  /// steady-state allocation). The plane is single-threaded like the
  /// runtime that owns it — the sharded driver builds one plane per shard.
  mutable std::vector<Order> orders_;
  mutable std::vector<std::uint32_t> seen_;
  mutable FlatHashMap<double> blended_;
  mutable std::uint64_t full_scans_ = 0;
};

// --- dependency graph: lookahead-window follower credits --------------------

class DependencyGraphPlane final : public PredictorPlane {
 public:
  DependencyGraphPlane(std::size_t num_users, std::size_t lookahead)
      : window_(num_users, lookahead) {
    SPECPF_EXPECTS(lookahead >= 1);
  }

  void observe(UserId user, std::uint64_t item) override {
    const std::size_t len = window_.size(user);
    // Credit `item` as a follower of each access still inside the window —
    // at most once per occurrence, deduplicating by prefix scan exactly
    // like the reference table (the window holds a handful of entries).
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t predecessor = window_.at(user, i);
      if (predecessor == item) continue;
      bool duplicate = false;
      for (std::size_t j = 0; j < i; ++j) {
        if (window_.at(user, j) == predecessor) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      arena_.add(arena_.intern(predecessor), arena_.intern_item(item));
    }
    arena_.bump_aux(arena_.intern(item));
    window_.push(user, item);
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    out.clear();
    if (window_.size(user) == 0) return;
    const ContextArena::CtxId ctx = arena_.find(window_.newest(user));
    if (ctx == ContextArena::kNoCtx || arena_.aux(ctx) == 0) return;
    const double occurrences = static_cast<double>(arena_.aux(ctx));
    arena_.for_each_successor(ctx, [&](std::uint64_t item, std::uint16_t c) {
      // P(B follows A within w) = count / occurrences(A), clipped to 1.
      out.push_back(Candidate{
          item, std::min(1.0, static_cast<double>(c) / occurrences)});
    });
    // Scan, not a ranked head: the clip ties distinct counts at 1.0.
    select_top_candidates(out, max_candidates);
  }

  std::uint64_t counter_halvings() const override { return arena_.halvings(); }
  std::uint64_t context_count() const override {
    return arena_.context_count();
  }

  void audit(AuditReport& report) const override { arena_.audit(report); }

 private:
  ContextArena arena_;
  HistoryRing window_;
};

// --- oracle: true conditionals from the generating graph --------------------

class OraclePlane final : public PredictorPlane {
 public:
  OraclePlane(std::size_t num_users, const SessionGraph& graph)
      : graph_(graph), current_page_(num_users, 0), has_page_(num_users, 0) {}

  void observe(UserId user, std::uint64_t item) override {
    SPECPF_EXPECTS(user < current_page_.size());
    current_page_[user] = item;
    has_page_[user] = 1;
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<Candidate>& out) const override {
    out.clear();
    if (!has_page_[user]) return;
    // Same arithmetic as SessionGraph::next_distribution, read straight off
    // the links without materializing the intermediate vector.
    const double stay = 1.0 - graph_.exit_probability();
    for (const auto& link : graph_.links(current_page_[user])) {
      out.push_back(Candidate{link.target, link.probability * stay});
    }
    // Scan: no arena, the graph's links are the candidates.
    select_top_candidates(out, max_candidates);
  }

 private:
  const SessionGraph& graph_;
  std::vector<std::uint64_t> current_page_;
  std::vector<std::uint8_t> has_page_;
};

}  // namespace

std::unique_ptr<PredictorPlane> make_predictor_plane(
    PredictorKind kind, const PredictorPlaneConfig& config) {
  SPECPF_EXPECTS(config.num_users >= 1);
  switch (kind) {
    case PredictorKind::kMarkov:
      return std::make_unique<MarkovPlane>(
          config.num_users, config.markov_laplace, config.max_candidates);
    case PredictorKind::kPpm:
      return std::make_unique<PpmPlane>(config.num_users, config.ppm_order,
                                        config.max_candidates);
    case PredictorKind::kDependencyGraph:
      return std::make_unique<DependencyGraphPlane>(config.num_users,
                                                    config.depgraph_lookahead);
    case PredictorKind::kFrequency:
      return std::make_unique<FrequencyPlane>(config.max_candidates);
    case PredictorKind::kOracle:
      SPECPF_EXPECTS(config.graph != nullptr);
      return std::make_unique<OraclePlane>(config.num_users, *config.graph);
  }
  SPECPF_ASSERT(false && "unreachable");
  return nullptr;
}

}  // namespace specpf
