// PredictorPlane — the slab-backed SoA access-model layer behind
// StackRuntime, built the way cache/cache_plane.hpp rebuilt the caches.
//
// One plane owns a predictor's entire table state in a shared ContextArena
// (predict/context_arena.hpp): contexts interned through FlatIndexMap,
// successor lists threaded through one u32-linked slab, counts quantized to
// saturating u16 counters with periodic halving, and per-user history kept
// as fixed ring buffers in a user-indexed slab. Prediction writes into a
// caller-provided scratch buffer (predict_into), so the stack's hot path
// does zero allocation per request. The Markov and frequency planes copy
// their top k from the arena's ranked per-context heads in O(k). PPM reads
// each blended order's ranked head depth by depth and stops once no unread
// successor can reach its top k, falling back to a full blend only when
// the heads run out first. The dependency graph and the oracle rank with a
// partial top-k select.
//
// One concrete plane per PredictorKind, dispatched once per run by
// make_predictor_plane. Below the counter-saturation point every plane
// computes the arithmetic of the original virtual `Predictor` tables,
// which live outside the library in tests/reference/predict/ as the
// oracle: tests/predict_plane_test.cpp fuzzes bit-identical predict output
// against them, and the golden digests in tests/sim_trace_replay_test.cpp
// pin the full stack.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/planner.hpp"
#include "predict/factory.hpp"
#include "util/audit.hpp"

namespace specpf {

class SessionGraph;  // workload/session_graph.hpp (oracle backend only)

using UserId = std::uint32_t;

struct PredictorPlaneConfig {
  /// Users are dense ids in [0, num_users); per-user history lives in a
  /// user-indexed slab, so the plane must know the fleet size up front.
  std::size_t num_users = 1;
  std::size_t ppm_order = 3;            ///< PPM: longest context length
  std::size_t depgraph_lookahead = 4;   ///< dependency graph window w
  double markov_laplace = 0.0;          ///< Markov add-α smoothing
  /// The largest max_candidates the Markov, frequency and PPM planes'
  /// predict_into accepts (the stack passes its max_prefetch_per_request,
  /// same default). It sizes their ranked heads: max_candidates deep for
  /// Markov and frequency, a multiple of it for PPM's bounded read.
  std::size_t max_candidates = 8;
  /// Generating graph, required for kOracle (borrowed; must outlive the
  /// plane). Ignored by every other kind.
  const SessionGraph* graph = nullptr;
};

class PredictorPlane {
 public:
  virtual ~PredictorPlane() = default;

  /// Feeds one observed access into the model.
  virtual void observe(UserId user, std::uint64_t item) = 0;

  /// Predicts the next-access distribution for `user` after their latest
  /// observed access, replacing the contents of `out`: at most
  /// `max_candidates` entries, highest probability first (probability ties
  /// broken by ascending item). `out` may be left empty when the model has
  /// no basis for prediction. Reusing one buffer across calls makes the
  /// steady state allocation-free. The Markov, frequency and PPM arena
  /// planes require max_candidates <= PredictorPlaneConfig::max_candidates.
  virtual void predict_into(UserId user, std::size_t max_candidates,
                            std::vector<core::Candidate>& out) const = 0;

  /// Convenience wrapper for tests and reports (allocates; the stack's hot
  /// path uses predict_into with a reused scratch buffer).
  std::vector<core::Candidate> predict(UserId user,
                                       std::size_t max_candidates) const {
    std::vector<core::Candidate> out;
    predict_into(user, max_candidates, out);
    return out;
  }

  /// Counter-halving events so far (0 for planes without a ContextArena).
  virtual std::uint64_t counter_halvings() const { return 0; }

  /// Predictions whose bounded ranked-head read ran out of head before
  /// settling the top k, and so blended every successor instead (PPM only;
  /// 0 elsewhere). The output is exact either way.
  virtual std::uint64_t full_scans() const { return 0; }

  /// Distinct contexts interned in the plane's ContextArena (0 for planes
  /// without one) — the occupancy gauge the telemetry plane samples.
  virtual std::uint64_t context_count() const { return 0; }

  /// Deep-invariant sweep (util/audit.hpp): the arena planes walk their
  /// ContextArena (successor-chain conservation, interning round-trips,
  /// index health). The stateless oracle has nothing slab-backed to walk —
  /// default no-op.
  virtual void audit(AuditReport& /*report*/) const {}
};

/// Builds the predictor plane for `kind`. This switch is the once-per-run
/// model dispatch — everything after it is monomorphic (one virtual hop
/// into the plane per observe/predict, total).
std::unique_ptr<PredictorPlane> make_predictor_plane(
    PredictorKind kind, const PredictorPlaneConfig& config);

}  // namespace specpf
