#include "predict/reference_predictors.hpp"

#include <vector>

#include "predict/dependency_graph.hpp"
#include "predict/frequency.hpp"
#include "predict/markov.hpp"
#include "predict/oracle.hpp"
#include "predict/ppm.hpp"
#include "util/contract.hpp"

namespace specpf {

std::unique_ptr<Predictor> make_table_predictor(
    PredictorKind kind, const PredictorPlaneConfig& config) {
  switch (kind) {
    case PredictorKind::kMarkov:
      return std::make_unique<MarkovPredictor>(config.markov_laplace);
    case PredictorKind::kPpm:
      return std::make_unique<PpmPredictor>(config.ppm_order);
    case PredictorKind::kDependencyGraph:
      return std::make_unique<DependencyGraphPredictor>(
          config.depgraph_lookahead);
    case PredictorKind::kFrequency:
      return std::make_unique<FrequencyPredictor>();
    case PredictorKind::kOracle:
      SPECPF_EXPECTS(config.graph != nullptr);
      return std::make_unique<OraclePredictor>(*config.graph);
  }
  SPECPF_ASSERT(false && "unreachable");
  return nullptr;
}

namespace {

class TablePredictorPlane final : public PredictorPlane {
 public:
  explicit TablePredictorPlane(std::unique_ptr<Predictor> predictor)
      : predictor_(std::move(predictor)) {}

  void observe(UserId user, std::uint64_t item) override {
    predictor_->observe(user, item);
  }

  void predict_into(UserId user, std::size_t max_candidates,
                    std::vector<core::Candidate>& out) const override {
    predictor_->predict_into(user, max_candidates, out);
  }

 private:
  std::unique_ptr<Predictor> predictor_;
};

}  // namespace

std::unique_ptr<PredictorPlane> make_table_predictor_plane(
    PredictorKind kind, const PredictorPlaneConfig& config) {
  return std::make_unique<TablePredictorPlane>(
      make_table_predictor(kind, config));
}

}  // namespace specpf
