// The one predictor-kind dispatch point. Every frontend (proxy sim, trace
// replay, sharded driver, benches, CLI flags) names access predictors
// through this enum, and the SoA plane (predict/predictor_plane.hpp)
// selects its model from it, mirroring cache/factory.hpp's CacheKind.
#pragma once

#include <string_view>

namespace specpf {

/// Access models available to every frontend. Numeric values are part of
/// the CLI/bench surface (0=markov 1=ppm 2=depgraph 3=frequency 4=oracle).
enum class PredictorKind : int {
  kMarkov = 0,
  kPpm = 1,
  kDependencyGraph = 2,
  kFrequency = 3,
  kOracle = 4,
};

inline constexpr int kNumPredictorKinds = 5;

/// Short stable name for reports, CLI flags, and bench JSON keys.
const char* predictor_kind_name(PredictorKind kind);

/// Parses a CLI name (markov | ppm | depgraph | frequency | oracle).
/// Returns false (leaving *out untouched) on an unknown name.
bool parse_predictor_kind(std::string_view name, PredictorKind* out);

}  // namespace specpf
