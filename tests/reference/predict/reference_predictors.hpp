// The original virtual `Predictor` tables, built by kind and optionally
// wrapped behind the PredictorPlane interface. They are the oracle the SoA
// plane's unit suites and the predictor benches compare against; below
// the counter-saturation point the plane (predict/predictor_plane.hpp)
// reproduces them bit for bit.
#pragma once

#include <memory>

#include "predict/factory.hpp"
#include "predict/predictor.hpp"
#include "predict/predictor_plane.hpp"

namespace specpf {

/// The table predictor for `kind`, configured from the same knobs as the
/// plane (kOracle requires `config.graph`).
std::unique_ptr<Predictor> make_table_predictor(
    PredictorKind kind, const PredictorPlaneConfig& config);

/// make_table_predictor behind the plane interface, so a differential test
/// drives both sides through the same calls.
std::unique_ptr<PredictorPlane> make_table_predictor_plane(
    PredictorKind kind, const PredictorPlaneConfig& config);

}  // namespace specpf
