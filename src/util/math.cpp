#include "util/math.hpp"

namespace specpf {

double generalized_harmonic(std::size_t n, double s) noexcept {
  // Sum smallest terms first to limit rounding error for large n.
  KahanSum acc;
  for (std::size_t k = n; k >= 1; --k) {
    acc.add(std::pow(static_cast<double>(k), -s));
  }
  return acc.value();
}

}  // namespace specpf
