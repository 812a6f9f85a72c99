// Shared numeric semantics for model execution.
//
// Both backends (the bytecode VM and the simulation interpreter) must agree
// bit-for-bit — the paper validates its generated code by comparing
// simulation results with code execution results, and our equivalence tests
// do the same — so the guarded operations live here, in exactly one place.
#pragma once

#include <cmath>
#include <cstdint>

namespace cftcg::num {

inline double SafeDiv(double a, double b) {
  const double r = a / b;
  return std::isfinite(r) ? r : 0.0;  // generated code guards division by zero
}

/// Integer division guarded like the generated code (x / 0 = 0). A divisor
/// of -1 negates with two's-complement wrap, so INT64_MIN / -1 is INT64_MIN
/// rather than a trap.
inline std::int64_t SafeDivI(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  if (b == -1) return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a));
  return a / b;
}

/// MATLAB mod: result follows the divisor's sign.
inline std::int64_t SafeModI(std::int64_t a, std::int64_t b) {
  if (b == 0 || b == -1) return 0;
  const std::int64_t r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}

inline std::int64_t SafeRemI(std::int64_t a, std::int64_t b) {
  return b == 0 || b == -1 ? 0 : a % b;
}

inline double SafeMod(double a, double b) {
  if (b == 0.0) return 0.0;
  const double r = std::fmod(a, b);
  return (r != 0.0 && ((r < 0.0) != (b < 0.0))) ? r + b : r;
}

inline double SafeRem(double a, double b) { return b == 0.0 ? 0.0 : std::fmod(a, b); }

inline double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

inline double SafeSqrt(double v) { return v < 0.0 ? 0.0 : std::sqrt(v); }
inline double SafeLog(double v) { return v <= 0.0 ? 0.0 : std::log(v); }

/// Double -> int64 with saturation at the representable edge (then callers
/// wrap to the model type).
inline std::int64_t TruncToI64(double v) {
  if (!std::isfinite(v)) return 0;
  if (v >= 9.2233720368547758e18) return INT64_MAX;
  if (v <= -9.2233720368547758e18) return INT64_MIN;
  return static_cast<std::int64_t>(v);
}

}  // namespace cftcg::num
