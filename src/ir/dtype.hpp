// Signal data types.
//
// These mirror the Simulink built-in types used by embedded controller
// models. The byte sizes drive the fuzz driver's tuple layout (one model
// iteration consumes the sum of the inport type sizes, cf. Figure 3 of the
// paper) and the field-wise mutation boundaries.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/status.hpp"

namespace cftcg::ir {

enum class DType : std::uint8_t {
  kBool,
  kInt8,
  kUInt8,
  kInt16,
  kUInt16,
  kInt32,
  kUInt32,
  kSingle,
  kDouble,
};

inline constexpr int kNumDTypes = 9;

/// Storage size in bytes (matches the generated C code's layout), indexed
/// by DType.
inline constexpr std::array<std::uint8_t, kNumDTypes> kDTypeSizes = {1, 1, 1, 2, 2, 4, 4, 4, 8};

/// Storage size in bytes. Inline like DTypeIsFloat and WrapToDType: the
/// input decode and the VM's integer ops call them every model iteration.
inline std::size_t DTypeSize(DType t) { return kDTypeSizes[static_cast<std::size_t>(t)]; }

inline bool DTypeIsFloat(DType t) { return t == DType::kSingle || t == DType::kDouble; }
bool DTypeIsInteger(DType t);
bool DTypeIsSigned(DType t);

/// Inclusive representable range for integer types (used by mutation and by
/// the constraint baseline's interval domain).
std::int64_t DTypeMin(DType t);
std::int64_t DTypeMax(DType t);

/// Wraps a wide integer into the type's representable range using two's
/// complement semantics (what the generated C code does on overflow).
inline std::int64_t WrapToDType(std::int64_t value, DType t) {
  switch (t) {
    case DType::kBool: return value != 0 ? 1 : 0;
    case DType::kInt8: return static_cast<std::int8_t>(value);
    case DType::kUInt8: return static_cast<std::uint8_t>(value);
    case DType::kInt16: return static_cast<std::int16_t>(value);
    case DType::kUInt16: return static_cast<std::uint16_t>(value);
    case DType::kInt32: return static_cast<std::int32_t>(value);
    case DType::kUInt32: return static_cast<std::uint32_t>(value);
    case DType::kSingle:
    case DType::kDouble: return value;
  }
  return value;
}

/// Name used in model files and generated code ("int32", "boolean", ...).
std::string_view DTypeName(DType t);
Result<DType> DTypeFromName(std::string_view name);

/// C type name used by the code emitter ("int32_T", ...).
std::string_view DTypeCName(DType t);

/// Usual arithmetic promotion for two operand types: any float wins (double
/// over single); otherwise the wider integer; equal-width signed/unsigned
/// promotes to the signed next width, saturating at int32.
DType PromoteDTypes(DType a, DType b);

}  // namespace cftcg::ir
