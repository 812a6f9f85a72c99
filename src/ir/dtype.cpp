#include "ir/dtype.hpp"

#include <array>
#include <cassert>

namespace cftcg::ir {
namespace {

struct DTypeInfo {
  std::string_view name;
  std::string_view cname;
  bool is_signed;
  std::int64_t min;
  std::int64_t max;
};

constexpr std::array<DTypeInfo, kNumDTypes> kInfo = {{
    {"boolean", "boolean_T", false, 0, 1},
    {"int8", "int8_T", true, -128, 127},
    {"uint8", "uint8_T", false, 0, 255},
    {"int16", "int16_T", true, -32768, 32767},
    {"uint16", "uint16_T", false, 0, 65535},
    {"int32", "int32_T", true, INT32_MIN, INT32_MAX},
    {"uint32", "uint32_T", false, 0, UINT32_MAX},
    {"single", "real32_T", true, 0, 0},
    {"double", "real_T", true, 0, 0},
}};

const DTypeInfo& Info(DType t) { return kInfo[static_cast<std::size_t>(t)]; }

}  // namespace

bool DTypeIsInteger(DType t) { return !DTypeIsFloat(t) && t != DType::kBool; }
bool DTypeIsSigned(DType t) { return Info(t).is_signed; }

std::int64_t DTypeMin(DType t) {
  assert(!DTypeIsFloat(t));
  return Info(t).min;
}

std::int64_t DTypeMax(DType t) {
  assert(!DTypeIsFloat(t));
  return Info(t).max;
}

std::string_view DTypeName(DType t) { return Info(t).name; }
std::string_view DTypeCName(DType t) { return Info(t).cname; }

Result<DType> DTypeFromName(std::string_view name) {
  for (int i = 0; i < kNumDTypes; ++i) {
    if (kInfo[static_cast<std::size_t>(i)].name == name) return static_cast<DType>(i);
  }
  return Status::Error("unknown data type: " + std::string(name));
}

DType PromoteDTypes(DType a, DType b) {
  if (a == DType::kDouble || b == DType::kDouble) return DType::kDouble;
  if (a == DType::kSingle || b == DType::kSingle) return DType::kSingle;
  if (a == b) return a;
  if (a == DType::kBool) return b;
  if (b == DType::kBool) return a;
  const std::size_t wa = DTypeSize(a);
  const std::size_t wb = DTypeSize(b);
  if (wa != wb) {
    // Wider type wins; if the narrower is signed and the wider unsigned keep
    // the wider unsigned type (C conversion rules).
    return wa > wb ? a : b;
  }
  // Same width, mixed signedness: promote to the signed type one width up,
  // capped at int32 (embedded models do not use 64-bit signals).
  if (wa == 1) return DType::kInt16;
  if (wa == 2) return DType::kInt32;
  return DType::kInt32;
}

}  // namespace cftcg::ir
