#include "ir/value.hpp"

#include <cassert>
#include <cstring>

#include "support/strings.hpp"

namespace cftcg::ir {

Value Value::Bool(bool b) {
  Value v;
  v.type_ = DType::kBool;
  v.i_ = b ? 1 : 0;
  return v;
}

Value Value::Int(DType t, std::int64_t raw) {
  assert(!DTypeIsFloat(t));
  Value v;
  v.type_ = t;
  v.i_ = WrapToDType(raw, t);
  return v;
}

Value Value::Real(DType t, double raw) {
  assert(DTypeIsFloat(t));
  Value v;
  v.type_ = t;
  v.d_ = (t == DType::kSingle) ? static_cast<double>(static_cast<float>(raw)) : raw;
  return v;
}

void Value::ToBytes(std::uint8_t* bytes) const {
  switch (type_) {
    case DType::kBool: {
      *bytes = i_ ? 1 : 0;
      return;
    }
    case DType::kInt8:
    case DType::kUInt8: {
      auto v = static_cast<std::uint8_t>(i_);
      std::memcpy(bytes, &v, 1);
      return;
    }
    case DType::kInt16:
    case DType::kUInt16: {
      auto v = static_cast<std::uint16_t>(i_);
      std::memcpy(bytes, &v, 2);
      return;
    }
    case DType::kInt32:
    case DType::kUInt32: {
      auto v = static_cast<std::uint32_t>(i_);
      std::memcpy(bytes, &v, 4);
      return;
    }
    case DType::kSingle: {
      auto v = static_cast<float>(d_);
      std::memcpy(bytes, &v, 4);
      return;
    }
    case DType::kDouble: {
      std::memcpy(bytes, &d_, 8);
      return;
    }
  }
}

bool Value::AsBool() const { return DTypeIsFloat(type_) ? d_ != 0.0 : i_ != 0; }

Value Value::CastTo(DType t) const {
  if (t == type_) return *this;
  if (DTypeIsFloat(t)) return Real(t, AsDouble());
  if (t == DType::kBool) return Bool(AsBool());
  return Int(t, AsInt64());
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  if (DTypeIsFloat(type_)) return d_ == other.d_;
  return i_ == other.i_;
}

std::string Value::ToString() const {
  if (DTypeIsFloat(type_)) return DoubleToString(d_);
  if (type_ == DType::kBool) return i_ ? "true" : "false";
  return StrFormat("%lld", static_cast<long long>(i_));
}

}  // namespace cftcg::ir
