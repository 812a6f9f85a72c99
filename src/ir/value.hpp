// Typed runtime value for scalar signals.
//
// Integers (and booleans) are held in an int64 payload already wrapped to the
// declared width; floats are held in a double payload (kSingle values are
// rounded through float). This is the value representation used by the
// interpreter, the parser and the baselines; the VM uses raw register files
// for speed.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "ir/dtype.hpp"

namespace cftcg::ir {

class Value {
 public:
  Value() : type_(DType::kDouble), d_(0) {}

  static Value Bool(bool b);
  static Value Int(DType t, std::int64_t v);   // wraps to width
  static Value Real(DType t, double v);        // rounds through float for kSingle
  static Value Double(double v) { return Real(DType::kDouble, v); }

  /// Decodes one tuple field of DTypeSize(t) raw little-endian bytes: the
  /// fuzz driver's memcpy, then a boolean keeps only its low bit and a
  /// non-finite single/double reads as 0 (Simulink models reject non-finite
  /// external inputs). The one input decoder: the interpreter, the VM and
  /// the emitted C driver (CEmitter) all decode this way.
  static Value FromBytes(DType t, const std::uint8_t* bytes);
  /// Inverse of FromBytes; writes DTypeSize(type()) bytes.
  void ToBytes(std::uint8_t* bytes) const;

  [[nodiscard]] DType type() const { return type_; }

  /// Numeric view as double (integers convert exactly below 2^53).
  [[nodiscard]] double AsDouble() const {
    return DTypeIsFloat(type_) ? d_ : static_cast<double>(i_);
  }
  /// Integer view; floats truncate toward zero (non-finite reads as 0,
  /// out-of-range clamps to the int64 range).
  [[nodiscard]] std::int64_t AsInt64() const {
    if (!DTypeIsFloat(type_)) return i_;
    if (!std::isfinite(d_)) return 0;
    if (d_ >= 9.2233720368547758e18) return INT64_MAX;
    if (d_ <= -9.2233720368547758e18) return INT64_MIN;
    return static_cast<std::int64_t>(d_);
  }
  [[nodiscard]] bool AsBool() const;

  /// Converts to another type with C cast semantics (wrap for ints, round
  /// through float for single).
  [[nodiscard]] Value CastTo(DType t) const;

  /// Exact comparison (same type and payload).
  bool operator==(const Value& other) const;

  [[nodiscard]] std::string ToString() const;

 private:
  template <typename T>
  static T Load(const std::uint8_t* bytes) {
    T v{};
    std::memcpy(&v, bytes, sizeof(T));
    return v;
  }

  DType type_;
  union {
    std::int64_t i_;
    double d_;
  };
};

// Inline: the VM and the interpreter decode every input field of every
// model iteration through it.
inline Value Value::FromBytes(DType t, const std::uint8_t* bytes) {
  Value v;
  v.type_ = t;
  switch (t) {
    case DType::kBool: v.i_ = *bytes & 1; break;
    case DType::kInt8: v.i_ = Load<std::int8_t>(bytes); break;
    case DType::kUInt8: v.i_ = Load<std::uint8_t>(bytes); break;
    case DType::kInt16: v.i_ = Load<std::int16_t>(bytes); break;
    case DType::kUInt16: v.i_ = Load<std::uint16_t>(bytes); break;
    case DType::kInt32: v.i_ = Load<std::int32_t>(bytes); break;
    case DType::kUInt32: v.i_ = Load<std::uint32_t>(bytes); break;
    case DType::kSingle: {
      const float f = Load<float>(bytes);
      v.d_ = std::isfinite(f) ? static_cast<double>(f) : 0.0;
      break;
    }
    case DType::kDouble: {
      const double x = Load<double>(bytes);
      v.d_ = std::isfinite(x) ? x : 0.0;
      break;
    }
  }
  return v;
}

}  // namespace cftcg::ir
