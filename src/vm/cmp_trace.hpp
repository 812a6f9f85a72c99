// Comparison-operand tracing (libFuzzer's TORC — Table Of Recent Compares).
//
// The paper builds its fuzzer on LibFuzzer, which instruments comparisons
// and feeds the observed operands back into mutation so equality-guarded
// logic (opcodes, sequence numbers, magic values) becomes reachable. The VM
// records the operands of *failed* equality comparisons into this small
// ring; the mutators use it as a value dictionary.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace cftcg::vm {

class CmpTrace {
 public:
  static constexpr std::size_t kCapacity = 64;

  void RecordInt(std::int64_t a, std::int64_t b) {
    ints_[int_idx_++ % kCapacity] = a;
    ints_[int_idx_++ % kCapacity] = b;
    int_count_ = int_count_ < kCapacity ? int_idx_ : kCapacity;
  }
  void RecordDouble(double a, double b) {
    doubles_[double_idx_++ % kCapacity] = a;
    doubles_[double_idx_++ % kCapacity] = b;
    double_count_ = double_count_ < kCapacity ? double_idx_ : kCapacity;
    // Integer-valued operands also feed the integer dictionary: chart/mex
    // comparisons compute in double even when the data came from integer
    // inports, and the dictionary must reach those fields.
    const auto integral = [](double v) {
      return v > -9e15 && v < 9e15 && v == static_cast<double>(static_cast<std::int64_t>(v));
    };
    if (integral(a) && integral(b)) {
      RecordInt(static_cast<std::int64_t>(a), static_cast<std::int64_t>(b));
    }
  }

  [[nodiscard]] std::size_t int_count() const { return int_count_; }
  [[nodiscard]] std::size_t double_count() const { return double_count_; }
  [[nodiscard]] std::int64_t int_at(std::size_t i) const { return ints_[i % kCapacity]; }
  [[nodiscard]] double double_at(std::size_t i) const { return doubles_[i % kCapacity]; }

  /// Byte offsets of the ring's fields. Native model code (native_x64.cpp)
  /// records into the ring directly, exactly as RecordInt and RecordDouble
  /// do; nothing else writes it from outside.
  struct Offsets {
    std::size_t ints, doubles, int_idx, int_count, double_idx, double_count;
  };
  static Offsets NativeOffsets() {
    return {offsetof(CmpTrace, ints_),      offsetof(CmpTrace, doubles_),
            offsetof(CmpTrace, int_idx_),   offsetof(CmpTrace, int_count_),
            offsetof(CmpTrace, double_idx_), offsetof(CmpTrace, double_count_)};
  }

  void Clear() {
    int_idx_ = int_count_ = 0;
    double_idx_ = double_count_ = 0;
  }

  /// Checkpointable snapshot of the ring. The dictionary feeds future
  /// mutation draws, so bit-identical resume requires restoring it exactly.
  struct State {
    std::array<std::int64_t, kCapacity> ints{};
    std::array<double, kCapacity> doubles{};
    std::uint64_t int_idx = 0;
    std::uint64_t int_count = 0;
    std::uint64_t double_idx = 0;
    std::uint64_t double_count = 0;
  };

  [[nodiscard]] State Save() const {
    State s;
    s.ints = ints_;
    s.doubles = doubles_;
    s.int_idx = int_idx_;
    s.int_count = int_count_;
    s.double_idx = double_idx_;
    s.double_count = double_count_;
    return s;
  }
  void Restore(const State& s) {
    ints_ = s.ints;
    doubles_ = s.doubles;
    int_idx_ = static_cast<std::size_t>(s.int_idx);
    int_count_ = static_cast<std::size_t>(s.int_count);
    double_idx_ = static_cast<std::size_t>(s.double_idx);
    double_count_ = static_cast<std::size_t>(s.double_count);
  }

 private:
  std::array<std::int64_t, kCapacity> ints_{};
  std::array<double, kCapacity> doubles_{};
  std::size_t int_idx_ = 0;
  std::size_t int_count_ = 0;
  std::size_t double_idx_ = 0;
  std::size_t double_count_ = 0;
};

static_assert(std::is_standard_layout_v<CmpTrace>, "NativeOffsets needs a standard layout");

}  // namespace cftcg::vm
