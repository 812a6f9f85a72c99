// Little-endian binary wire format shared by the checkpoint file layer and
// the supervisor's pipe protocol.
//
// PR 5 introduced the checkpoint blob; the process-isolation engine reuses
// the exact same primitives (and the same FuzzerState field order) for the
// messages workers exchange with the supervisor, so a round-barrier state
// message *is* a checkpoint fragment. Writer appends; Reader is strictly
// bounds-checked: any out-of-range read latches failed() and every
// subsequent read returns zero — callers check failed() once at the end
// instead of after every field. Sized reads (Bytes/Str/U64Vec/F64Vec) validate the
// length against the remaining input before allocating, so a bit-flipped
// count can never trigger a huge allocation.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cftcg::fuzz::wire {

class Writer {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Bytes(const std::vector<std::uint8_t>& v) {
    U64(v.size());
    out_.append(reinterpret_cast<const char*>(v.data()), v.size());
  }
  void Str(const std::string& s) {
    U64(s.size());
    out_.append(s);
  }
  void U64Vec(const std::vector<std::uint64_t>& v) {
    U64(v.size());
    for (std::uint64_t x : v) U64(x);
  }
  void F64Vec(const std::vector<double>& v) {
    U64(v.size());
    for (double x : v) F64(x);
  }
  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] bool AtEnd() const { return pos_ == bytes_.size(); }

  std::uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t U32() {
    if (!Need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_++])) << (8 * i);
    }
    return v;
  }
  std::uint64_t U64() {
    if (!Need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_++])) << (8 * i);
    }
    return v;
  }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  std::vector<std::uint8_t> Bytes() {
    const std::uint64_t size = U64();
    if (!Need(size)) return {};
    std::vector<std::uint8_t> v(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + size));
    pos_ += size;
    return v;
  }
  std::string Str() {
    const std::uint64_t size = U64();
    if (!Need(size)) return {};
    std::string s(bytes_.substr(pos_, size));
    pos_ += size;
    return s;
  }
  std::vector<std::uint64_t> U64Vec() { return Vec<std::uint64_t>(&Reader::U64); }
  std::vector<double> F64Vec() { return Vec<double>(&Reader::F64); }

 private:
  template <typename T>
  std::vector<T> Vec(T (Reader::*read)()) {
    const std::uint64_t size = U64();
    if (failed_ || size > bytes_.size() / 8 + 1) {  // cheap sanity bound
      failed_ = true;
      return {};
    }
    std::vector<T> v;
    v.reserve(size);
    for (std::uint64_t i = 0; i < size && !failed_; ++i) v.push_back((this->*read)());
    return v;
  }
  bool Need(std::uint64_t n) {
    if (failed_ || n > bytes_.size() - pos_) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace cftcg::fuzz::wire
