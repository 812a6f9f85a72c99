#include "ir/param.hpp"

#include <cassert>

#include "support/strings.hpp"
#include "support/numerics.hpp"

namespace cftcg::ir {

double ParamValue::AsDouble() const {
  if (const auto* d = std::get_if<double>(&v_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return static_cast<double>(*i);
  return 0.0;
}

std::int64_t ParamValue::AsInt64() const {
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i;
  if (const auto* d = std::get_if<double>(&v_)) return num::TruncToI64(*d);
  return 0;
}

const std::string& ParamValue::AsString() const {
  static const std::string kEmpty;
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  return kEmpty;
}

const std::vector<double>& ParamValue::AsList() const {
  static const std::vector<double> kEmpty;
  if (const auto* xs = std::get_if<std::vector<double>>(&v_)) return *xs;
  return kEmpty;
}

std::string ParamValue::Serialize() const {
  if (const auto* d = std::get_if<double>(&v_)) return DoubleToString(*d);
  if (const auto* i = std::get_if<std::int64_t>(&v_)) {
    return StrFormat("%lld", static_cast<long long>(*i));
  }
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  const auto& xs = std::get<std::vector<double>>(v_);
  std::vector<std::string> parts;
  parts.reserve(xs.size());
  for (double x : xs) parts.push_back(DoubleToString(x));
  return JoinStrings(parts, " ");
}

std::string ParamValue::SerializedKind() const {
  if (std::holds_alternative<double>(v_)) return "real";
  if (std::holds_alternative<std::int64_t>(v_)) return "int";
  if (std::holds_alternative<std::string>(v_)) return "str";
  return "list";
}

ParamValue ParamValue::Parse(const std::string& kind, const std::string& text) {
  if (kind == "real") {
    double d = 0;
    ParseDouble(text, d);
    return ParamValue(d);
  }
  if (kind == "int") {
    long long i = 0;
    ParseInt64(text, i);
    return ParamValue(static_cast<std::int64_t>(i));
  }
  if (kind == "list") {
    std::vector<double> xs;
    for (const auto& part : SplitString(text, ' ')) {
      if (TrimString(part).empty()) continue;
      double d = 0;
      ParseDouble(part, d);
      xs.push_back(d);
    }
    return ParamValue(std::move(xs));
  }
  return ParamValue(text);
}

double ParamMap::GetDouble(const std::string& key, double fallback) const {
  auto it = params_.find(key);
  return it == params_.end() ? fallback : it->second.AsDouble();
}

std::int64_t ParamMap::GetInt(const std::string& key, std::int64_t fallback) const {
  auto it = params_.find(key);
  return it == params_.end() ? fallback : it->second.AsInt64();
}

std::string ParamMap::GetString(const std::string& key, const std::string& fallback) const {
  auto it = params_.find(key);
  return it == params_.end() ? fallback : it->second.AsString();
}

std::vector<double> ParamMap::GetList(const std::string& key) const {
  auto it = params_.find(key);
  return it == params_.end() ? std::vector<double>{} : it->second.AsList();
}

}  // namespace cftcg::ir
