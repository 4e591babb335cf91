#include "scenario/options.h"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/error.h"

namespace fs::scenario {

namespace json = obs::json;

OptionReader::OptionReader(const json::Value& node, std::string context)
    : context_(std::move(context)) {
  if (!node.is_object())
    throw ParseError("scenario config: " + context_ + " must be an object");
  object_ = &node.as_object();
}

void OptionReader::fail(const std::string& message) const {
  throw ParseError("scenario config: " + context_ + ": " + message);
}

bool OptionReader::has(const std::string& key) const {
  return object_->find(key) != object_->end();
}

const json::Value& OptionReader::value(const std::string& key) {
  consumed_.insert(key);
  return object_->at(key);
}

std::string OptionReader::get_string(const std::string& key,
                                     const std::string& default_value) {
  consumed_.insert(key);
  if (!has(key)) return default_value;
  const json::Value& v = value(key);
  if (!v.is_string()) fail("'" + key + "' must be a string");
  return v.as_string();
}

std::string OptionReader::get_enum(const std::string& key,
                                   const std::string& default_value,
                                   const std::vector<std::string>& allowed) {
  const std::string got = get_string(key, default_value);
  for (const std::string& option : allowed)
    if (got == option) return got;
  std::ostringstream oss;
  oss << "'" << key << "' must be one of {";
  for (std::size_t i = 0; i < allowed.size(); ++i)
    oss << (i ? ", " : "") << allowed[i];
  oss << "}, got '" << got << "'";
  fail(oss.str());
}

double OptionReader::get_number(const std::string& key, double default_value,
                                double lo, double hi) {
  consumed_.insert(key);
  if (!has(key)) return default_value;
  const json::Value& v = value(key);
  if (!v.is_number()) fail("'" + key + "' must be a number");
  const double got = v.as_number();
  if (!(got >= lo && got <= hi)) {
    std::ostringstream oss;
    oss << "'" << key << "' = " << got << " outside [" << lo << ", " << hi
        << "]";
    fail(oss.str());
  }
  return got;
}

long long OptionReader::get_int(const std::string& key,
                                long long default_value, long long lo,
                                long long hi) {
  consumed_.insert(key);
  if (!has(key)) return default_value;
  const json::Value& v = value(key);
  if (!v.is_number()) fail("'" + key + "' must be a number");
  const double got = v.as_number();
  if (got != std::floor(got)) fail("'" + key + "' must be an integer");
  // Range-check before the cast: a value beyond long long (an infinity
  // included) has none.
  if (!(got >= static_cast<double>(lo) && got <= static_cast<double>(hi) &&
        std::abs(got) < 0x1p63)) {
    std::ostringstream oss;
    oss << std::setprecision(17) << "'" << key << "' = " << got
        << " outside [" << lo << ", " << hi << "]";
    fail(oss.str());
  }
  return static_cast<long long>(got);
}

bool OptionReader::get_bool(const std::string& key, bool default_value) {
  consumed_.insert(key);
  if (!has(key)) return default_value;
  const json::Value& v = value(key);
  if (!v.is_bool()) fail("'" + key + "' must be a boolean");
  return v.as_bool();
}

const json::Array* OptionReader::get_array(const std::string& key) {
  consumed_.insert(key);
  if (!has(key)) return nullptr;
  const json::Value& v = value(key);
  if (!v.is_array()) fail("'" + key + "' must be an array");
  return &v.as_array();
}

const json::Value* OptionReader::get_object(const std::string& key) {
  consumed_.insert(key);
  if (!has(key)) return nullptr;
  const json::Value& v = value(key);
  if (!v.is_object()) fail("'" + key + "' must be an object");
  return &v;
}

void OptionReader::finish() const {
  std::vector<std::string> unknown;
  for (const auto& [key, v] : *object_) {
    (void)v;
    if (consumed_.find(key) == consumed_.end()) unknown.push_back(key);
  }
  if (unknown.empty()) return;
  std::ostringstream oss;
  oss << "unknown key" << (unknown.size() > 1 ? "s" : "") << " ";
  for (std::size_t i = 0; i < unknown.size(); ++i)
    oss << (i ? ", " : "") << "'" << unknown[i] << "'";
  oss << "; accepted keys: {";
  bool first = true;
  for (const std::string& key : consumed_) {
    oss << (first ? "" : ", ") << key;
    first = false;
  }
  oss << "}";
  fail(oss.str());
}

}  // namespace fs::scenario
