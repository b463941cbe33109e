#include "core/value.h"

#include <cmath>
#include <cstdio>

#include "common/hash.h"

namespace iolap {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

double Value::AsDouble() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(int64());
    case ValueType::kDouble:
      return dbl();
    default:
      return 0.0;
  }
}

bool Value::IsTruthy() const {
  switch (type()) {
    case ValueType::kInt64:
      return int64() != 0;
    case ValueType::kDouble:
      return dbl() != 0.0;
    default:
      return false;
  }
}

int Value::Compare(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    const bool a_int = type() == ValueType::kInt64;
    const bool b_int = other.type() == ValueType::kInt64;
    return CompareNumbers(a_int, a_int ? int64() : 0, a_int ? 0.0 : dbl(),
                          b_int, b_int ? other.int64() : 0,
                          b_int ? 0.0 : other.dbl());
  }
  // Heterogeneous / non-numeric: order by type id, then payload.
  const auto ta = static_cast<int>(type());
  const auto tb = static_cast<int>(other.type());
  if (ta != tb) return ta < tb ? -1 : 1;
  if (type() == ValueType::kString) return str().compare(other.str());
  return 0;  // both NULL
}

namespace {

// Hashes a double through its int64 value when integral, so that Int64(2)
// and Double(2.0) (which compare equal) hash equal. The range test keeps the
// cast defined: NaN, ±inf and doubles outside [-2^63, 2^63) hash by their
// bits.
uint64_t HashDouble(double d) {
  if (d >= -0x1p63 && d < 0x1p63 &&
      d == static_cast<double>(static_cast<int64_t>(d))) {
    return Mix64(static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits);
}

}  // namespace

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9ae16a3b2f90404full;
    case ValueType::kInt64:
      return Mix64(static_cast<uint64_t>(int64()));
    case ValueType::kDouble:
      return HashDouble(dbl());
    case ValueType::kString:
      return HashBytes(str());
  }
  return 0;
}

size_t Value::ByteSize() const {
  switch (type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 8;
    case ValueType::kString:
      return str().size() + 4;
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(int64());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", dbl());
      return buf;
    }
    case ValueType::kString:
      return str();
  }
  return "?";
}

uint64_t HashRow(const Row& row) { return HashValues(row.data(), row.size()); }

uint64_t HashValues(const Value* values, size_t n) {
  uint64_t h = 0x2545f4914f6cdd1dull;
  for (size_t i = 0; i < n; ++i) h = HashCombine(h, values[i].Hash());
  return h;
}

size_t RowByteSize(const Row& row) {
  size_t total = 0;
  for (const Value& v : row) total += v.ByteSize();
  return total;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace iolap
