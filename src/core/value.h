#ifndef IOLAP_CORE_VALUE_H_
#define IOLAP_CORE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace iolap {

/// Runtime type of a Value. The engine supports the types needed by the
/// paper's workloads: 64-bit integers, doubles and strings, plus SQL NULL.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

const char* ValueTypeToString(ValueType type);

/// Exact three-way comparison of two numbers, each an int64 or a double:
/// two int64s compare as integers, and an int64 equals a double only when
/// the double is integral and the same number. Nothing is rounded, so
/// distinct int64s beyond ±2^53 stay distinct. A NaN compares equal to
/// every number. Value::Compare and the compiled `cmp_num` opcode (through
/// NumericValue::Compare) both call this, so the two evaluators agree.
inline int CompareNumbers(bool a_is_int, int64_t a_int, double a_dbl,
                          bool b_is_int, int64_t b_int, double b_dbl) {
  if (a_is_int && b_is_int) {
    return a_int < b_int ? -1 : (a_int > b_int ? 1 : 0);
  }
  if (!a_is_int && !b_is_int) {
    return a_dbl < b_dbl ? -1 : (a_dbl > b_dbl ? 1 : 0);
  }
  // One int64 i against one double d; `sign` flips the result when the
  // double is on the left.
  const int64_t i = a_is_int ? a_int : b_int;
  const double d = a_is_int ? b_dbl : a_dbl;
  const int sign = a_is_int ? 1 : -1;
  if (d != d) return 0;  // NaN
  // [-2^63, 2^63) is exactly the doubles whose truncation fits an int64.
  if (d >= 0x1p63) return -sign;
  if (d < -0x1p63) return sign;
  const int64_t t = static_cast<int64_t>(d);  // truncated toward zero
  if (i != t) return i < t ? -sign : sign;
  // i == trunc(d): the fraction d - trunc(d) is exact and decides.
  const double frac = d - static_cast<double>(t);
  return frac > 0.0 ? -sign : (frac < 0.0 ? sign : 0);
}

/// Whether a value of kind `v` fits static type `type`: NULL fits every
/// type, an int64 or a double fits INT64 and DOUBLE alike, a string fits
/// STRING, and a NULL-typed slot holds only NULL. Catalog::RegisterTable
/// checks every row against its schema with this, and a value read from
/// outside an expression (a boxed call's result, an aggregate lookup)
/// that does not fit its static type reads as NULL in both evaluators.
constexpr bool FitsType(ValueType v, ValueType type) {
  switch (v) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return type == ValueType::kInt64 || type == ValueType::kDouble;
    case ValueType::kString:
      return type == ValueType::kString;
  }
  return false;
}

/// A dynamically typed SQL value. Values are small, copyable and totally
/// ordered (NULL sorts first; numbers compare exactly by value, so
/// Int64(2) == Double(2.0), see CompareNumbers). The binder type-checks
/// queries up front, so runtime evaluation follows SQL semantics:
/// operations on NULL yield NULL rather than errors.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) { return Value(Storage(std::in_place_index<1>, v)); }
  static Value Double(double v) { return Value(Storage(std::in_place_index<2>, v)); }
  static Value String(std::string v) {
    return Value(Storage(std::in_place_index<3>, std::move(v)));
  }
  static Value Bool(bool v) { return Int64(v ? 1 : 0); }

  ValueType type() const { return static_cast<ValueType>(storage_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const {
    return type() == ValueType::kInt64 || type() == ValueType::kDouble;
  }

  /// Integer payload. Only valid when type() == kInt64.
  int64_t int64() const { return std::get<1>(storage_); }
  /// Double payload. Only valid when type() == kDouble.
  double dbl() const { return std::get<2>(storage_); }
  /// String payload. Only valid when type() == kString.
  const std::string& str() const { return std::get<3>(storage_); }

  /// Numeric coercion: Int64/Double as double. NULL and strings yield 0.0
  /// (callers use is_numeric()/is_null() to distinguish).
  double AsDouble() const;

  /// Truthiness for predicates: non-zero numeric is true; NULL and
  /// non-numeric are false (SQL's "unknown" filters out).
  bool IsTruthy() const;

  /// Total ordering: NULL < numerics (exactly by value, CompareNumbers) <
  /// strings (lexicographic). Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool Equals(const Value& other) const { return Compare(other) == 0; }

  uint64_t Hash() const;

  /// Approximate in-memory footprint, used by the shipped-bytes cost model.
  size_t ByteSize() const;

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) { return a.Equals(b); }
  friend bool operator!=(const Value& a, const Value& b) { return !a.Equals(b); }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

 private:
  using Storage = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Storage storage) : storage_(std::move(storage)) {}

  Storage storage_;
};

/// A tuple of values. Rows are schema-less at runtime; the plan carries the
/// schema.
using Row = std::vector<Value>;

/// Hash of a full row (order-sensitive), for group-by and join keys.
uint64_t HashRow(const Row& row);
/// HashRow of the `n` values at `values`, which need not be a Row.
uint64_t HashValues(const Value* values, size_t n);

/// Approximate serialized size of a row, for the shuffle cost model.
size_t RowByteSize(const Row& row);

std::string RowToString(const Row& row);

/// A row key, given as `size` values at `values` (a Row's or a slice of a
/// flat array), paired with its precomputed HashValues, for heterogeneous
/// probes of Row-keyed hash maps: callers that already know the hash (the
/// evaluate phase hashes each group key once per batch) probe with this
/// instead of paying a re-hash per map or materializing a Row.
struct HashedRowRef {
  const Value* values;
  size_t size;
  uint64_t hash;
};

/// Functors for using Row as a hash-map key. Transparent (C++20 P0919) so
/// lookups accept HashedRowRef without re-hashing or materializing a Row.
struct RowHash {
  using is_transparent = void;
  size_t operator()(const Row& row) const { return HashRow(row); }
  size_t operator()(const HashedRowRef& ref) const { return ref.hash; }
};
struct RowEq {
  using is_transparent = void;
  static bool Equal(const Value* a, size_t na, const Value* b, size_t nb) {
    if (na != nb) return false;
    for (size_t i = 0; i < na; ++i) {
      if (!a[i].Equals(b[i])) return false;
    }
    return true;
  }
  bool operator()(const Row& a, const Row& b) const {
    return Equal(a.data(), a.size(), b.data(), b.size());
  }
  bool operator()(const HashedRowRef& a, const Row& b) const {
    return Equal(a.values, a.size, b.data(), b.size());
  }
  bool operator()(const Row& a, const HashedRowRef& b) const {
    return Equal(a.data(), a.size(), b.values, b.size);
  }
  bool operator()(const HashedRowRef& a, const HashedRowRef& b) const {
    return Equal(a.values, a.size, b.values, b.size);
  }
};

}  // namespace iolap

#endif  // IOLAP_CORE_VALUE_H_
