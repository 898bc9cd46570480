// Invocation parameters and results.
//
// "These arguments/results are strictly data; they may not be addresses.
//  This restriction is mandatory as addresses in one object are meaningless
//  in the context of another object." (paper §2.2)
//
// Value is the closed universe of data that may cross an object boundary:
// scalars, strings, byte blobs, and lists thereof. It serializes to a flat
// byte string, which is what actually travels in remote invocations.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/codec.hpp"
#include "common/error.hpp"

namespace clouds::obj {

class Value;
using ValueList = std::vector<Value>;

class Value {
 public:
  Value() = default;
  // Copy, move and destruction are defined out of line (value.cpp). Inlined
  // at a call site that has just built a scalar Value, std::variant's move
  // makes GCC 12 warn -Wmaybe-uninitialized about the other alternatives.
  Value(const Value&);
  Value(Value&&) noexcept;
  Value& operator=(const Value&);
  Value& operator=(Value&&) noexcept;
  ~Value();
  Value(std::int64_t v) : v_(v) {}            // NOLINT(google-explicit-constructor)
  Value(int v) : v_(std::int64_t{v}) {}       // NOLINT(google-explicit-constructor)
  Value(double v) : v_(v) {}                  // NOLINT(google-explicit-constructor)
  Value(bool v) : v_(v) {}                    // NOLINT(google-explicit-constructor)
  Value(std::string v) : v_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* v) : v_(std::string(v)) {}  // NOLINT(google-explicit-constructor)
  Value(Bytes v) : v_(std::move(v)) {}        // NOLINT(google-explicit-constructor)
  Value(ValueList v) : v_(std::move(v)) {}    // NOLINT(google-explicit-constructor)

  bool isNull() const noexcept { return std::holds_alternative<std::monostate>(v_); }
  bool isInt() const noexcept { return std::holds_alternative<std::int64_t>(v_); }
  bool isDouble() const noexcept { return std::holds_alternative<double>(v_); }
  bool isBool() const noexcept { return std::holds_alternative<bool>(v_); }
  bool isString() const noexcept { return std::holds_alternative<std::string>(v_); }
  bool isBytes() const noexcept { return std::holds_alternative<Bytes>(v_); }
  bool isList() const noexcept { return std::holds_alternative<ValueList>(v_); }

  // Checked accessors: Errc::bad_argument on type mismatch.
  Result<std::int64_t> asInt() const;
  Result<double> asDouble() const;
  Result<bool> asBool() const;
  Result<std::string> asString() const;
  Result<Bytes> asBytes() const;
  Result<ValueList> asList() const;

  // Unchecked views for code that just validated the type.
  std::int64_t intOr(std::int64_t fallback) const;
  const ValueList& list() const { return std::get<ValueList>(v_); }

  friend bool operator==(const Value&, const Value&) = default;

  std::string toString() const;  // debugging / shell display

  void encode(Encoder& e) const;
  static Result<Value> decode(Decoder& d);

  static Bytes encodeList(const ValueList& values);
  static Result<ValueList> decodeList(ByteSpan data);

 private:
  enum class Tag : std::uint8_t {
    null = 0,
    integer = 1,
    real = 2,
    boolean = 3,
    text = 4,
    blob = 5,
    list = 6,
  };
  std::variant<std::monostate, std::int64_t, double, bool, std::string, Bytes, ValueList> v_;
};

}  // namespace clouds::obj
