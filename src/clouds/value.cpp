#include "clouds/value.hpp"

namespace clouds::obj {

Value::Value(const Value&) = default;
Value::Value(Value&&) noexcept = default;
Value& Value::operator=(const Value&) = default;
Value& Value::operator=(Value&&) noexcept = default;
Value::~Value() = default;

namespace {
Error typeError(const char* want) {
  return makeError(Errc::bad_argument, std::string("value is not ") + want);
}
}  // namespace

Result<std::int64_t> Value::asInt() const {
  if (auto* p = std::get_if<std::int64_t>(&v_)) return *p;
  return typeError("an integer");
}
Result<double> Value::asDouble() const {
  if (auto* p = std::get_if<double>(&v_)) return *p;
  if (auto* p = std::get_if<std::int64_t>(&v_)) return static_cast<double>(*p);
  return typeError("a real");
}
Result<bool> Value::asBool() const {
  if (auto* p = std::get_if<bool>(&v_)) return *p;
  return typeError("a boolean");
}
Result<std::string> Value::asString() const {
  if (auto* p = std::get_if<std::string>(&v_)) return *p;
  return typeError("a string");
}
Result<Bytes> Value::asBytes() const {
  if (auto* p = std::get_if<Bytes>(&v_)) return *p;
  return typeError("a byte blob");
}
Result<ValueList> Value::asList() const {
  if (auto* p = std::get_if<ValueList>(&v_)) return *p;
  return typeError("a list");
}

std::int64_t Value::intOr(std::int64_t fallback) const {
  if (auto* p = std::get_if<std::int64_t>(&v_)) return *p;
  return fallback;
}

std::string Value::toString() const {
  struct Visitor {
    std::string operator()(std::monostate) const { return "null"; }
    std::string operator()(std::int64_t v) const { return std::to_string(v); }
    std::string operator()(double v) const { return std::to_string(v); }
    std::string operator()(bool v) const { return v ? "true" : "false"; }
    std::string operator()(const std::string& v) const { return '"' + v + '"'; }
    std::string operator()(const Bytes& v) const {
      return "<" + std::to_string(v.size()) + " bytes>";
    }
    std::string operator()(const ValueList& v) const {
      std::string s = "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) s += ", ";
        s += v[i].toString();
      }
      return s + "]";
    }
  };
  return std::visit(Visitor{}, v_);
}

void Value::encode(Encoder& e) const {
  struct Visitor {
    Encoder& e;
    void operator()(std::monostate) const { e.u8(static_cast<std::uint8_t>(Tag::null)); }
    void operator()(std::int64_t v) const {
      e.u8(static_cast<std::uint8_t>(Tag::integer));
      e.i64(v);
    }
    void operator()(double v) const {
      e.u8(static_cast<std::uint8_t>(Tag::real));
      e.f64(v);
    }
    void operator()(bool v) const {
      e.u8(static_cast<std::uint8_t>(Tag::boolean));
      e.boolean(v);
    }
    void operator()(const std::string& v) const {
      e.u8(static_cast<std::uint8_t>(Tag::text));
      e.str(v);
    }
    void operator()(const Bytes& v) const {
      e.u8(static_cast<std::uint8_t>(Tag::blob));
      e.bytes(v);
    }
    void operator()(const ValueList& v) const {
      e.u8(static_cast<std::uint8_t>(Tag::list));
      e.u32(static_cast<std::uint32_t>(v.size()));
      for (const Value& item : v) item.encode(e);
    }
  };
  std::visit(Visitor{e}, v_);
}

Result<Value> Value::decode(Decoder& d) {
  CLOUDS_TRY_ASSIGN(tag, d.u8());
  // Filled in place and returned by one move: returning a fresh scalar
  // Value{...} per case makes GCC 12 (sanitized build) warn
  // -Wmaybe-uninitialized about the variant's other alternatives.
  Value out;
  switch (static_cast<Tag>(tag)) {
    case Tag::null:
      return out;
    case Tag::integer: {
      CLOUDS_TRY_ASSIGN(v, d.i64());
      out.v_ = v;
      return out;
    }
    case Tag::real: {
      CLOUDS_TRY_ASSIGN(v, d.f64());
      out.v_ = v;
      return out;
    }
    case Tag::boolean: {
      CLOUDS_TRY_ASSIGN(v, d.boolean());
      out.v_ = v;
      return out;
    }
    case Tag::text: {
      CLOUDS_TRY_ASSIGN(v, d.str());
      out.v_ = std::move(v);
      return out;
    }
    case Tag::blob: {
      CLOUDS_TRY_ASSIGN(v, d.bytes());
      out.v_ = std::move(v);
      return out;
    }
    case Tag::list: {
      CLOUDS_TRY_ASSIGN(n, d.u32());
      ValueList items;
      items.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        CLOUDS_TRY_ASSIGN(item, Value::decode(d));
        items.push_back(std::move(item));
      }
      out.v_ = std::move(items);
      return out;
    }
  }
  return makeError(Errc::bad_argument, "unknown value tag " + std::to_string(tag));
}

Bytes Value::encodeList(const ValueList& values) {
  Encoder e;
  e.u32(static_cast<std::uint32_t>(values.size()));
  for (const Value& v : values) v.encode(e);
  return std::move(e).take();
}

Result<ValueList> Value::decodeList(ByteSpan data) {
  Decoder d(data);
  CLOUDS_TRY_ASSIGN(n, d.u32());
  ValueList out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    CLOUDS_TRY_ASSIGN(v, Value::decode(d));
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace clouds::obj
