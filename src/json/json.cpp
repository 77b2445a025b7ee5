#include "json/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "json/ondemand.h"
#include "support/error.h"
#include "support/file_io.h"

namespace ecochip::json {

const char *
typeName(Type type)
{
    switch (type) {
      case Type::Null: return "null";
      case Type::Boolean: return "boolean";
      case Type::Number: return "number";
      case Type::String: return "string";
      case Type::Array: return "array";
      case Type::Object: return "object";
    }
    return "unknown";
}

namespace {

[[noreturn]] void
typeError(Type want, Type got)
{
    throw ConfigError(std::string("JSON type mismatch: expected ") +
                      typeName(want) + ", got " + typeName(got));
}

} // namespace

Value
Value::makeArray()
{
    Value v;
    v.type_ = Type::Array;
    return v;
}

Value
Value::makeArray(std::vector<Value> elements)
{
    Value v;
    v.type_ = Type::Array;
    v.array_ = std::move(elements);
    return v;
}

Value
Value::makeObject()
{
    Value v;
    v.type_ = Type::Object;
    return v;
}

bool
Value::asBoolean() const
{
    if (type_ != Type::Boolean)
        typeError(Type::Boolean, type_);
    return boolean_;
}

double
Value::asNumber() const
{
    if (type_ != Type::Number)
        typeError(Type::Number, type_);
    return number_;
}

std::int64_t
Value::asInteger() const
{
    const double n = asNumber();
    const double rounded = std::round(n);
    requireConfig(std::abs(n - rounded) < 1e-9,
                  "JSON number is not an integer: " +
                      std::to_string(n));
    return static_cast<std::int64_t>(rounded);
}

const std::string &
Value::asString() const
{
    if (type_ != Type::String)
        typeError(Type::String, type_);
    return string_;
}

const std::vector<Value> &
Value::asArray() const
{
    if (type_ != Type::Array)
        typeError(Type::Array, type_);
    return array_;
}

std::vector<Value> &
Value::asArray()
{
    if (type_ != Type::Array)
        typeError(Type::Array, type_);
    return array_;
}

const std::vector<Member> &
Value::members() const
{
    if (type_ != Type::Object)
        typeError(Type::Object, type_);
    return object_;
}

bool
Value::contains(const std::string &key) const
{
    if (type_ != Type::Object)
        return false;
    for (const auto &[name, value] : object_)
        if (name == key)
            return true;
    return false;
}

const Value &
Value::at(const std::string &key) const
{
    if (type_ != Type::Object)
        typeError(Type::Object, type_);
    for (const auto &[name, value] : object_)
        if (name == key)
            return value;
    throw ConfigError("missing JSON key: \"" + key + "\"");
}

double
Value::numberOr(const std::string &key, double fallback) const
{
    return contains(key) ? at(key).asNumber() : fallback;
}

std::string
Value::stringOr(const std::string &key,
                const std::string &fallback) const
{
    return contains(key) ? at(key).asString() : fallback;
}

bool
Value::booleanOr(const std::string &key, bool fallback) const
{
    return contains(key) ? at(key).asBoolean() : fallback;
}

void
Value::set(const std::string &key, Value value)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    if (type_ != Type::Object)
        typeError(Type::Object, type_);
    for (auto &[name, existing] : object_) {
        if (name == key) {
            existing = std::move(value);
            return;
        }
    }
    object_.emplace_back(key, std::move(value));
}

void
Value::append(Value element)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    if (type_ != Type::Array)
        typeError(Type::Array, type_);
    array_.push_back(std::move(element));
}

std::size_t
Value::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    throw ConfigError("size() on non-container JSON value");
}

const Value &
Value::operator[](std::size_t index) const
{
    const auto &arr = asArray();
    requireConfig(index < arr.size(),
                  "JSON array index out of range");
    return arr[index];
}

bool
Value::operator==(const Value &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null: return true;
      case Type::Boolean: return boolean_ == other.boolean_;
      case Type::Number: return number_ == other.number_;
      case Type::String: return string_ == other.string_;
      case Type::Array: return array_ == other.array_;
      case Type::Object: return object_ == other.object_;
    }
    return false;
}

void
escapeStringTo(std::string &out, std::string_view s)
{
    out += '"';
    // Copy maximal runs of chars that need no escaping in one
    // append; only '"', '\\', and controls < 0x20 break a run.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c =
            static_cast<unsigned char>(s[i]);
        if (c != '"' && c != '\\' && c >= 0x20)
            continue;
        out.append(s.data() + run, i - run);
        switch (s[i]) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          }
        }
        run = i + 1;
    }
    out.append(s.data() + run, s.size() - run);
    out += '"';
}

double
numberFromToken(std::string_view token, bool *out_of_range)
{
    double value = 0.0;
    const auto conv = std::from_chars(
        token.data(), token.data() + token.size(), value);
    if (out_of_range)
        *out_of_range = false;
    if (conv.ec != std::errc::result_out_of_range)
        return value;
    // from_chars leaves the value unset on overflow *and* on
    // underflow. strtod's answer tells them apart: underflow reads
    // as the nearest denormal or signed zero, which JSON accepts;
    // overflow is an error. The copy only runs on this rare path.
    const std::string buf(token);
    value = std::strtod(buf.c_str(), nullptr);
    if (out_of_range)
        *out_of_range = value == HUGE_VAL || value == -HUGE_VAL;
    return value;
}

void
formatNumberTo(std::string &out, double n)
{
    if (!std::isfinite(n)) {
        // JSON has no spelling for NaN or infinity; a document
        // carrying "nan" could not be read back by any parser.
        throw ModelError(
            std::string("JSON cannot represent the non-finite "
                        "number ") +
            (std::isnan(n) ? "nan" : n > 0 ? "inf" : "-inf"));
    }
    char buf[40];
    char *const last = buf + sizeof(buf);
    if (n == std::floor(n) && std::abs(n) < 1e15) {
        // Integral: print without fraction, as %.0f does. Covers
        // -0.0 too, spelled "-0", which reads back as -0.0.
        const auto conv = std::to_chars(
            buf, last, n, std::chars_format::fixed, 0);
        out.append(buf, conv.ptr);
        return;
    }
    // The spelling is %.Pg, where P is the digit count of the
    // shortest round-trip form clamped to [15, 17]. The count
    // includes an exponent's digits, so a value whose shortest
    // form has an exponent often gets more digits than it needs
    // (6.675221575521604e-308 is spelled 6.6752215755216041e-308):
    // that is the canonical spelling, locked by tests.
    const auto shortest = std::to_chars(buf, last, n);
    int digits = 0;
    bool seen_nonzero = false;
    bool positional = true; // no '.'/exponent: integer spelling
    for (const char *p = buf; p != shortest.ptr; ++p) {
        if (*p == 'e' || *p == '.') {
            positional = false;
            continue;
        }
        if (*p < '0' || *p > '9')
            continue;
        if (*p == '0' && !seen_nonzero)
            continue; // leading zeros are not significant
        seen_nonzero = true;
        ++digits;
    }
    if (positional) // trailing zeros of an integer are positional
        for (const char *p = shortest.ptr - 1;
             p != buf && *p == '0'; --p)
            --digits;
    // A spelling must read back to the identical bits. When %.Pg
    // does not (2^149 at P = 16), the first of %.15g, %.16g, %.17g
    // that does is taken (%.17g always does).
    std::to_chars_result conv{};
    const auto reads_back = [&](int precision) {
        conv = std::to_chars(buf, last, n,
                             std::chars_format::general, precision);
        return precision == 17 ||
               numberFromToken(std::string_view(
                   buf, static_cast<std::size_t>(conv.ptr - buf))) ==
                   n;
    };
    if (!reads_back(std::clamp(digits, 15, 17)))
        for (int precision = 15; !reads_back(precision);
             ++precision) {
        }
    out.append(buf, conv.ptr);
}

std::string
formatNumber(double n)
{
    std::string out;
    formatNumberTo(out, n);
    return out;
}

void
Value::dumpTo(std::string &out, bool pretty, int depth) const
{
    const std::string indent =
        pretty ? std::string(4 * (depth + 1), ' ') : "";
    const std::string closing_indent =
        pretty ? std::string(4 * depth, ' ') : "";
    const char *nl = pretty ? "\n" : "";
    const char *colon = pretty ? ": " : ":";

    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Boolean:
        out += boolean_ ? "true" : "false";
        break;
      case Type::Number:
        formatNumberTo(out, number_);
        break;
      case Type::String:
        escapeStringTo(out, string_);
        break;
      case Type::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < array_.size(); ++i) {
            out += indent;
            array_[i].dumpTo(out, pretty, depth + 1);
            if (i + 1 < array_.size())
                out += ',';
            out += nl;
        }
        out += closing_indent;
        out += ']';
        break;
      case Type::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        for (std::size_t i = 0; i < object_.size(); ++i) {
            out += indent;
            escapeStringTo(out, object_[i].first);
            out += colon;
            object_[i].second.dumpTo(out, pretty, depth + 1);
            if (i + 1 < object_.size())
                out += ',';
            out += nl;
        }
        out += closing_indent;
        out += '}';
        break;
    }
}

std::string
Value::dump(bool pretty) const
{
    std::string out;
    dumpTo(out, pretty, 0);
    return out;
}

Value
parse(const std::string &text)
{
    ondemand::Scanner in(text);
    Value root = Value::build(in);
    in.expectEnd();
    return root;
}

Value
parseFile(const std::string &path)
{
    return parse(readFile(path, "JSON file"));
}

void
writeFile(const Value &value, const std::string &path)
{
    writeTextFile(value.dump(true), path);
}

void
writeTextFile(std::string_view text, const std::string &path)
{
    replaceFile(path, "JSON file",
                [&](std::ostream &out) { out << text << '\n'; });
}

} // namespace ecochip::json
