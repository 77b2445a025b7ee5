/**
 * @file
 * Self-contained JSON value type, parser, and serializer.
 *
 * The reference ECO-CHIP artifact is driven by JSON configuration
 * files (architecture.json, packageC.json, designC.json,
 * operationalC.json). This module provides the equivalent substrate
 * with no external dependencies: a DOM built by driving the
 * on-demand scanner (`json/ondemand.h`, the one JSON grammar, with
 * line/column error reporting) and a pretty-printing serializer.
 *
 * Objects preserve insertion order so that serialized configs diff
 * cleanly against their sources.
 */

#ifndef ECOCHIP_JSON_JSON_H
#define ECOCHIP_JSON_JSON_H

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ecochip::json {

class Value;

namespace ondemand {
class Scanner;
}

/** Ordered key/value storage backing JSON objects. */
using Member = std::pair<std::string, Value>;

/** JSON type tags. */
enum class Type
{
    Null,
    Boolean,
    Number,
    String,
    Array,
    Object,
};

/** Human-readable name of a JSON type tag. */
const char *typeName(Type type);

/**
 * A dynamically typed JSON value.
 *
 * Accessors come in two flavors: checked (asNumber() etc., which
 * throw ConfigError on type mismatch -- config files are user input)
 * and interrogative (isNumber() etc.).
 */
class Value
{
  public:
    /** Construct a null value. */
    Value() : type_(Type::Null) {}

    /** Construct a boolean value. */
    Value(bool b) : type_(Type::Boolean), boolean_(b) {}

    /** Construct a number value from a double. */
    Value(double n) : type_(Type::Number), number_(n) {}

    /** Construct a number value from an int. */
    Value(int n) : type_(Type::Number), number_(n) {}

    /** Construct a number value from a long. */
    Value(long n)
        : type_(Type::Number), number_(static_cast<double>(n))
    {}

    /** Construct a string value. */
    Value(std::string s) : type_(Type::String), string_(std::move(s)) {}

    /** Construct a string value from a literal. */
    Value(const char *s) : type_(Type::String), string_(s) {}

    /** Build an empty array value. */
    static Value makeArray();

    /** Build an array from elements. */
    static Value makeArray(std::vector<Value> elements);

    /** Build an empty object value. */
    static Value makeObject();

    /** Type of this value. */
    Type type() const { return type_; }

    /** @{ @name Type predicates */
    bool isNull() const { return type_ == Type::Null; }
    bool isBoolean() const { return type_ == Type::Boolean; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }
    /** @} */

    /** Checked boolean access; throws ConfigError on mismatch. */
    bool asBoolean() const;

    /** Checked numeric access; throws ConfigError on mismatch. */
    double asNumber() const;

    /**
     * Checked integral access; throws ConfigError if the number is
     * not integral within rounding tolerance.
     */
    std::int64_t asInteger() const;

    /** Checked string access; throws ConfigError on mismatch. */
    const std::string &asString() const;

    /** Checked array access; throws ConfigError on mismatch. */
    const std::vector<Value> &asArray() const;

    /** Mutable checked array access. */
    std::vector<Value> &asArray();

    /** Checked object member list; throws ConfigError on mismatch. */
    const std::vector<Member> &members() const;

    /** True when the object has a member named @p key. */
    bool contains(const std::string &key) const;

    /**
     * Checked object member lookup.
     *
     * @param key Member name; missing keys throw ConfigError.
     */
    const Value &at(const std::string &key) const;

    /**
     * Optional lookup: returns @p fallback when the member is
     * missing (but still type-checks when present).
     */
    double numberOr(const std::string &key, double fallback) const;

    /** Optional string lookup with fallback. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    /** Optional boolean lookup with fallback. */
    bool booleanOr(const std::string &key, bool fallback) const;

    /**
     * Insert or overwrite an object member.
     *
     * @param key Member name.
     * @param value Member value.
     */
    void set(const std::string &key, Value value);

    /** Append an element to an array value. */
    void append(Value element);

    /** Element count of an array or member count of an object. */
    std::size_t size() const;

    /** Checked array indexing. */
    const Value &operator[](std::size_t index) const;

    /**
     * Serialize to a JSON string.
     *
     * @param pretty When true, emit 4-space indented output.
     */
    std::string dump(bool pretty = false) const;

    /** Structural equality. */
    bool operator==(const Value &other) const;

  private:
    friend Value parse(const std::string &text);

    /** Build the next value of @p in (the body of `parse`). */
    static Value build(ondemand::Scanner &in);

    void dumpTo(std::string &out, bool pretty, int depth) const;

    Type type_;
    bool boolean_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> array_;
    std::vector<Member> object_;
};

/**
 * Append the JSON spelling of @p n to @p out -- the one number
 * spelling shared by `Value::dump`, the streaming writer
 * (`json/stream_writer.h`) and derived scenario names
 * (`search/scenario_space.h`). Integral values below 1e15 print
 * with no fraction (`%.0f`, so -0.0 is "-0"). Any other value
 * prints as `%.Pg`: P is the number of digits in the shortest
 * round-trip form -- leading zeros aside, exponent digits
 * included -- clamped to [15, 17]. When that spelling does not
 * read back to the identical bits, the first of `%.15g`, `%.16g`,
 * `%.17g` that does is used. Written with `std::to_chars`
 * straight into @p out, with no allocation.
 *
 * @throws ModelError naming the value when @p n is NaN or
 *         infinite: JSON has no spelling for them.
 */
void formatNumberTo(std::string &out, double n);

/** `formatNumberTo` into a fresh string. */
std::string formatNumber(double n);

/**
 * Append the JSON string literal for @p s (including the
 * surrounding quotes) to @p out. One escaping routine backs both
 * the DOM serializer and `StreamWriter`, so the two paths cannot
 * disagree on control characters or quoting.
 */
void escapeStringTo(std::string &out, std::string_view s);

/**
 * Decode a lexically valid JSON number token to a double.
 *
 * The scanner's number decoder (so every parse entry point agrees
 * bit-for-bit), also used by `formatNumberTo` to check that a
 * spelling reads back. Decodes with
 * `std::from_chars`, correctly rounded. Underflow quietly returns
 * the nearest representable value (a denormal or signed zero, as
 * `strtod` does); overflow sets @p out_of_range (when non-null)
 * and the caller reports it with its own position context.
 */
double numberFromToken(std::string_view token,
                       bool *out_of_range = nullptr);

/**
 * Parse a JSON document: the DOM is built by driving an
 * `ondemand::Scanner` over @p text, so it accepts and rejects
 * exactly what the scanner does (nesting is bounded by
 * `ondemand::kMaxNestingDepth`).
 *
 * @param text Complete JSON text.
 * @return The parsed root value.
 * @throws ConfigError with line/column context on malformed input.
 */
Value parse(const std::string &text);

/**
 * Parse the JSON document in a file.
 *
 * @param path Filesystem path to a JSON file.
 */
Value parseFile(const std::string &path);

/**
 * Write a value to a file as pretty-printed JSON.
 *
 * @param value Root value to serialize.
 * @param path Destination path (replaced).
 */
void writeFile(const Value &value, const std::string &path);

/**
 * Write an already serialized document plus a newline to a file:
 * `writeFile(v, path)` is `writeTextFile(v.dump(true), path)`.
 *
 * Replaces the file through `replaceFile`: a failed write throws
 * a ConfigError naming @p path and keeps the previous file.
 */
void writeTextFile(std::string_view text, const std::string &path);

} // namespace ecochip::json

#endif // ECOCHIP_JSON_JSON_H
