/**
 * @file
 * Forward-only on-demand JSON scanner.
 *
 * The input side of the fast wire path (the output side is
 * `json/stream_writer.h`), in the spirit of simdjson's lazy
 * on-demand design: seek to a key, iterate an array, yield raw
 * value spans -- without materializing a `json::Value` tree.
 *
 * The scanner is the one JSON grammar of the codebase: the DOM
 * parser (`json::parse`) builds its tree by driving a Scanner, so
 * every entry point accepts and rejects exactly the same
 * documents. The grammar tolerates `//`-comments in whitespace and
 * leading-zero numbers; it rejects duplicate object keys (at the
 * repeated key), raw control characters in strings, out-of-range
 * numbers, and containers nested deeper than `kMaxNestingDepth`.
 * `\u` escapes decode BMP-only, numbers through
 * `json::numberFromToken`. Errors are `ConfigError`s carrying
 * "JSON parse error at line L, column C: ..." position context.
 */

#ifndef ECOCHIP_JSON_ONDEMAND_H
#define ECOCHIP_JSON_ONDEMAND_H

#include <cstddef>
#include <forward_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.h"
#include "json/stream_writer.h"

namespace ecochip::json::ondemand {

/**
 * Deepest container nesting any document may have: the root
 * container is level 1, and opening a container at level
 * `kMaxNestingDepth + 1` fails. Every recursive consumer of a
 * scanned document (the DOM builder, `reserializeValue`,
 * `Value::dump`, `~Value`) recurses at most this deep.
 */
inline constexpr std::size_t kMaxNestingDepth = 512;

/**
 * Single-pass cursor over one JSON document.
 *
 * The scanner validates as it advances; a value consumed through
 * any of the accessors below is fully checked (strings decode,
 * numbers are range-checked, containers balance, object keys are
 * unique). It never reads past the end of the buffer.
 */
class Scanner
{
  public:
    explicit Scanner(std::string_view text) : text_(text) {}

    /**
     * Consume the next value whole and return its raw span
     * (first byte of the value through its last byte, validated).
     * The span may contain interior whitespace or comments; use
     * `reserializeValue` to emit it canonically.
     */
    std::string_view rawValue();

    /** Type of the next value, without consuming it. */
    Type peekType();

    /** @{ @name Typed scalar reads (consume the next value) */
    bool boolean();
    double number();
    std::string string(); //!< unescaped
    void null();
    /** @} */

    /** Enter the next value, which must be an object. */
    void beginObject();

    /**
     * Advance to the next member of the innermost open object.
     * Returns true with @p key holding the unescaped member name
     * (the cursor then sits on the member's value, which the
     * caller must consume), or false after consuming the
     * closing '}'.
     */
    bool nextMember(std::string &key);

    /** Enter the next value, which must be an array. */
    void beginArray();

    /**
     * True when another element follows (the cursor sits on it;
     * the caller must consume it); false after consuming ']'.
     */
    bool nextElement();

    /** Require only whitespace/comments up to end of input. */
    void expectEnd();

    /** Byte offset of the cursor (for error context). */
    std::size_t offset() const { return pos_; }

    /** Throw ConfigError with line/column at the cursor. */
    [[noreturn]] void fail(const std::string &message) const;

  private:
    struct Frame
    {
        char kind;  // '{' or '['
        bool first; // no element consumed yet
        std::size_t keys_begin; // this object's names in keys_
    };

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const;
    char advance();
    void expect(char c);
    void enter(char open, std::size_t depth);
    void leave();
    std::string_view memberName(std::size_t keys_begin);
    void skipWhitespace();
    void skipValue(std::size_t depth);
    void skipString();
    void skipNumber();
    bool fastScanString(std::string_view &content);
    std::string decodeString();
    std::string_view numberToken();

    std::string_view text_;
    std::size_t pos_ = 0;
    std::vector<Frame> frames_;
    /** Decoded names of every open object, innermost last; a
     *  closed object's slots are reused by the next one. An
     *  escape-free name is its own raw span. */
    std::vector<std::string_view> keys_;
    /** Decoded copies of the names that contain escapes (rare),
     *  kept until the scanner dies; list nodes never move. */
    std::forward_list<std::string> escapedKeys_;
};

/**
 * Scan @p object_text (one JSON object document) for member
 * @p key and return its raw value span, or nullopt when absent.
 *
 * Stops scanning at the first match, so members after the hit are
 * not validated -- a deliberate hot-path trade; run the document
 * through `reserialize` when full validation matters.
 */
std::optional<std::string_view>
findMember(std::string_view object_text, std::string_view key);

/**
 * Boolean member lookup with fallback, matching the semantics
 * (and the type-mismatch message) of `Value::booleanOr`.
 */
bool booleanField(std::string_view object_text,
                  std::string_view key, bool fallback);

/**
 * Transcode the next value from @p in canonically into @p out --
 * a fused parse + re-emit that produces exactly what
 * `parse(span).dump(...)` would, with no tree in between.
 */
void reserializeValue(Scanner &in, StreamWriter &out);

/**
 * Canonicalize a whole document: returns exactly
 * `parse(text).dump(pretty)` without materializing the DOM.
 */
std::string reserialize(std::string_view text, bool pretty);

/** Validate @p text as one complete JSON document (scan only). */
void validate(std::string_view text);

} // namespace ecochip::json::ondemand

#endif // ECOCHIP_JSON_ONDEMAND_H
