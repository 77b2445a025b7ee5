/**
 * @file
 * Append-only streaming JSON emitter.
 *
 * `StreamWriter` serializes a document as a sequence of
 * begin/end/key/value calls with no intermediate `json::Value`
 * tree -- the output side of the fast wire path (the input side
 * is `json/ondemand.h`). Its output is byte-identical to
 * `Value::dump(pretty)` of the equivalent DOM: the same escaping
 * (`escapeStringTo`), the same number spelling (`formatNumberTo`),
 * the same 4-space pretty layout with `[]`/`{}` for empty
 * containers and `": "` after keys. The wire-path contract in
 * docs/file_formats.md rests on that identity; `appendValue` plus
 * the differential fuzz suite (tests/test_json_fuzz.cpp) lock it.
 *
 * Scope violations -- a key outside an object, a value where a
 * key is required, unbalanced `end` calls -- throw ModelError:
 * they are caller bugs, not input errors.
 */

#ifndef ECOCHIP_JSON_STREAM_WRITER_H
#define ECOCHIP_JSON_STREAM_WRITER_H

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json/json.h"

namespace ecochip::json {

class StreamWriter
{
  public:
    /**
     * @param pretty When true, emit the 4-space indented layout
     *        of `Value::dump(true)`; otherwise the compact form.
     * @param base_depth Containers the root value sits inside:
     *        pretty indentation is that of a value nested
     *        @p base_depth levels deep, so the output can be
     *        spliced into a larger document as one of its
     *        elements. The caller writes the element's own
     *        separator and indentation.
     * @param prefix Text already written: the document is
     *        appended to it, and take() returns both. Lets one
     *        buffer collect many fragments with no copying.
     */
    explicit StreamWriter(bool pretty = false,
                          std::size_t base_depth = 0,
                          std::string prefix = {})
        : out_(std::move(prefix)), base_depth_(base_depth),
          pretty_(pretty)
    {}

    /** @{ @name Container scopes */
    void beginObject() { openContainer('{'); }
    void endObject() { closeContainer('{', '}'); }
    void beginArray() { openContainer('['); }
    void endArray() { closeContainer('[', ']'); }
    /** @} */

    /**
     * Emit an object member key; exactly one value (or container)
     * must follow before the next key or endObject().
     */
    void key(std::string_view name);

    /** @{ @name Scalar values */
    void null();
    void boolean(bool b);
    void number(double n);
    void string(std::string_view s);
    /** @} */

    /**
     * Splice a pre-serialized JSON value verbatim.
     *
     * @p text must be one complete value with no surrounding
     * whitespace. The span is spliced as-is, so in pretty mode
     * byte-identity with `dump(true)` additionally requires the
     * span itself to carry the right indentation -- transcode
     * compact spans with `ondemand::reserializeValue` instead.
     */
    void raw(std::string_view text);

    /** The document so far (the full document once complete()). */
    const std::string &str() const { return out_; }

    /**
     * Move the finished document out and reset the writer for the
     * next document (the NDJSON line discipline).
     * @throws ModelError when scopes are still open or no root
     *         value has been written.
     */
    std::string take();

    /** True when one root value exists and every scope closed. */
    bool complete() const
    {
        return frames_.empty() && has_root_;
    }

    /** Number of currently open containers. */
    std::size_t depth() const { return frames_.size(); }

  private:
    struct Frame
    {
        char kind;        // '{' or '['
        bool empty;       // open bracket still deferred
        bool key_pending; // object: key emitted, value expected
    };

    void elementPrefix();
    void openContainer(char open);
    void closeContainer(char open, char close);
    void materialize(Frame &frame);
    void indent();

    std::string out_;
    std::vector<Frame> frames_;
    std::size_t base_depth_ = 0;
    bool pretty_ = false;
    bool has_root_ = false;
};

/**
 * Emit @p value through @p writer. `appendValue(w, v)` produces
 * exactly `v.dump(pretty)` -- the drift lock between the DOM
 * serializer and the streaming writer.
 */
void appendValue(StreamWriter &writer, const Value &value);

} // namespace ecochip::json

#endif // ECOCHIP_JSON_STREAM_WRITER_H
