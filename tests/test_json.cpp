/**
 * @file
 * Unit tests for the JSON parser and serializer, the streaming
 * writer (`json/stream_writer.h`), and the forward-only on-demand
 * scanner (`json/ondemand.h`).
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include <unistd.h>

#include <gtest/gtest.h>

#include "json/json.h"
#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "support/error.h"

namespace ecochip::json {
namespace {

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(parse("null").isNull());
    EXPECT_EQ(parse("true").asBoolean(), true);
    EXPECT_EQ(parse("false").asBoolean(), false);
    EXPECT_DOUBLE_EQ(parse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(parse("-3.25").asNumber(), -3.25);
    EXPECT_DOUBLE_EQ(parse("6.02e23").asNumber(), 6.02e23);
    EXPECT_DOUBLE_EQ(parse("1E-3").asNumber(), 1e-3);
    EXPECT_EQ(parse("\"hi\"").asString(), "hi");
}

TEST(JsonParse, NestedStructure)
{
    const Value doc = parse(R"({
        "name": "soc",
        "chiplets": [
            {"name": "a", "area": 10.5},
            {"name": "b", "area": 20.0}
        ],
        "flags": {"mono": false}
    })");
    EXPECT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("name").asString(), "soc");
    EXPECT_EQ(doc.at("chiplets").size(), 2u);
    EXPECT_DOUBLE_EQ(
        doc.at("chiplets")[1].at("area").asNumber(), 20.0);
    EXPECT_FALSE(doc.at("flags").at("mono").asBoolean());
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(parse(R"("a\"b")").asString(), "a\"b");
    EXPECT_EQ(parse(R"("a\\b")").asString(), "a\\b");
    EXPECT_EQ(parse(R"("a\nb\tc")").asString(), "a\nb\tc");
    EXPECT_EQ(parse(R"("a\/b")").asString(), "a/b");
}

TEST(JsonParse, UnicodeEscapes)
{
    EXPECT_EQ(parse(R"("A")").asString(), "A");
    // U+00E9 (e-acute) -> 2-byte UTF-8.
    EXPECT_EQ(parse(R"("é")").asString(), "\xc3\xa9");
    // U+20AC (euro) -> 3-byte UTF-8.
    EXPECT_EQ(parse(R"("€")").asString(), "\xe2\x82\xac");
}

TEST(JsonParse, ToleratesLineComments)
{
    const Value doc = parse(
        "{\n  // carbon config\n  \"x\": 1 // trailing\n}");
    EXPECT_DOUBLE_EQ(doc.at("x").asNumber(), 1.0);
}

TEST(JsonParse, EmptyContainers)
{
    EXPECT_EQ(parse("[]").size(), 0u);
    EXPECT_EQ(parse("{}").size(), 0u);
    EXPECT_EQ(parse("[ ]").size(), 0u);
}

TEST(JsonParse, ErrorsCarryLineAndColumn)
{
    try {
        parse("{\n  \"a\": 1,\n  \"b\": }\n");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    }
}

TEST(JsonParse, RejectsMalformedDocuments)
{
    EXPECT_THROW(parse(""), ConfigError);
    EXPECT_THROW(parse("{"), ConfigError);
    EXPECT_THROW(parse("[1, 2"), ConfigError);
    EXPECT_THROW(parse("tru"), ConfigError);
    EXPECT_THROW(parse("\"unterminated"), ConfigError);
    EXPECT_THROW(parse("01x"), ConfigError);
    EXPECT_THROW(parse("1.2.3"), ConfigError);
    EXPECT_THROW(parse("{\"a\" 1}"), ConfigError);
    EXPECT_THROW(parse("{} extra"), ConfigError);
    EXPECT_THROW(parse("1.-"), ConfigError);
    EXPECT_THROW(parse("[1,]"), ConfigError);
}

TEST(JsonParse, RejectsDuplicateKeys)
{
    EXPECT_THROW(parse(R"({"a": 1, "a": 2})"), ConfigError);
}

TEST(JsonValue, TypeMismatchThrows)
{
    const Value v = parse("{\"n\": 5}");
    EXPECT_THROW(v.at("n").asString(), ConfigError);
    EXPECT_THROW(v.at("n").asArray(), ConfigError);
    EXPECT_THROW(v.at("missing"), ConfigError);
    EXPECT_THROW(v.asNumber(), ConfigError);
}

TEST(JsonValue, AsIntegerValidatesIntegrality)
{
    EXPECT_EQ(parse("7").asInteger(), 7);
    EXPECT_EQ(parse("-3").asInteger(), -3);
    EXPECT_THROW(parse("7.5").asInteger(), ConfigError);
}

TEST(JsonValue, OptionalLookups)
{
    const Value v = parse(R"({"x": 2.0, "s": "hey", "b": true})");
    EXPECT_DOUBLE_EQ(v.numberOr("x", 9.0), 2.0);
    EXPECT_DOUBLE_EQ(v.numberOr("y", 9.0), 9.0);
    EXPECT_EQ(v.stringOr("s", "d"), "hey");
    EXPECT_EQ(v.stringOr("t", "d"), "d");
    EXPECT_TRUE(v.booleanOr("b", false));
    EXPECT_TRUE(v.booleanOr("c", true));
}

TEST(JsonValue, SetOverwritesAndPreservesOrder)
{
    Value obj = Value::makeObject();
    obj.set("z", 1);
    obj.set("a", 2);
    obj.set("z", 3);
    EXPECT_EQ(obj.size(), 2u);
    EXPECT_EQ(obj.members()[0].first, "z");
    EXPECT_DOUBLE_EQ(obj.at("z").asNumber(), 3.0);
}

TEST(JsonDump, RoundTripsStructures)
{
    const std::string text =
        R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null}})";
    const Value doc = parse(text);
    EXPECT_EQ(parse(doc.dump()), doc);
    EXPECT_EQ(parse(doc.dump(true)), doc);
}

TEST(JsonDump, EscapesSpecialCharacters)
{
    const Value v(std::string("a\"b\\c\nd"));
    EXPECT_EQ(parse(v.dump()), v);
}

TEST(JsonDump, IntegersPrintWithoutFraction)
{
    EXPECT_EQ(Value(42.0).dump(), "42");
    EXPECT_EQ(Value(-7).dump(), "-7");
}

TEST(JsonDump, PrettyPrintIndents)
{
    Value obj = Value::makeObject();
    obj.set("k", 1);
    EXPECT_EQ(obj.dump(true), "{\n    \"k\": 1\n}");
}

TEST(JsonFile, WriteAndParseFile)
{
    const std::string path = ::testing::TempDir() +
                             "/ecochip_json_test_" +
                             std::to_string(::getpid()) + ".json";
    Value obj = Value::makeObject();
    obj.set("answer", 42);
    writeFile(obj, path);
    EXPECT_EQ(parseFile(path), obj);
    std::remove(path.c_str());
}

TEST(JsonFile, MissingFileThrows)
{
    EXPECT_THROW(parseFile("/nonexistent/nope.json"), ConfigError);
}

TEST(JsonValue, Equality)
{
    EXPECT_EQ(parse("[1,2]"), parse("[1, 2]"));
    EXPECT_FALSE(parse("[1,2]") == parse("[2,1]"));
    EXPECT_FALSE(Value(1.0) == Value("1"));
}

// ---------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------

TEST(StreamWriter, MatchesDumpForScalars)
{
    StreamWriter writer;
    writer.null();
    EXPECT_EQ(writer.take(), "null");
    writer.boolean(true);
    EXPECT_EQ(writer.take(), "true");
    writer.number(42.0);
    EXPECT_EQ(writer.take(), "42");
    writer.string("a\"b");
    EXPECT_EQ(writer.take(), R"("a\"b")");
}

TEST(StreamWriter, MatchesDumpForContainers)
{
    const Value doc = parse(
        R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":[],"f":{}})");
    StreamWriter compact;
    appendValue(compact, doc);
    EXPECT_EQ(compact.take(), doc.dump(false));
    StreamWriter pretty(true);
    appendValue(pretty, doc);
    EXPECT_EQ(pretty.take(), doc.dump(true));
}

TEST(StreamWriter, EmptyContainersMatchDump)
{
    StreamWriter pretty(true);
    pretty.beginObject();
    pretty.key("a");
    pretty.beginArray();
    pretty.endArray();
    pretty.key("b");
    pretty.beginObject();
    pretty.endObject();
    pretty.endObject();
    EXPECT_EQ(pretty.take(),
              parse(R"({"a":[],"b":{}})").dump(true));
}

TEST(StreamWriter, TakeResetsForReuse)
{
    StreamWriter writer;
    writer.beginArray();
    writer.number(1);
    writer.endArray();
    EXPECT_EQ(writer.take(), "[1]");
    writer.beginObject();
    writer.key("k");
    writer.string("v");
    writer.endObject();
    EXPECT_EQ(writer.take(), R"({"k":"v"})");
}

TEST(StreamWriter, BaseDepthSplicesAnElementIntoALargerDocument)
{
    const Value doc = parse(R"({"a":[{"x":[1,2]},{"y":{}}]})");
    const std::string whole = doc.dump(true);
    // Each element of "a" written at depth 2, after a prefix and
    // the element's own separator, reproduces the whole dump.
    std::string text = "{\n    \"a\": [";
    const auto &elements = doc.at("a").asArray();
    for (std::size_t i = 0; i < elements.size(); ++i) {
        text += i ? ",\n        " : "\n        ";
        StreamWriter writer(true, 2, std::move(text));
        appendValue(writer, elements[i]);
        EXPECT_EQ(writer.depth(), 0u);
        text = writer.take();
    }
    text += "\n    ]\n}";
    EXPECT_EQ(text, whole);
    // The compact form ignores the depth.
    StreamWriter compact(false, 3, "prefix:");
    appendValue(compact, elements[0]);
    EXPECT_EQ(compact.take(), "prefix:" + elements[0].dump(false));
}

TEST(StreamWriter, RawSplicesVerbatim)
{
    StreamWriter writer;
    writer.beginObject();
    writer.key("payload");
    writer.raw(R"([1,{"x":true}])");
    writer.endObject();
    EXPECT_EQ(writer.take(), R"({"payload":[1,{"x":true}]})");
}

TEST(StreamWriter, ScopeViolationsThrow)
{
    {
        StreamWriter writer;
        EXPECT_THROW(writer.endObject(), ModelError);
    }
    {
        StreamWriter writer;
        writer.beginArray();
        EXPECT_THROW(writer.key("k"), ModelError);
    }
    {
        StreamWriter writer;
        writer.beginObject();
        EXPECT_THROW(writer.number(1), ModelError);
    }
    {
        StreamWriter writer;
        writer.beginArray();
        EXPECT_THROW(writer.take(), ModelError);
    }
}

// The wire-path escaping contract: `json::dump` and the streaming
// writer agree byte-for-byte on every control character below
// 0x20 -- golden spellings, one per character.
TEST(StreamWriter, ControlCharacterEscapesMatchDumpGolden)
{
    const char *golden[32] = {
        "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004",
        "\\u0005", "\\u0006", "\\u0007", "\\b",     "\\t",
        "\\n",     "\\u000b", "\\f",     "\\r",     "\\u000e",
        "\\u000f", "\\u0010", "\\u0011", "\\u0012", "\\u0013",
        "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
        "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d",
        "\\u001e", "\\u001f"};
    for (int c = 0; c < 32; ++c) {
        const std::string raw(1, static_cast<char>(c));
        std::string expected = "\"";
        expected.append(golden[c]).append("\"");
        EXPECT_EQ(Value(raw).dump(false), expected)
            << "dump of control char " << c;
        StreamWriter writer;
        writer.string(raw);
        EXPECT_EQ(writer.take(), expected)
            << "writer output for control char " << c;
        // And the escape parses back to the original byte --
        // through both parsers.
        EXPECT_EQ(parse(expected).asString(), raw);
        ondemand::Scanner scanner(expected);
        EXPECT_EQ(scanner.string(), raw);
    }
}

// ---------------------------------------------------------------
// On-demand scanner
// ---------------------------------------------------------------

TEST(Ondemand, ScansScalars)
{
    {
        ondemand::Scanner s("true");
        EXPECT_TRUE(s.boolean());
    }
    {
        ondemand::Scanner s("-3.25");
        EXPECT_DOUBLE_EQ(s.number(), -3.25);
    }
    {
        ondemand::Scanner s(R"("a\nb")");
        EXPECT_EQ(s.string(), "a\nb");
    }
    {
        ondemand::Scanner s(" null ");
        s.null();
        s.expectEnd();
    }
}

TEST(Ondemand, IteratesObjectsAndArrays)
{
    ondemand::Scanner s(
        R"({"name":"soc","areas":[10.5,20],"ok":true})");
    s.beginObject();
    std::string key;
    ASSERT_TRUE(s.nextMember(key));
    EXPECT_EQ(key, "name");
    EXPECT_EQ(s.string(), "soc");
    ASSERT_TRUE(s.nextMember(key));
    EXPECT_EQ(key, "areas");
    s.beginArray();
    ASSERT_TRUE(s.nextElement());
    EXPECT_DOUBLE_EQ(s.number(), 10.5);
    ASSERT_TRUE(s.nextElement());
    EXPECT_DOUBLE_EQ(s.number(), 20.0);
    EXPECT_FALSE(s.nextElement());
    ASSERT_TRUE(s.nextMember(key));
    EXPECT_EQ(key, "ok");
    EXPECT_TRUE(s.boolean());
    EXPECT_FALSE(s.nextMember(key));
    s.expectEnd();
}

TEST(Ondemand, RawValueYieldsSpans)
{
    ondemand::Scanner s(R"([ {"a": 1} , [2, 3] , "x" ])");
    s.beginArray();
    ASSERT_TRUE(s.nextElement());
    EXPECT_EQ(s.rawValue(), R"({"a": 1})");
    ASSERT_TRUE(s.nextElement());
    EXPECT_EQ(s.rawValue(), "[2, 3]");
    ASSERT_TRUE(s.nextElement());
    EXPECT_EQ(s.rawValue(), "\"x\"");
    EXPECT_FALSE(s.nextElement());
    s.expectEnd();
}

TEST(Ondemand, FindMemberSeeksWithoutMaterializing)
{
    const std::string doc =
        R"({"request":{"kind":"estimate"},"ok":false,"error":"boom"})";
    const auto request = ondemand::findMember(doc, "request");
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(*request, R"({"kind":"estimate"})");
    EXPECT_FALSE(
        ondemand::findMember(doc, "missing").has_value());
    EXPECT_FALSE(ondemand::booleanField(doc, "ok", true));
    EXPECT_TRUE(ondemand::booleanField(doc, "absent", true));
    // Type mismatch carries the same message as booleanOr.
    try {
        ondemand::booleanField(doc, "error", false);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("expected boolean, got string"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Ondemand, ReserializeMatchesParseDump)
{
    const std::string text =
        "{\n  // comment\n  \"a\": [1, 2.50, \"x\\u0041\"],\n"
        "  \"b\": {\"c\": true, \"d\": null}\n}";
    const Value doc = parse(text);
    EXPECT_EQ(ondemand::reserialize(text, false),
              doc.dump(false));
    EXPECT_EQ(ondemand::reserialize(text, true), doc.dump(true));
}

TEST(Ondemand, RejectsDuplicateKeysLikeDom)
{
    EXPECT_THROW(ondemand::validate(R"({"a":1,"a":2})"),
                 ConfigError);
    EXPECT_THROW(parse(R"({"a":1,"a":2})"), ConfigError);
}

// Malformed-input matrix: every case rejects with a
// position-bearing error from BOTH entry points (the DOM builder
// and validate), and the scanner never reads past the buffer
// (the ASan CI job runs this file).
TEST(Ondemand, MalformedInputMatrixRejectsWithPositions)
{
    const char *cases[] = {
        "",                     // empty document
        "   ",                  // only whitespace
        "// comment only",      // comment, no value
        "{",                    // truncated object
        "[1, 2",                // truncated array
        "{\"a\": 1",            // object cut mid-member
        "{\"a\"",               // object cut before colon
        "{\"a\": }",            // missing value
        "[1, ]",                // trailing comma
        "{\"a\": 1,}",          // trailing comma in object
        "[1} ",                 // mismatched brackets
        "{\"a\": 1]",           // mismatched brackets
        "\"unterminated",       // unterminated string
        "\"bad \\x escape\"",   // unknown escape
        "\"\\u12\"",            // short \u escape
        "\"\\u12zz\"",          // non-hex \u escape
        "\"raw \x01 control\"", // raw control char in string
        "tru",                  // truncated keyword
        "nul",                  // truncated keyword
        "+1",                   // leading plus
        "1.",                   // digitless fraction
        ".5",                   // digitless integer part
        "1e",                   // digitless exponent
        "1e+",                  // digitless signed exponent
        "1.2.3",                // overlong number
        "0x10",                 // hex is not JSON
        "1e999",                // out-of-range magnitude
        "-1e999",               // out-of-range magnitude
        "{} extra",             // trailing garbage
        "[1] [2]",              // two documents
        "{\"a\":1,\"a\":[1,2,3]}",  // duplicate key, container value
        "{\"a\":1,\"a\":[1,2,3}",   // duplicate key before a bad array
        "{\"a\":1,\"\\u0061\":2}", // duplicate spelled with an escape
    };
    for (const char *text : cases) {
        // DOM builder rejects...
        std::string dom_error;
        try {
            parse(text);
        } catch (const ConfigError &e) {
            dom_error = e.what();
        }
        ASSERT_FALSE(dom_error.empty())
            << "DOM accepted: " << text;
        // ...the scanner rejects with the identical message...
        std::string scan_error;
        try {
            ondemand::validate(text);
        } catch (const ConfigError &e) {
            scan_error = e.what();
        }
        ASSERT_FALSE(scan_error.empty())
            << "scanner accepted: " << text;
        EXPECT_EQ(scan_error, dom_error) << "input: " << text;
        // ...and the message carries a position.
        EXPECT_NE(scan_error.find("line "), std::string::npos)
            << scan_error;
        EXPECT_NE(scan_error.find("column "), std::string::npos)
            << scan_error;
    }
}

/** The ConfigError message @p fn throws, or "" when it returns. */
template <typename Fn>
std::string
errorOf(Fn fn)
{
    try {
        fn();
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

TEST(Ondemand, NestingDepthIsBoundedInEveryEntryPoint)
{
    const std::size_t limit = ondemand::kMaxNestingDepth;
    const auto nested = [](std::size_t depth, const std::string &open,
                           const std::string &close) {
        std::string text;
        for (std::size_t i = 0; i < depth; ++i)
            text += open;
        text += "1";
        for (std::size_t i = 0; i < depth; ++i)
            text += close;
        return text;
    };

    // Exactly at the limit: accepted, and the tree round-trips.
    for (const auto &[open, close] :
         {std::pair<std::string, std::string>{"[", "]"},
          {"{\"a\":", "}"}}) {
        const std::string text = nested(limit, open, close);
        ondemand::validate(text);
        EXPECT_EQ(parse(text).dump(false), text);
        EXPECT_EQ(ondemand::reserialize(text, false), text);
    }

    // Far past it (the shape that used to overflow the stack):
    // every entry point fails at the first container too deep.
    const std::pair<std::string, std::size_t> deep[] = {
        {std::string(100000, '['), limit + 1},
        {nested(100000, "{\"a\":", "}"), 5 * limit + 1},
        {nested(limit + 1, "[", "]"), limit + 1},
    };
    for (const auto &[text, column] : deep) {
        const std::string expected =
            "config error: JSON parse error at line 1, column " +
            std::to_string(column) +
            ": containers nested deeper than 512 levels";
        EXPECT_EQ(errorOf([&] { parse(text); }), expected);
        EXPECT_EQ(errorOf([&] { ondemand::validate(text); }),
                  expected);
        EXPECT_EQ(errorOf([&] {
                      ondemand::reserialize(text, true);
                  }),
                  expected);
        EXPECT_EQ(errorOf([&] {
                      ondemand::Scanner(text).rawValue();
                  }),
                  expected);
    }
    // findMember descends through a member's value too: the
    // wrapping object is one level, so the limit is hit one
    // container earlier in the same text.
    const std::string wrapped =
        "{\"a\":" + std::string(100000, '[') + "}";
    EXPECT_EQ(errorOf([&] { ondemand::findMember(wrapped, "a"); }),
              "config error: JSON parse error at line 1, column " +
                  std::to_string(5 + limit) +
                  ": containers nested deeper than 512 levels");
}

TEST(Ondemand, NeverReadsPastAnUnterminatedBuffer)
{
    // A document sliced at every prefix length must either parse
    // (never happens for proper prefixes of this doc) or throw --
    // ASan verifies no read walks off the end of the heap
    // allocation backing the string_view.
    const std::string doc =
        R"({"a": [1, 2.5e3, "x\u0041\n"], "b": {"c": true}})";
    for (std::size_t len = 0; len < doc.size(); ++len) {
        const std::string prefix = doc.substr(0, len);
        EXPECT_THROW(ondemand::validate(prefix), ConfigError)
            << "prefix length " << len;
    }
    ondemand::validate(doc);
}

/** Bit pattern of @p x: tells -0.0 from 0.0. */
std::uint64_t
bitsOf(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

TEST(Ondemand, NumberRangeChecksMatchDom)
{
    // Overflow: both parsers reject positionally.
    EXPECT_THROW(parse("1e999"), ConfigError);
    EXPECT_THROW(ondemand::validate("1e999"), ConfigError);
    // Quiet underflow: both parsers accept (denormal or zero).
    EXPECT_DOUBLE_EQ(parse("1e-999").asNumber(), 0.0);
    ondemand::Scanner s("1e-999");
    EXPECT_DOUBLE_EQ(s.number(), 0.0);

    // std::from_chars reports underflow as out of range and leaves
    // the value unset; strtod's nearest denormal or signed zero is
    // the answer, bitwise, in both parsers.
    const std::pair<const char *, double> underflows[] = {
        {"1e-400", 0.0},
        {"-1e-400", -0.0},
        {"2e-324", 0.0},
        {"1e-320", 1e-320}, // a denormal
    };
    for (const auto &[text, want] : underflows) {
        EXPECT_EQ(bitsOf(parse(text).asNumber()), bitsOf(want))
            << text;
        ondemand::Scanner scanner(text);
        EXPECT_EQ(bitsOf(scanner.number()), bitsOf(want)) << text;
        ondemand::validate(std::string("[") + text + "]");
    }
    // Overflow is rejected with the same message and position.
    for (const char *text : {"1e400", "-1e400", "[0, 1e400]"}) {
        std::string dom_error;
        try {
            parse(text);
        } catch (const ConfigError &e) {
            dom_error = e.what();
        }
        EXPECT_NE(dom_error.find("number out of range"),
                  std::string::npos)
            << text << ": " << dom_error;
        std::string scan_error;
        try {
            ondemand::validate(text);
        } catch (const ConfigError &e) {
            scan_error = e.what();
        }
        EXPECT_EQ(scan_error, dom_error) << text;
    }
}

} // namespace
} // namespace ecochip::json
