/**
 * @file
 * Unit tests for base/json: the streaming JsonWriter every JSON
 * producer in the repo shares. Its output is pinned byte for byte.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/json.hh"

namespace dmpb {
namespace {

TEST(JsonWriter, NestedObjectsAndArrays)
{
    JsonWriter json;
    json.openObject();
    json.field("name", "x");
    json.openObject("inner");
    json.field("n", std::uint64_t(7));
    json.closeObject();
    json.openArray("list");
    json.element(1.5);
    json.element("two");
    json.closeArray();
    json.field("flag", true);
    json.closeObject();
    EXPECT_EQ(json.str(),
              "{\"name\":\"x\",\"inner\":{\"n\":7},"
              "\"list\":[1.5,\"two\"],\"flag\":true}");
}

TEST(JsonWriter, RawSpliceLandsVerbatim)
{
    JsonWriter inner;
    inner.openObject();
    inner.field("a", std::uint64_t(1));
    inner.closeObject();

    JsonWriter json;
    json.openObject();
    json.openArray("all");
    json.rawElement(inner.str());
    json.rawElement(inner.str());
    json.closeArray();
    json.closeObject();
    EXPECT_EQ(json.str(), "{\"all\":[{\"a\":1},{\"a\":1}]}");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    JsonWriter json;
    json.openArray();
    json.element(std::numeric_limits<double>::quiet_NaN());
    json.element(std::numeric_limits<double>::infinity());
    json.closeArray();
    EXPECT_EQ(json.str(), "[null,null]");
}

TEST(JsonEscape, EscapesEveryControlCharacter)
{
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
    EXPECT_EQ(jsonEscape(std::string("\x01\x1f", 2)),
              "\\u0001\\u001f");
    EXPECT_EQ(jsonEscape("plain"), "plain");
}

TEST(JsonWriter, FieldsSerializeExactly)
{
    JsonWriter json;
    json.openObject();
    json.field("s", "quote\" tab\t ctrl\x02 end");
    json.field("n", 0.125);
    json.field("u", std::uint64_t(1) << 53);
    json.field("b", false);
    json.closeObject();
    EXPECT_EQ(json.str(),
              "{\"s\":\"quote\\\" tab\\t ctrl\\u0002 end\","
              "\"n\":0.125,\"u\":9007199254740992,\"b\":false}");
}

} // namespace
} // namespace dmpb
