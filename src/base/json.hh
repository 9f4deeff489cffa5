/**
 * @file
 * Minimal dependency-free JSON output, shared by every producer of
 * JSON in the repo: JsonWriter is the streaming emitter behind the
 * suite and co-location reports and the per-outcome serializer
 * (runner/report writeOutcomeJson). One implementation of RFC 8259
 * string escaping, tested once in tests/test_json.cc.
 */

#ifndef DMPB_BASE_JSON_HH
#define DMPB_BASE_JSON_HH

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace dmpb {

/** Streaming JSON emitter: handles nesting, commas and escaping. */
class JsonWriter
{
  public:
    JsonWriter()
    {
        os_.precision(std::numeric_limits<double>::max_digits10);
    }

    void openObject() { element(); os_ << "{"; push(); }
    void openObject(const std::string &k) { key(k); os_ << "{"; push(); }
    void closeObject() { pop(); os_ << "}"; }
    void openArray() { element(); os_ << "["; push(); }
    void openArray(const std::string &k) { key(k); os_ << "["; push(); }
    void closeArray() { pop(); os_ << "]"; }

    void
    field(const std::string &k, const std::string &v)
    {
        key(k);
        string(v);
    }

    void
    field(const std::string &k, const char *v)
    {
        field(k, std::string(v));
    }

    void
    field(const std::string &k, double v)
    {
        key(k);
        number(v);
    }

    void
    field(const std::string &k, std::uint64_t v)
    {
        key(k);
        os_ << v;
    }

    void
    field(const std::string &k, bool v)
    {
        key(k);
        os_ << (v ? "true" : "false");
    }

    /** Array-element emitters (no key). */
    void element(const std::string &v) { element(); string(v); }
    void element(double v) { element(); number(v); }

    /**
     * Splice @p json -- a complete, already-serialized JSON value --
     * in as one array element, verbatim. This is how pre-rendered
     * outcome objects (writeOutcomeJson) embed into the suite report
     * without re-serializing.
     */
    void
    rawElement(const std::string &json)
    {
        element();
        os_ << json;
    }

    std::string str() const { return os_.str(); }

  private:
    void
    element()
    {
        if (!first_.empty() && !first_.back())
            os_ << ",";
        if (!first_.empty())
            first_.back() = false;
    }

    void
    key(const std::string &k)
    {
        element();
        string(k);
        os_ << ":";
    }

    void number(double v);
    void string(const std::string &s);

    void push() { first_.push_back(true); }
    void pop() { first_.pop_back(); }

    std::ostringstream os_;
    std::vector<bool> first_;
};

/** RFC 8259-escape @p s (without the surrounding quotes). */
std::string jsonEscape(const std::string &s);

} // namespace dmpb

#endif // DMPB_BASE_JSON_HH
