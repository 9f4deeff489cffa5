#include "base/json.hh"

#include <cmath>
#include <cstdio>

namespace dmpb {

namespace {

void
appendEscaped(std::ostream &os, const std::string &s)
{
    // RFC 8259: every control character below 0x20 MUST be escaped --
    // the named shorthands where they exist, \u00XX for the rest (a
    // workload or parameter name containing one must still yield a
    // parseable document).
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\b': os << "\\b"; break;
          case '\f': os << "\\f"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
}

} // namespace

void
JsonWriter::number(double v)
{
    if (std::isfinite(v))
        os_ << v;
    else
        os_ << "null";  // JSON has no NaN/Inf
}

void
JsonWriter::string(const std::string &s)
{
    os_ << '"';
    appendEscaped(os_, s);
    os_ << '"';
}

std::string
jsonEscape(const std::string &s)
{
    std::ostringstream os;
    appendEscaped(os, s);
    return os.str();
}

} // namespace dmpb
