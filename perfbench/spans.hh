/**
 * @file
 * In-memory span recorder of the benchmark's traced run.
 *
 * The traced run calls the library's layer functions itself and wraps
 * each call in a span: name, start, end, parent span and the cell the
 * call belongs to (one pipeline or one co-location scenario), plus an
 * optional work count (events, evaluations, bytes) measured at the same
 * boundary. Spans stay in memory and are written out once, at exit, so
 * recording costs two clock reads and a vector append per call.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "base/json.hh"

namespace perfbench {

struct Span
{
    std::string name;
    std::string cell;
    double start_s = 0.0;    ///< seconds since the recorder started
    double end_s = 0.0;
    int parent = -1;         ///< index of the enclosing span, -1 = root
    std::uint64_t items = 0; ///< work done inside the span (0 = none)

    double seconds() const { return end_s - start_s; }
};

/** Single-threaded span recorder (the benchmark driver is serial). */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    int
    begin(const std::string &name, const std::string &cell)
    {
        Span s;
        s.name = name;
        s.cell = cell;
        s.parent = open_.empty() ? -1 : open_.back();
        s.start_s = now();
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id, std::uint64_t items)
    {
        spans_[id].end_s = now();
        spans_[id].items = items;
        open_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Total seconds and items over every span named @p name. */
    double
    totalSeconds(const std::string &name) const
    {
        double s = 0.0;
        for (const Span &span : spans_)
            if (span.name == name)
                s += span.seconds();
        return s;
    }

    std::uint64_t
    totalItems(const std::string &name) const
    {
        std::uint64_t n = 0;
        for (const Span &span : spans_)
            if (span.name == name)
                n += span.items;
        return n;
    }

    /** Write every span as one JSON document; false on I/O failure. */
    bool
    write(const std::string &path, const std::string &workload,
          std::uint64_t seed) const
    {
        dmpb::JsonWriter w;
        w.openObject();
        w.field("workload", workload);
        w.field("seed", seed);
        w.openArray("spans");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.openObject();
            w.field("id", static_cast<std::uint64_t>(i));
            w.field("name", s.name);
            w.field("cell", s.cell);
            w.field("parent", static_cast<double>(s.parent));
            w.field("start_s", s.start_s);
            w.field("end_s", s.end_s);
            w.field("items", s.items);
            w.closeObject();
        }
        w.closeArray();
        w.closeObject();
        std::ofstream out(path);
        out << w.str() << "\n";
        return static_cast<bool>(out);
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; set items before it closes. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name,
               const std::string &cell)
        : tracer_(tracer), id_(tracer.begin(name, cell))
    {}

    ~ScopedSpan() { tracer_.end(id_, items); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t items = 0;

  private:
    Tracer &tracer_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
