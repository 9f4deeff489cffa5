#include "runner/report.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "sim/metrics.hh"

namespace dmpb {

namespace {

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

std::string
hex64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
emitMetrics(JsonWriter &json, const MetricVector &metrics)
{
    json.openObject("metrics");
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        json.field(metricName(m), metrics[m]);
    }
    json.closeObject();
}

} // namespace

std::string
writeOutcomeJson(const WorkloadOutcome &o)
{
    JsonWriter json;
    json.openObject();
    json.field("name", o.name);
    json.field("short_name", o.short_name);
    json.field("status", runStatusName(o.status));
    json.field("error", o.error);
    json.field("from_cache", o.from_cache);
    json.field("real_from_cache", o.real_from_cache);
    json.field("elapsed_s", o.elapsed_s);
    if (o.status == RunStatus::Ok) {
        json.openObject("real");
        json.field("runtime_s", o.real.runtime_s);
        emitMetrics(json, o.real.metrics);
        json.closeObject();
        json.openObject("proxy");
        json.field("runtime_s", o.proxy.runtime_s);
        json.field("checksum", hex64(o.proxy.checksum));
        emitMetrics(json, o.proxy.metrics);
        json.closeObject();
        json.openObject("tuning");
        json.field("qualified", o.qualified);
        json.field("iterations",
                   static_cast<std::uint64_t>(o.iterations));
        json.field("evaluations",
                   static_cast<std::uint64_t>(o.evaluations));
        json.field("avg_accuracy", o.avg_accuracy);
        json.field("max_deviation", o.max_deviation);
        json.closeObject();
        json.openObject("accuracy");
        const std::vector<Metric> &set = accuracyMetricSet();
        for (std::size_t i = 0;
             i < set.size() && i < o.metric_accuracy.size(); ++i) {
            json.field(metricName(set[i]), o.metric_accuracy[i]);
        }
        json.closeObject();
        json.field("speedup", o.speedup);
    }
    json.closeObject();
    return json.str();
}

std::string
writeColocationJson(const ColocationOutcome &o)
{
    JsonWriter json;
    json.openObject();
    json.field("mode", "colocate");
    json.field("status", runStatusName(o.status));
    json.field("error", o.error);
    json.field("policy", o.policy);
    json.field("scale", scaleName(o.scale));
    json.field("seed", o.seed);
    json.field("from_cache", o.from_cache);
    json.field("elapsed_s", o.elapsed_s);
    if (o.status == RunStatus::Ok) {
        json.field("stp", o.stp);
        json.field("antt", o.antt);
        json.field("unfairness", o.unfairness);
        json.field("checksum", hex64(o.checksum));
        json.openArray("tenants");
        for (const TenantOutcome &t : o.tenants) {
            json.openObject();
            json.field("name", t.name);
            json.field("short_name", t.short_name);
            json.field("slowdown", t.slowdown);
            json.field("captured_events", t.captured_events);
            json.field("llc_accesses", t.llc_accesses);
            json.openObject("isolated");
            json.field("runtime_s", t.isolated_runtime_s);
            emitMetrics(json, t.isolated_metrics);
            json.closeObject();
            json.openObject("colocated");
            json.field("runtime_s", t.colocated_runtime_s);
            emitMetrics(json, t.colocated_metrics);
            json.closeObject();
            json.closeObject();
        }
        json.closeArray();
    }
    json.closeObject();
    return json.str();
}

std::string
renderColocationTable(const ColocationOutcome &o)
{
    std::ostringstream os;
    if (o.status != RunStatus::Ok) {
        os << "co-location " << runStatusName(o.status) << ": "
           << o.error << "\n";
        return os.str();
    }
    TextTable table;
    table.header({"Tenant", "Iso (s)", "Colo (s)", "Slowdown",
                  "L3 hit iso", "L3 hit colo", "Events", "LLC stream"});
    for (const TenantOutcome &t : o.tenants) {
        // Stream sizes are absent ("-") when the outcome was restored
        // from the reference cache: nothing was captured.
        const bool captured = t.captured_events > 0;
        table.row({t.short_name,
                   fmt("%.3f", t.isolated_runtime_s),
                   fmt("%.3f", t.colocated_runtime_s),
                   fmt("%.3fx", t.slowdown),
                   fmt("%.1f%%",
                       100.0 * t.isolated_metrics[Metric::L3Hit]),
                   fmt("%.1f%%",
                       100.0 * t.colocated_metrics[Metric::L3Hit]),
                   captured ? std::to_string(t.captured_events)
                            : std::string("-"),
                   captured ? std::to_string(t.llc_accesses)
                            : std::string("-")});
    }
    os << table.render();
    os << "\nco-location: " << o.tenants.size() << " tenant(s), policy "
       << o.policy << ", scale " << scaleName(o.scale) << ", seed "
       << o.seed << (o.from_cache ? ", cached" : "") << "\n"
       << "STP " << fmt("%.3f", o.stp) << ", ANTT "
       << fmt("%.3f", o.antt) << ", unfairness "
       << fmt("%.3f", o.unfairness) << ", checksum "
       << hex64(o.checksum) << "\n";
    return os.str();
}

std::string
renderTable(const SuiteResult &result)
{
    TextTable table;
    table.header({"Workload", "Status", "Real (s)", "Proxy (s)",
                  "Speedup", "Avg acc", "Qualified", "Iters",
                  "Cached", "Checksum"});
    for (const WorkloadOutcome &o : result.outcomes) {
        if (o.status != RunStatus::Ok) {
            table.row({o.short_name, runStatusName(o.status), "-", "-",
                       "-", "-", "-", "-", "-", o.error});
            continue;
        }
        // Cached: which memoised artefacts served this pipeline --
        // the reference measurement ("real"), the tuned parameter
        // vector ("tuned"), both, or neither.
        const char *cached =
            o.real_from_cache ? (o.from_cache ? "real+tuned" : "real")
                              : (o.from_cache ? "tuned" : "no");
        table.row({o.short_name, runStatusName(o.status),
                   fmt("%.1f", o.real.runtime_s),
                   fmt("%.2f", o.proxy.runtime_s),
                   fmt("%.0fx", o.speedup),
                   fmt("%.1f%%", 100.0 * o.avg_accuracy),
                   o.qualified ? "yes" : "no",
                   std::to_string(o.iterations), cached,
                   hex64(o.proxy.checksum)});
    }

    std::ostringstream os;
    os << table.render();
    os << "\nsuite: " << result.outcomes.size() << " workload(s), "
       << result.jobs << " job(s), seed " << result.seed << ", "
       << fmt("%.1f", result.elapsed_s) << " s wall, checksum "
       << hex64(result.checksum())
       << (result.allOk() ? "" : "  [FAILURES]") << "\n";
    return os.str();
}

std::string
renderJson(const SuiteResult &result)
{
    JsonWriter json;
    json.openObject();
    json.field("suite", "dmpb");
    json.field("seed", result.seed);
    json.field("jobs", static_cast<std::uint64_t>(result.jobs));
    json.field("sim_shards",
               static_cast<std::uint64_t>(result.sim_shards));
    json.field("tuner_jobs",
               static_cast<std::uint64_t>(result.tuner_jobs));
    json.field("cluster", result.cluster_name);
    json.field("elapsed_s", result.elapsed_s);
    json.field("all_ok", result.allOk());
    json.field("suite_checksum", hex64(result.checksum()));
    json.openArray("workloads");
    // Each element is exactly the writeOutcomeJson document of one
    // outcome, spliced in verbatim.
    for (const WorkloadOutcome &o : result.outcomes)
        json.rawElement(writeOutcomeJson(o));
    json.closeArray();
    json.closeObject();
    return json.str() + "\n";
}

bool
writeReportFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out) {
        dmpb_warn("cannot open report file ", path);
        return false;
    }
    out << content;
    out.close();
    if (!out) {
        dmpb_warn("short write to report file ", path);
        return false;
    }
    return true;
}

} // namespace dmpb
