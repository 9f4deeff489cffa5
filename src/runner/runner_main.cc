/**
 * @file
 * The `dmpb` command-line entry point. Two modes share one flag
 * parser and one pipeline configuration:
 *
 *   (default)   one-shot suite: run every selected workload's proxy
 *               pipeline in parallel, emit a table + JSON report.
 *   --colocate  co-located multi-tenant scenario: K proxy workloads
 *               sharing one simulated LLC under an --llc-policy
 *               way-partitioning policy (core/colocation).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "core/proxy_cache.hh"
#include "runner/cli_parse.hh"
#include "runner/report.hh"
#include "runner/suite.hh"
#include "sim/partition_policy.hh"

namespace {

const char *kUsage = R"(dmpb -- data-motif proxy benchmark suite runner

Runs the full proxy pipeline (real-workload measurement, motif
decomposition, decision-tree auto-tuning, qualified-proxy execution)
for every workload of the registry, in parallel.

Usage: dmpb [options]

  --workloads a,b,c   Comma-separated subset by short name
                      (terasort,kmeans,pagerank,alexnet,inception-v3,
                      grep,wordcount,naivebayes); default: all
  --scale NAME        Input scale of the scenario matrix: paper
                      (Section III-B inputs, default), quick (~1000x
                      smaller; light tuner budget) or tiny (another
                      ~8x below quick). Every (workload, scale) cell
                      keeps its own cache identity
  --jobs N            Parallel workload pipelines (default: one per
                      selected workload)
  --seed N            Master seed for data generation and tuning
                      (default 99); same seed => same checksums
  --timeout S         Per-workload wall-clock budget in seconds
                      (default: unlimited; checked before each
                      tuner edge simulation, at stage boundaries, and
                      between the shard jobs of the real-workload
                      measurement, which is interrupted mid-stage)
  --sim-shards N      Worker threads the trace-simulation engine
                      shards independent simulated cores across
                      (default 1 = sequential; metrics and checksums
                      are bit-identical for every value)
  --sim-batch N       Events buffered per trace context before a
                      batched model replay (default: host-adapted --
                      32768 on multi-CPU hosts, 1 = the unbatched
                      scalar path on single-CPU hosts; results are
                      identical either way)
  --sim-replay MODE   Replay kernel for batched model replays:
                      'vector' (default; SIMD-friendly decode pass
                      plus exact same-line run coalescing) or
                      'scalar' (the reference event-at-a-time loop).
                      Another pure wall-clock knob: every statistic
                      is bit-identical in both modes
  --tuner-jobs N      Worker threads per pipeline for the auto-tuner's
                      proxy evaluations: each batch (baseline, impact
                      samples, speculative feedback candidates)
                      simulates its distinct proxy edges on this many
                      workers (default: one per hardware thread,
                      capped at 8). The tuned parameters, evaluation
                      counts and the whole report are bit-identical
                      for every value
  --tuner-spec K      Speculative-descent width: top-K tree-ranked
                      candidate moves executed per feedback iteration
                      (default 4; independent of --tuner-jobs so the
                      tuning trajectory never depends on parallelism)
  --output PATH       JSON report path (default dmpb-report.json;
                      "-" prints JSON to stdout instead of the table)
  --cache-dir DIR     Tuned-parameter cache (default dmpb-cache)
  --ref-cache-dir DIR Reference-measurement cache: the real-workload
                      runtime + metric vector, keyed by workload,
                      cluster, input scale and seed -- served
                      bit-identically on later runs (default: the
                      tuned-parameter cache directory)
  --no-cache          Disable on-disk caching. Cache flags are
                      order-independent: an explicit --cache-dir /
                      --ref-cache-dir always wins for its own cache,
                      --no-cache disables every cache not explicitly
                      pointed at a directory, and otherwise the
                      reference cache rides along with the
                      tuned-parameter cache
  --cluster NAME      paper5 (default), paper3, haswell3, or accel3
                      (paper3 hosts plus a 16x16 weight-stationary
                      systolic array per node; conv2d/matMul run on
                      the array, see README "Accelerator backend")
  --threshold X       Tuner deviation gate (default 0.15)
  --quick             Alias for --scale quick; used by the CI smoke
                      step
  --list              Print registered workload names (one per line,
                      registry order), the scenario-matrix scales and
                      the LLC partition policies, then exit
  --help              This text

Co-location mode (shared-LLC multi-tenant simulation):

  --colocate a,b[,..] Run the named proxy workloads (>= 2, short
                      names as in --workloads; duplicates allowed)
                      co-scheduled on one simulated node: every
                      tenant's trace replays round-robin through ONE
                      shared L3 under the selected partition policy.
                      Reports per-tenant isolated vs co-located
                      runtime/metrics plus STP, ANTT and unfairness.
                      --scale (default quick here), --seed, cache and
                      --sim-* flags apply; results are bit-identical
                      for every --sim-shards/--jobs value
  --llc-policy NAME   Way-partitioning policy for the shared L3:
                      none (default; all tenants compete for all
                      ways), static-equal (disjoint equal way split),
                      or critical-phase-aware (periodically shifts
                      ways toward tenants whose miss rate is high or
                      rising). Only valid with --colocate

Exit status: 0 when every selected workload completed, 1 on a failed
or timed-out workload, 2 on a usage error.
)";

[[noreturn]] void usageError(const std::string &msg);

/** Strict u64 flag value (runner/cli_parse); usage error on garbage. */
std::uint64_t
u64Flag(const char *flag, const char *value)
{
    try {
        return dmpb::cli::parseU64Flag(flag, value);
    } catch (const std::invalid_argument &e) {
        usageError(e.what());
    }
}

std::uint64_t
positiveU64Flag(const char *flag, const char *value)
{
    std::uint64_t n = u64Flag(flag, value);
    if (n == 0)
        usageError(std::string(flag) + " needs a positive integer");
    return n;
}

/** Strict finite-double flag value; usage error on garbage/inf/nan. */
double
doubleFlag(const char *flag, const char *value)
{
    try {
        return dmpb::cli::parseDoubleFlag(flag, value);
    } catch (const std::invalid_argument &e) {
        usageError(e.what());
    }
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "dmpb: " << msg << "\n\n" << kUsage;
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dmpb;

    SuiteOptions options;
    options.cluster = paperCluster5();
    std::string output = "dmpb-report.json";
    Scale scale = Scale::Paper;
    bool scale_given = false;
    bool list_only = false;

    // Cache-flag observations; resolved order-independently after the
    // parse loop (core/cache_config).
    bool no_cache = false;
    std::string cache_dir;
    std::string ref_cache_dir;

    ColocationSpec colo;
    bool colocate_mode = false;
    bool llc_policy_given = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                usageError(std::string(flag) + " requires a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            std::cout << kUsage;
            return 0;
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--quick") {
            scale = Scale::Quick;
            scale_given = true;
        } else if (arg == "--scale") {
            try {
                scale = parseScale(value("--scale"));
                scale_given = true;
            } catch (const std::invalid_argument &e) {
                usageError(e.what());
            }
        } else if (arg == "--no-cache") {
            no_cache = true;
        } else if (arg == "--workloads") {
            options.workloads = splitCsv(value("--workloads"));
        } else if (arg == "--jobs") {
            options.jobs = static_cast<std::size_t>(
                positiveU64Flag("--jobs", value("--jobs")));
        } else if (arg == "--seed") {
            options.seed = u64Flag("--seed", value("--seed"));
        } else if (arg == "--timeout") {
            options.timeout_s =
                doubleFlag("--timeout", value("--timeout"));
            if (options.timeout_s < 0)
                usageError("--timeout needs a non-negative number");
        } else if (arg == "--sim-shards") {
            options.sim.shards = static_cast<std::size_t>(
                positiveU64Flag("--sim-shards", value("--sim-shards")));
        } else if (arg == "--sim-batch") {
            options.sim.batch_capacity = static_cast<std::size_t>(
                positiveU64Flag("--sim-batch", value("--sim-batch")));
        } else if (arg == "--sim-replay") {
            try {
                options.sim.replay = cli::parseReplayModeFlag(
                    "--sim-replay", value("--sim-replay"));
            } catch (const std::invalid_argument &e) {
                usageError(e.what());
            }
        } else if (arg == "--tuner-jobs") {
            options.tuner.jobs = static_cast<std::size_t>(
                positiveU64Flag("--tuner-jobs", value("--tuner-jobs")));
        } else if (arg == "--tuner-spec") {
            options.tuner.speculation = static_cast<std::uint32_t>(
                positiveU64Flag("--tuner-spec", value("--tuner-spec")));
        } else if (arg == "--output") {
            output = value("--output");
        } else if (arg == "--cache-dir") {
            cache_dir = value("--cache-dir");
        } else if (arg == "--ref-cache-dir") {
            ref_cache_dir = value("--ref-cache-dir");
        } else if (arg == "--threshold") {
            options.tuner.threshold =
                doubleFlag("--threshold", value("--threshold"));
            if (options.tuner.threshold <= 0)
                usageError("--threshold needs a positive number");
        } else if (arg == "--cluster") {
            try {
                options.cluster = clusterByName(value("--cluster"));
            } catch (const std::invalid_argument &e) {
                usageError(e.what());
            }
        } else if (arg == "--colocate") {
            colo.workloads = splitCsv(value("--colocate"));
            colocate_mode = true;
        } else if (arg == "--llc-policy") {
            colo.policy = value("--llc-policy");
            llc_policy_given = true;
        } else {
            usageError("unknown option '" + arg + "'");
        }
    }

    if (llc_policy_given && !colocate_mode)
        usageError("--llc-policy is only valid with --colocate");

    options.cache = resolveCacheConfig(no_cache, cache_dir,
                                       ref_cache_dir,
                                       defaultCacheDir());

    if (list_only) {
        for (const auto &e : WorkloadRegistry::instance().entries())
            std::cout << e.name << "\n";
        std::cout << "scales: " << scaleName(Scale::Tiny) << " "
                  << scaleName(Scale::Quick) << " "
                  << scaleName(Scale::Paper) << "\n";
        std::cout << "llc policies:";
        for (const std::string &p : partitionPolicyNames())
            std::cout << " " << p;
        std::cout << "\n";
        return 0;
    }

    if (colocate_mode) {
        // Validate the selection up front so typos exit with usage
        // help; execution errors still come back as a Failed outcome.
        if (colo.workloads.size() < 2)
            usageError("--colocate needs at least two workloads");
        try {
            makePartitionPolicy(colo.policy);
        } catch (const std::invalid_argument &e) {
            usageError(e.what());
        }
        // Co-location traces every tenant's full proxy DAG and replays
        // it through private caches once; default to the quick cell
        // unless the user asked for a specific scale.
        colo.scale = scale_given ? scale : Scale::Quick;
        colo.seed = options.seed;

        ServiceConfig service_config;
        service_config.cluster = options.cluster;
        service_config.tuner = options.tuner;
        service_config.sim = options.sim;
        service_config.cache = options.cache;
        PipelineService service(std::move(service_config));

        ColocationRequest request;
        request.spec = colo;
        ColocationOutcome outcome = service.executeColocation(request);
        if (output == "-") {
            std::cout << writeColocationJson(outcome) << "\n";
        } else {
            std::cout << renderColocationTable(outcome);
            if (writeReportFile(output,
                                writeColocationJson(outcome) + "\n"))
                std::cout << "JSON report: " << output << "\n";
        }
        return outcome.status == RunStatus::Ok ? 0 : 1;
    }

    // Non-paper scales run with the registry's light tuner budget
    // (the same preset the benches use, so quick mode cannot drift
    // between bench and runner).
    options.tuner = scaleTunerConfig(scale, options.tuner);

    SuiteRunner runner(options);
    runner.addScaleWorkloads(scale);

    try {
        SuiteResult result = runner.run();
        if (output == "-") {
            std::cout << renderJson(result);
        } else {
            std::cout << renderTable(result);
            if (writeReportFile(output, renderJson(result)))
                std::cout << "JSON report: " << output << "\n";
        }
        return result.allOk() ? 0 : 1;
    } catch (const std::invalid_argument &e) {
        usageError(e.what());
    } catch (const std::exception &e) {
        std::cerr << "dmpb: " << e.what() << "\n";
        return 1;
    }
}
