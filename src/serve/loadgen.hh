/**
 * @file
 * The `dmpb --loadgen` harness: a closed-loop client for the serve
 * daemon.
 *
 * Opens a set of persistent connections to a `dmpb --serve` socket
 * (retrying for up to 2 s while the daemon is still binding it) and
 * replays a mixed warm/cold request stream against it:
 * warm requests use the cache ("cache":"use", so after the first
 * tune of a scenario cell the daemon answers from its in-memory or
 * on-disk layers), cold requests force a full pipeline
 * ("cache":"bypass"). Each connection runs one request at a time
 * (closed loop); back-pressure rejections are counted and retried
 * with a small backoff so the configured request count is actually
 * served. The report carries throughput and the p50/p95/p99 latency
 * spectrum (base/stats_util percentile, linear interpolation).
 */

#ifndef DMPB_SERVE_LOADGEN_HH
#define DMPB_SERVE_LOADGEN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads/registry.hh"

namespace dmpb {

/** Load-generator knobs. */
struct LoadGenOptions
{
    /** Socket of the daemon under load. */
    std::string socket_path;
    /** Total run requests to serve (across all connections). */
    std::size_t requests = 1000;
    /** Concurrent closed-loop connections. */
    std::size_t connections = 4;
    /** Workload names cycled across requests; empty = every
     *  registered workload. */
    std::vector<std::string> workloads;
    /** Scale of every request (tiny keeps a 1000-request replay in
     *  CI territory). */
    Scale scale = Scale::Tiny;
    /** Master seed sent with every request (a fixed seed is what
     *  makes the warm fraction actually warm). */
    std::uint64_t seed = 99;
    /** Percentage (0..100) of requests sent with "cache":"bypass". */
    unsigned cold_percent = 10;
    /** Optional per-request pipeline timeout_s; 0 = unlimited. */
    double timeout_s = 0.0;
};

/** What the replay measured. */
struct LoadGenReport
{
    std::size_t requests = 0;    ///< run responses received (ok)
    std::size_t cold = 0;        ///< of which cache-bypass
    std::size_t rejections = 0;  ///< back-pressure responses (retried)
    std::size_t errors = 0;      ///< error responses / transport drops
    double elapsed_s = 0.0;
    double throughput_rps = 0.0;
    double min_ms = 0.0;
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
    bool ok = false;             ///< every requested run was served
};

/**
 * Run the replay. Fails (report.ok == false) when the socket cannot
 * be reached or any request never produced an ok response.
 */
LoadGenReport runLoadGen(const LoadGenOptions &options);

/** Human-readable summary. */
std::string renderLoadGenTable(const LoadGenReport &report);

/** Machine-readable summary (one JSON object + newline). */
std::string renderLoadGenJson(const LoadGenReport &report);

} // namespace dmpb

#endif // DMPB_SERVE_LOADGEN_HH
