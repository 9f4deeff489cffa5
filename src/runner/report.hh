/**
 * @file
 * Report rendering for suite runs: a human-readable fixed-width table
 * (base/table) and a machine-readable JSON document. The JSON writer
 * is deliberately tiny and dependency-free; the shape is covered by
 * tests/test_runner.cc and consumed by the CI smoke step.
 */

#ifndef DMPB_RUNNER_REPORT_HH
#define DMPB_RUNNER_REPORT_HH

#include <string>

#include "runner/suite.hh"

namespace dmpb {

/**
 * Serialize one outcome as a standalone JSON object -- the exact
 * element shape of renderJson's "workloads" array, which splices
 * these in verbatim. RFC 8259 escaping lives (and is tested) in
 * exactly one place (base/json).
 */
std::string writeOutcomeJson(const WorkloadOutcome &outcome);

/** Render the per-workload summary as an aligned ASCII table. */
std::string renderTable(const SuiteResult &result);

/**
 * Serialize one co-located scenario outcome as a standalone JSON
 * document (written by the CLI's --colocate mode):
 *
 * { "mode": "colocate", "status", "error", "policy", "scale",
 *   "seed", "from_cache", "stp", "antt", "unfairness",
 *   "checksum": "0x...", "elapsed_s",
 *   "tenants": [
 *     { "name", "short_name", "slowdown",
 *       "isolated":  {"runtime_s", "metrics": {...}},
 *       "colocated": {"runtime_s", "metrics": {...}} }, ... ] }
 *
 * Only bit-restorable fields are emitted (elapsed_s aside), so a
 * cache-warm rerun produces the same bytes modulo elapsed_s.
 */
std::string writeColocationJson(const ColocationOutcome &outcome);

/** Render a co-located scenario as an aligned ASCII table: one row
 *  per tenant plus an aggregate summary line (policy, STP, ANTT,
 *  unfairness, checksum). */
std::string renderColocationTable(const ColocationOutcome &outcome);

/**
 * Render the full result as a JSON document:
 *
 * {
 *   "suite": "dmpb", "seed": N, "jobs": N, "sim_shards": N,
 *   "tuner_jobs": N, "cluster": "...",
 *   "elapsed_s": x, "all_ok": bool, "suite_checksum": "0x...",
 *   "workloads": [
 *     { "name", "short_name", "status", "error", "from_cache",
 *       "real": {"runtime_s", "metrics": {...}},
 *       "proxy": {"runtime_s", "checksum": "0x...", "metrics": {...}},
 *       "tuning": {"qualified", "iterations", "evaluations",
 *                  "avg_accuracy", "max_deviation"},
 *       "accuracy": {"<metric>": x, ...},
 *       "speedup": x, "elapsed_s": x }, ... ]
 * }
 *
 * Checksums are hex strings so 64-bit values survive JSON parsers
 * that read numbers as doubles.
 */
std::string renderJson(const SuiteResult &result);

/** Write @p content to @p path; false (with a warning) on failure. */
bool writeReportFile(const std::string &path,
                     const std::string &content);

} // namespace dmpb

#endif // DMPB_RUNNER_REPORT_HH
