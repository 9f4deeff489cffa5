/**
 * @file
 * Request-outcome vocabulary shared by every execution layer.
 *
 * RunStatus and CachePolicy are not pipeline-specific: the pipeline
 * API (runner/pipeline_service.hh), the co-location orchestration
 * (core/colocation.hh) and the reports all speak them. They live
 * here, below all of those layers, so core code never has to reach
 * up into runner/.
 */

#ifndef DMPB_CORE_RUN_STATUS_HH
#define DMPB_CORE_RUN_STATUS_HH

#include <cstdint>

namespace dmpb {

/** How one request (pipeline or co-location) ended. */
enum class RunStatus : std::uint8_t
{
    Ok = 0,      ///< completed (for pipelines: qualified or not)
    Failed,      ///< an exception escaped the execution
    TimedOut,    ///< the per-request deadline expired
};

/** Printable status ("ok", "failed", "timeout"). */
const char *runStatusName(RunStatus s);

/** Per-request cache policy. */
enum class CachePolicy : std::uint8_t
{
    Use = 0,   ///< read and write every enabled cache level
    Bypass,    ///< compute fresh; read and write no cache level
};

} // namespace dmpb

#endif // DMPB_CORE_RUN_STATUS_HH
