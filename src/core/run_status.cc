#include "core/run_status.hh"

namespace dmpb {

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Failed: return "failed";
      case RunStatus::TimedOut: return "timeout";
    }
    return "unknown";
}

} // namespace dmpb
