#include "serve/loadgen.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/thread_annotations.hh"
#include "base/stats_util.hh"

namespace dmpb {

namespace {

/** One blocking NDJSON client connection. */
class ClientConnection
{
  public:
    ~ClientConnection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    /**
     * Connect, retrying while the daemon is still binding: a missing
     * socket file (ENOENT) or a bound-but-not-listening socket
     * (ECONNREFUSED) is retried with a fresh socket every 20 ms for up
     * to 2 s; any other error fails at once.
     */
    bool
    connect(const std::string &socket_path)
    {
        sockaddr_un addr{};
        if (socket_path.empty() ||
            socket_path.size() >= sizeof(addr.sun_path))
            return false;
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, socket_path.c_str(),
                    socket_path.size() + 1);
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(2);
        for (;;) {
            fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd_ < 0)
                return false;
            if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0)
                return true;
            const int err = errno;
            ::close(fd_);
            fd_ = -1;
            if ((err != ENOENT && err != ECONNREFUSED) ||
                std::chrono::steady_clock::now() >= deadline)
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }

    bool
    sendLine(const std::string &line)
    {
        std::string framed = line + "\n";
        std::size_t sent = 0;
        while (sent < framed.size()) {
            ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                return false;
            }
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Block until one full response line arrives. */
    bool
    recvLine(std::string &line)
    {
        for (;;) {
            std::size_t eol = inbuf_.find('\n');
            if (eol != std::string::npos) {
                line = inbuf_.substr(0, eol);
                inbuf_.erase(0, eol + 1);
                return true;
            }
            char buf[4096];
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            inbuf_.append(buf, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string inbuf_;
};

struct SharedState
{
    const LoadGenOptions *options = nullptr;
    std::vector<std::string> workloads;
    std::atomic<std::size_t> next{0};

    AnnotatedMutex mutex;
    std::vector<double> latencies_ms DMPB_GUARDED_BY(mutex);
    std::size_t served DMPB_GUARDED_BY(mutex) = 0;
    std::size_t cold DMPB_GUARDED_BY(mutex) = 0;
    std::size_t rejections DMPB_GUARDED_BY(mutex) = 0;
    std::size_t errors DMPB_GUARDED_BY(mutex) = 0;
};

std::string
buildRunLine(const SharedState &state, std::size_t index,
             bool cold, std::uint64_t id)
{
    const LoadGenOptions &opt = *state.options;
    JsonWriter json;
    json.openObject();
    json.field("cmd", "run");
    json.field("id", id);
    json.field("workload",
               state.workloads[index % state.workloads.size()]);
    json.field("scale", scaleName(opt.scale));
    json.field("seed", opt.seed);
    if (opt.timeout_s > 0.0)
        json.field("timeout_s", opt.timeout_s);
    if (cold)
        json.field("cache", "bypass");
    json.closeObject();
    return json.str();
}

/** Drive one closed-loop connection until the stream is exhausted. */
void
clientLoop(SharedState &state)
{
    const LoadGenOptions &opt = *state.options;
    ClientConnection conn;
    if (!conn.connect(opt.socket_path)) {
        MutexLock lock(state.mutex);
        ++state.errors;
        return;
    }

    for (;;) {
        std::size_t index =
            state.next.fetch_add(1, std::memory_order_relaxed);
        if (index >= opt.requests)
            return;
        // Deterministic warm/cold interleaving, strided so cold
        // requests spread across the whole replay instead of
        // front-loading each 100-request window (e.g. 10% = every
        // 10th slot), regardless of which connection draws them.
        bool cold = (index * opt.cold_percent) % 100 < opt.cold_percent;
        std::uint64_t id = static_cast<std::uint64_t>(index) + 1;
        std::string line = buildRunLine(state, index, cold, id);

        // Retry back-pressure rejections: the daemon told us it is
        // full, so back off and resubmit until the request lands.
        for (unsigned attempt = 0;; ++attempt) {
            auto t0 = std::chrono::steady_clock::now();
            std::string response;
            if (!conn.sendLine(line) || !conn.recvLine(response)) {
                MutexLock lock(state.mutex);
                ++state.errors;
                return;
            }
            double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

            JsonValue doc;
            std::string parse_error;
            if (!JsonValue::parse(response, doc, &parse_error) ||
                !doc.isObject()) {
                MutexLock lock(state.mutex);
                ++state.errors;
                break;
            }
            const JsonValue *ok = doc.find("ok");
            if (ok != nullptr && ok->asBool()) {
                MutexLock lock(state.mutex);
                state.latencies_ms.push_back(ms);
                ++state.served;
                if (cold)
                    ++state.cold;
                break;
            }
            if (doc.find("rejected") != nullptr) {
                {
                    MutexLock lock(state.mutex);
                    ++state.rejections;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    1 + std::min<unsigned>(attempt, 50)));
                continue;
            }
            MutexLock lock(state.mutex);
            ++state.errors;
            break;
        }
    }
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

} // namespace

LoadGenReport
runLoadGen(const LoadGenOptions &options)
{
    LoadGenReport report;
    SharedState state;
    state.options = &options;
    state.workloads = options.workloads;
    if (state.workloads.empty())
        state.workloads = WorkloadRegistry::instance().names();
    if (state.workloads.empty() || options.requests == 0)
        return report;

    std::size_t connections =
        std::max<std::size_t>(1,
            std::min(options.connections, options.requests));

    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(connections);
    for (std::size_t i = 0; i < connections; ++i)
        clients.emplace_back([&state] { clientLoop(state); });
    for (std::thread &t : clients)
        t.join();
    report.elapsed_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

    // Clients are joined; the lock is uncontended and keeps the
    // guarded reads visible to the thread-safety analysis.
    MutexLock lock(state.mutex);
    report.requests = state.served;
    report.cold = state.cold;
    report.rejections = state.rejections;
    report.errors = state.errors;
    report.ok = state.served == options.requests;
    if (report.elapsed_s > 0.0)
        report.throughput_rps = state.served / report.elapsed_s;
    if (!state.latencies_ms.empty()) {
        std::vector<double> sorted = state.latencies_ms;
        std::sort(sorted.begin(), sorted.end());
        report.min_ms = sorted.front();
        report.max_ms = sorted.back();
        report.mean_ms = mean(sorted);
        report.p50_ms = sortedPercentile(sorted, 50.0);
        report.p95_ms = sortedPercentile(sorted, 95.0);
        report.p99_ms = sortedPercentile(sorted, 99.0);
    }
    return report;
}

std::string
renderLoadGenTable(const LoadGenReport &r)
{
    std::ostringstream os;
    os << "loadgen: " << r.requests << " request(s) served ("
       << r.cold << " cold), " << r.rejections << " rejection(s), "
       << r.errors << " error(s), "
       << fmt("%.2f", r.elapsed_s) << " s wall\n"
       << "  throughput: " << fmt("%.1f", r.throughput_rps)
       << " req/s\n"
       << "  latency ms: min " << fmt("%.2f", r.min_ms) << "  mean "
       << fmt("%.2f", r.mean_ms) << "  p50 " << fmt("%.2f", r.p50_ms)
       << "  p95 " << fmt("%.2f", r.p95_ms) << "  p99 "
       << fmt("%.2f", r.p99_ms) << "  max " << fmt("%.2f", r.max_ms)
       << "\n"
       << (r.ok ? "  result: OK\n" : "  result: INCOMPLETE\n");
    return os.str();
}

std::string
renderLoadGenJson(const LoadGenReport &r)
{
    JsonWriter json;
    json.openObject();
    json.field("requests", static_cast<std::uint64_t>(r.requests));
    json.field("cold", static_cast<std::uint64_t>(r.cold));
    json.field("rejections",
               static_cast<std::uint64_t>(r.rejections));
    json.field("errors", static_cast<std::uint64_t>(r.errors));
    json.field("elapsed_s", r.elapsed_s);
    json.field("throughput_rps", r.throughput_rps);
    json.field("min_ms", r.min_ms);
    json.field("mean_ms", r.mean_ms);
    json.field("p50_ms", r.p50_ms);
    json.field("p95_ms", r.p95_ms);
    json.field("p99_ms", r.p99_ms);
    json.field("max_ms", r.max_ms);
    json.field("ok", r.ok);
    json.closeObject();
    return json.str() + "\n";
}

} // namespace dmpb
