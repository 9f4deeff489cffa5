/**
 * @file
 * Ablation of the trace-replay data path: run every workload's
 * measurement under the three replay configurations --
 *
 *   scalar     --sim-batch 1              (the unbatched PR-5 path)
 *   batched    default batch, --sim-replay scalar
 *   vectorized default batch, --sim-replay vector (run coalescing)
 *
 * -- assert zero metric drift between all of them, and report the
 * wall clocks. A fourth section runs one co-located scenario twice
 * (vector vs scalar replay inside the capture), asserts bit-identical
 * outcome checksums, and asserts that what co-location keeps in
 * memory per tenant, its LLC stream at 8 bytes per access, is >= 4x
 * smaller than the captured events as raw 8-byte-per-event blocks.
 *
 * The DMPB_BENCH_JSON rows carry real_s = scalar-unbatched wall,
 * proxy_s = vectorized wall, speedup = their ratio, per workload,
 * plus one "colo-footprint" row whose speedup is the aggregate
 * raw-to-LLC-stream ratio -- CI uploads the file per commit, tracking
 * the replay engine's wall-clock and footprint trajectory.
 *
 * Shards are pinned to 1 in every row so the comparison isolates the
 * replay kernel itself (bench_ablation_measure covers sharding).
 */

#include <chrono>
#include <cstdio>

#include "bench/bench_util.hh"
#include "core/colocation.hh"

using namespace dmpb;
using namespace dmpb::bench;

namespace {

double
wallSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

bool
sameResult(const WorkloadResult &a, const WorkloadResult &b)
{
    bool same = a.runtime_s == b.runtime_s;
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
        Metric m = static_cast<Metric>(i);
        same = same && a.metrics[m] == b.metrics[m];
    }
    return same;
}

ClusterConfig
replayCluster(std::size_t batch, ReplayMode mode)
{
    ClusterConfig c = paperCluster5();
    c.sim.shards = 1;
    c.sim.batch_capacity = batch;
    c.sim.replay = mode;
    return c;
}

} // namespace

int
main()
{
    BenchReport bench("ablation_replay");
    TextTable t;
    t.header({"Workload", "Scalar (s)", "Batched (s)", "Vector (s)",
              "Speedup", "Drift"});

    const std::size_t batch = kDefaultSimBatchCapacity;
    bool drift_any = false;
    for (const auto &w : paperWorkloads()) {
        auto s0 = std::chrono::steady_clock::now();
        WorkloadResult scalar =
            w->run(replayCluster(1, ReplayMode::Scalar));
        double scalar_wall = wallSince(s0);

        auto s1 = std::chrono::steady_clock::now();
        WorkloadResult batched =
            w->run(replayCluster(batch, ReplayMode::Scalar));
        double batched_wall = wallSince(s1);

        auto s2 = std::chrono::steady_clock::now();
        WorkloadResult vectorized =
            w->run(replayCluster(batch, ReplayMode::Vectorized));
        double vector_wall = wallSince(s2);

        // Zero-drift: the replay kernel is a pure wall-clock knob, so
        // the simulated runtime and every metric double must match
        // bit for bit across all three configurations.
        bool drift = !sameResult(scalar, batched) ||
                     !sameResult(scalar, vectorized);
        drift_any = drift_any || drift;

        double sp = vector_wall > 0 ? scalar_wall / vector_wall : 0.0;
        t.row({shortName(w->name()), formatDouble(scalar_wall, 3),
               formatDouble(batched_wall, 3),
               formatDouble(vector_wall, 3),
               formatDouble(sp, 2) + "x", drift ? "DRIFT" : "none"});
        bench.addRow("replay-" + shortName(w->name()), scalar_wall,
                     vector_wall, sp);
    }

    std::printf("== Ablation: scalar vs batched vs vectorized "
                "replay (quick=%d)\n", quickMode() ? 1 : 0);
    t.print();

    // ---- Co-location: one scenario under both kernels, each
    // replaying the captured blocks through the private caches as
    // they fill.
    ColocationSpec spec;
    spec.workloads = {"grep", "kmeans"};
    spec.policy = "static-equal";
    spec.scale = benchScale();

    ClusterConfig vec_cluster = replayCluster(batch,
                                              ReplayMode::Vectorized);
    auto c0 = std::chrono::steady_clock::now();
    ColocationOutcome vec = runColocation(spec, vec_cluster,
                                          CacheConfig{},
                                          CachePolicy::Bypass);
    double vec_wall = wallSince(c0);

    ClusterConfig sc_cluster = replayCluster(batch, ReplayMode::Scalar);
    auto c1 = std::chrono::steady_clock::now();
    ColocationOutcome sc = runColocation(spec, sc_cluster,
                                         CacheConfig{},
                                         CachePolicy::Bypass);
    double sc_wall = wallSince(c1);

    bool colo_ok = vec.status == RunStatus::Ok &&
                   sc.status == RunStatus::Ok &&
                   vec.checksum == sc.checksum;
    drift_any = drift_any || !colo_ok;

    std::uint64_t raw_bytes = 0;
    std::uint64_t llc_bytes = 0;
    for (const TenantOutcome &tn : vec.tenants) {
        raw_bytes += 8 * tn.captured_events;
        llc_bytes += 8 * tn.llc_accesses;
    }
    double ratio = llc_bytes > 0
                       ? static_cast<double>(raw_bytes) /
                             static_cast<double>(llc_bytes)
                       : 0.0;
    std::printf("\nco-located capture: %llu events, %llu LLC stream "
                "bytes (%.1fx below raw), checksum %s, "
                "scalar %.3fs / vector %.3fs\n",
                static_cast<unsigned long long>(raw_bytes / 8),
                static_cast<unsigned long long>(llc_bytes), ratio,
                colo_ok ? "match" : "MISMATCH", sc_wall, vec_wall);
    bench.addRow("colo-footprint", static_cast<double>(raw_bytes),
                 static_cast<double>(llc_bytes), ratio);

    if (drift_any) {
        std::fprintf(stderr,
                     "[ablation_replay] FAIL: replay configurations "
                     "diverged (the kernel must be metric-neutral)\n");
        return 1;
    }
    if (ratio < 4.0) {
        std::fprintf(stderr,
                     "[ablation_replay] FAIL: co-location "
                     "footprint %.2fx below raw < 4x floor\n", ratio);
        return 1;
    }
    std::printf("\nscalar == batched == vectorized: OK "
                "(co-location footprint %.1fx below raw)\n", ratio);
    return 0;
}
