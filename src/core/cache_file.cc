#include "core/cache_file.hh"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "base/names.hh"

namespace dmpb {

std::string
cacheFilePath(const std::string &dir, const std::string &key,
              const std::string &ext)
{
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return dir + "/" + sanitizeFileStem(key) + "-" + hash + "." + ext;
}

bool
parseCacheValue(std::string_view text, double &out)
{
    const char *first = text.data();
    const char *last = first + text.size();
    auto [ptr, ec] = std::from_chars(first, last, out);
    return ec == std::errc() && ptr == last && std::isfinite(out);
}

void
dropBadCacheFile(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove(path, ec);
}

bool
writeCacheFileAtomic(const std::string &path,
                     const std::string &content)
{
    std::filesystem::path target(path);
    std::error_code ec;
    if (target.has_parent_path())
        std::filesystem::create_directories(target.parent_path(), ec);

    // The temporary must be unique per writer: two threads (or
    // processes) publishing the same key concurrently must never
    // interleave into one temp file. Thread id + a process-wide
    // counter makes the name collision-free within a directory.
    static std::atomic<std::uint64_t> counter{0};
    std::ostringstream suffix;
    suffix << ".tmp-" << std::this_thread::get_id() << "-"
           << counter.fetch_add(1, std::memory_order_relaxed);
    std::filesystem::path tmp = target;
    tmp += suffix.str();

    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << content;
        out.close();
        if (!out) {
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    std::filesystem::rename(tmp, target, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace dmpb
