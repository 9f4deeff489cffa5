/**
 * @file
 * Shared mechanics of the on-disk caches (core/proxy_cache,
 * core/reference_cache): the hashed-filename scheme, the strict
 * locale-independent value parser and the bad-file disposal. Kept in
 * one place so a hardening fix to one cache can never silently miss
 * the other.
 */

#ifndef DMPB_CORE_CACHE_FILE_HH
#define DMPB_CORE_CACHE_FILE_HH

#include <string>
#include <string_view>

namespace dmpb {

/**
 * Cache-file path for @p key under @p dir:
 * `<sanitized-key>-<fnv64(raw key)>.<ext>`. Sanitizing maps distinct
 * keys (e.g. "k-means" / "k_means") to the same readable stem; the
 * appended hash of the *raw* key keeps their files apart. @p ext is
 * passed without the dot ("params", "ref").
 */
std::string cacheFilePath(const std::string &dir,
                          const std::string &key,
                          const std::string &ext);

/** Strict, locale-independent double parse of the whole string
 *  (std::from_chars; rejects partial parses and non-finite values,
 *  which no cache writer produces). */
bool parseCacheValue(std::string_view text, double &out);

/** A cache file that failed validation is worthless: drop it so the
 *  next run recomputes instead of tripping over it again. */
void dropBadCacheFile(const std::string &path);

/**
 * Atomically publish @p content at @p path: write to a unique
 * temporary in the same directory, then rename over the target.
 * rename(2) is atomic within a filesystem, so a concurrent reader --
 * another thread, or another process sharing the cache directory --
 * sees either the old complete file or the new complete one, never a
 * torn write. Concurrent writers of the same key race benignly: both
 * values are complete (and, for these caches, deterministic
 * functions of the key), whichever rename lands last wins. Creates
 * the directory if needed; false (cleaning up the temporary) on any
 * failure.
 */
bool writeCacheFileAtomic(const std::string &path,
                          const std::string &content);

} // namespace dmpb

#endif // DMPB_CORE_CACHE_FILE_HH
