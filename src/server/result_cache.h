/**
 * @file
 * Content-addressed persistent result cache of the analysis
 * server (`server/analysis_server.h`).
 *
 * The serve-vs-rebuild economics the server exists for only pay
 * off when repeated questions stop costing evaluations: a cache
 * entry is the serialized `AnalysisResult` JSON of one request,
 * addressed by the SHA-256 of the request's canonical text
 * (`io/request_io.h`, `canonicalRequestText`) plus the serving
 * catalog's fingerprint, so a repeated query is O(lookup) and the
 * served response is byte-identical whether it came from the
 * cache or from a fresh evaluation.
 *
 * Two tiers hold the entries:
 *  - memory: the text of the most recently used entries, up to
 *    `ResultCache::kMemoryTierBytes`; a hit there reads no file
 *    and scans nothing;
 *  - disk, the restart and overflow tier (see
 *    `docs/serving.md`):
 *
 *        <dir>/objects/<aa>/<64-hex-key>.json   one result each
 *        <dir>/index.json                       LRU index, flushed
 *                                               on shutdown
 *
 *    where `<aa>` is the key's first two hex characters (keeps any
 *    one directory small).
 *
 * Every object is written through `replaceFile` (a temp name, then
 * a rename), so readers never see a half-written entry. An object
 * is its compact result text and one newline. A disk hit serves
 * the bytes before that newline once `ondemand::validate` accepts
 * them; invalid JSON or a raw newline before the last byte
 * (truncation, a hand edit, an appended byte) is corrupt: a miss,
 * evicted and recomputed -- never a crash.
 *
 * One thread owns the index and the memory tier (the server's
 * event loop), so the class takes no locks. `writeObject` alone
 * touches neither and may run on any thread: the server's engine
 * workers write objects, and the loop admits them.
 */

#ifndef ECOCHIP_SERVER_RESULT_CACHE_H
#define ECOCHIP_SERVER_RESULT_CACHE_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "session/analysis_request.h"

namespace ecochip {

/** Sizing and placement of a `ResultCache`. */
struct ResultCacheOptions
{
    /** Cache directory (created if needed). */
    std::string directory;

    /** Entries kept before LRU eviction; 0 = unbounded. */
    std::size_t maxEntries = 0;
};

/** Hit/miss/eviction counters of one server run. */
struct ResultCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    /** Stores and `flushIndex` calls that failed. */
    std::uint64_t storeFailures = 0;

    /** Entries currently indexed. */
    std::uint64_t entries = 0;
};

/**
 * The cache key of @p request under @p catalog_fingerprint: 64
 * lowercase hex characters, stable across processes and runs.
 *
 * The fingerprint covers everything outside the request that can
 * change its answer -- the serving registry's catalog (see
 * `AnalysisServer::catalogFingerprint`). Design-directory
 * bindings additionally fold the bytes of the directory's JSON
 * configs into the key, so editing a config on disk changes the
 * key instead of serving a stale result.
 */
std::string resultCacheKey(const AnalysisRequest &request,
                           const std::string &catalog_fingerprint);

/**
 * Persistent, LRU-bounded result store: one recency list over both
 * tiers, O(1) per lookup, store and eviction. Not thread-safe,
 * except `writeObject`.
 */
class ResultCache
{
  public:
    /**
     * Bytes of result text the memory tier holds (1 MiB, the size
     * of the longest request line): it keeps the texts of the most
     * recently used entries whose sum fits. A text larger than
     * this never enters the tier.
     */
    static constexpr std::size_t kMemoryTierBytes = std::size_t{1}
                                                    << 20;

    /**
     * Open (or create) the cache at
     * `ResultCacheOptions::directory` and load its index. A
     * missing or corrupt index is rebuilt by scanning the object
     * tree; an index from an earlier `flushIndex` lists only the
     * entries it saw. The memory tier starts empty.
     */
    explicit ResultCache(ResultCacheOptions options);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * The stored result document for @p key as compact JSON, or
     * nullopt. Counts one hit or one miss; a hit makes @p key the
     * most recently used entry. A disk hit's text enters the
     * memory tier. A corrupt object (see the file comment) or a
     * missing one is evicted and counts as a miss, so callers
     * always recompute instead of failing.
     */
    std::optional<std::string>
    lookupText(const std::string &key);

    /**
     * `writeObject`, then `admit`: store @p result_text under
     * @p key as the most recently used entry.
     *
     * @throws ModelError when the object cannot be written;
     *         nothing is stored, and `storeFailures` counts it.
     */
    void storeText(const std::string &key,
                   std::string_view result_text);

    /**
     * Write @p result_text (one compact JSON result document, as
     * the streaming serializers produce) as the object of @p key.
     * Safe on any thread, concurrently with every other call: it
     * reads no index state and counts nothing.
     *
     * @throws ModelError when the object cannot be written or
     *         renamed into place (`replaceFile`).
     */
    void writeObject(const std::string &key,
                     std::string_view result_text) const;

    /**
     * Index @p key, whose object `writeObject` wrote with
     * @p result_text, as the most recently used entry; its text
     * enters the memory tier. Then evict least-recently-used
     * entries down to `maxEntries`. A new key whose object is gone
     * (an eviction removed it after a second `writeObject` of the
     * key) is not indexed.
     */
    void admit(const std::string &key, std::string_view result_text);

    /** Count a store that failed outside `storeText` (a
     *  `writeObject` that threw). */
    void countStoreFailure() { ++stats_.storeFailures; }

    /**
     * Write the LRU index to `<dir>/index.json`, streamed entry by
     * entry; a failure throws ConfigError and counts in
     * `storeFailures`.
     */
    void flushIndex();

    /** Counters since this cache was opened. */
    const ResultCacheStats &stats() const { return stats_; }

  private:
    /** A key as the 32 bytes of its SHA-256 digest. */
    using Digest = std::array<unsigned char, 32>;

    struct DigestHash
    {
        std::size_t operator()(const Digest &digest) const noexcept;
    };

    struct Entry;
    using Node = std::pair<const Digest, Entry>;

    /**
     * One indexed key: its place in the recency list (a circular
     * list through `sentinel_`, most recent first) and, while it
     * is in the memory tier, its text (empty otherwise).
     */
    struct Entry
    {
        Node *prev = nullptr;
        Node *next = nullptr;
        std::string text;
    };

    std::string objectPath(const std::string &key) const;
    void loadIndex();

    /** Make @p node the most recent entry; hold @p text in the
     *  memory tier unless it is there already or too large. */
    void touch(Node &node, std::string_view text);
    void unlink(Node &node);
    void linkFront(Node &node);
    /** Drop @p entry's text from the memory tier. */
    void release(Entry &entry);
    /** Remove @p node from the index and its object from disk. */
    void erase(Node &node);
    void evictDownTo(std::size_t max_entries);

    ResultCacheOptions options_;
    ResultCacheStats stats_;

    std::unordered_map<Digest, Entry, DigestHash> entries_;
    Node sentinel_{Digest{}, Entry{}};

    /**
     * The memory tier is a run at the front of the recency list:
     * every entry holding text lies at or before `tierEnd_`
     * (`&sentinel_` when none does), so demotion walks back from
     * it. `tierBytes_` sums the held texts.
     */
    Node *tierEnd_ = &sentinel_;
    std::size_t tierBytes_ = 0;
};

} // namespace ecochip

#endif // ECOCHIP_SERVER_RESULT_CACHE_H
