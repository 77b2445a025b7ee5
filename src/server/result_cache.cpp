#include "server/result_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "io/request_io.h"
#include "json/ondemand.h"
#include "support/error.h"
#include "support/file_io.h"
#include "support/sha256.h"

namespace ecochip {

namespace {

namespace fs = std::filesystem;

/**
 * Fold the bytes of a design directory's JSON configs into a
 * digest, file names included, in sorted order -- editing any
 * config (or adding/removing one) must change every cache key
 * bound to the directory.
 */
void
updateWithDesignDir(Sha256 &digest, const std::string &dir)
{
    std::vector<fs::path> configs;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() == ".json")
            configs.push_back(it->path());
    }
    std::sort(configs.begin(), configs.end());
    for (const auto &path : configs) {
        digest.update(path.filename().string());
        digest.update("\0", 1);
        std::ifstream in(path, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        digest.update(bytes.str());
        digest.update("\0", 1);
    }
}

using Digest = std::array<unsigned char, 32>;

int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

/** The digest of @p key, unless it is not 64 lowercase hex
 *  characters. */
std::optional<Digest>
parseKey(std::string_view key)
{
    Digest digest;
    if (key.size() != 2 * digest.size())
        return std::nullopt;
    for (std::size_t i = 0; i < digest.size(); ++i) {
        const int high = hexValue(key[2 * i]);
        const int low = hexValue(key[2 * i + 1]);
        if (high < 0 || low < 0)
            return std::nullopt;
        digest[i] = static_cast<unsigned char>(high << 4 | low);
    }
    return digest;
}

Digest
requireKey(const std::string &key)
{
    const auto digest = parseKey(key);
    if (!digest)
        throw ModelError("not a result cache key: " + key);
    return *digest;
}

/** The 64-hex-character key of @p digest. */
std::string
keyOf(const Digest &digest)
{
    constexpr char kHex[] = "0123456789abcdef";
    std::string key(2 * digest.size(), '0');
    for (std::size_t i = 0; i < digest.size(); ++i) {
        key[2 * i] = kHex[digest[i] >> 4];
        key[2 * i + 1] = kHex[digest[i] & 15];
    }
    return key;
}

} // namespace

std::string
resultCacheKey(const AnalysisRequest &request,
               const std::string &catalog_fingerprint)
{
    Sha256 digest;
    digest.update(canonicalRequestText(request));
    digest.update("\n");
    digest.update(catalog_fingerprint);
    if (request.scenario.kind ==
        ScenarioRef::Kind::DesignDirectory) {
        digest.update("\n");
        updateWithDesignDir(digest, request.scenario.value);
    }
    return digest.hexDigest();
}

std::size_t
ResultCache::DigestHash::operator()(const Digest &digest) const noexcept
{
    // SHA-256 output is uniform: its first bytes are a hash already.
    std::size_t hash;
    std::memcpy(&hash, digest.data(), sizeof(hash));
    return hash;
}

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(std::move(options))
{
    requireConfig(!options_.directory.empty(),
                  "result cache needs a directory");
    sentinel_.second.prev = sentinel_.second.next = &sentinel_;
    fs::create_directories(fs::path(options_.directory) /
                           "objects");
    loadIndex();
}

std::string
ResultCache::objectPath(const std::string &key) const
{
    return (fs::path(options_.directory) / "objects" /
            key.substr(0, 2) / (key + ".json"))
        .string();
}

void
ResultCache::loadIndex()
{
    const std::string index_path =
        (fs::path(options_.directory) / "index.json").string();

    // The index is advisory: it restores LRU order across
    // restarts, but the objects are the truth. A missing or
    // corrupt index (crash before flushIndex) falls back to a
    // scan of the object tree. Entries are listed in any order
    // (older versions sorted them by key) and ranked by tick.
    std::vector<std::pair<double, Digest>> listed;
    if (fs::exists(index_path)) {
        try {
            const std::string text =
                readFile(index_path, "cache index");
            json::ondemand::Scanner in(text);
            bool has_entries = false;
            in.beginObject();
            for (std::string name; in.nextMember(name);) {
                if (name != "entries") {
                    in.rawValue();
                    continue;
                }
                has_entries = true;
                in.beginArray();
                while (in.nextElement()) {
                    std::optional<Digest> key;
                    std::optional<double> tick;
                    in.beginObject();
                    for (std::string field; in.nextMember(field);) {
                        if (field == "key")
                            key = parseKey(in.string());
                        else if (field == "tick")
                            tick = in.number();
                        else
                            in.rawValue();
                    }
                    requireConfig(key && tick && *tick >= 0.0 &&
                                      *tick == std::floor(*tick),
                                  "bad cache index entry");
                    listed.emplace_back(*tick, *key);
                }
            }
            in.expectEnd();
            requireConfig(has_entries, "cache index has no entries");
        } catch (const std::exception &) {
            listed.clear();
        }
    }
    std::stable_sort(listed.begin(), listed.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (const auto &[tick, digest] : listed) {
        if (!fs::exists(objectPath(keyOf(digest))))
            continue;
        const auto [it, inserted] = entries_.try_emplace(digest);
        if (!inserted)
            unlink(*it);
        linkFront(*it);
    }

    if (entries_.empty()) {
        std::error_code ec;
        for (fs::recursive_directory_iterator
                 it(fs::path(options_.directory) / "objects",
                    ec),
             end;
             !ec && it != end; it.increment(ec)) {
            if (!it->is_regular_file(ec))
                continue;
            if (const auto digest =
                    parseKey(it->path().stem().string())) {
                const auto [entry, inserted] =
                    entries_.try_emplace(*digest);
                if (inserted)
                    linkFront(*entry);
            }
        }
    }
    stats_.entries = entries_.size();
    evictDownTo(options_.maxEntries);
    // Entries dropped while reconciling a shrunken maxEntries
    // are housekeeping, not served evictions.
    stats_.evictions = 0;
}

std::optional<std::string>
ResultCache::lookupText(const std::string &key)
{
    const auto it = entries_.find(requireKey(key));
    if (it == entries_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    Node &node = *it;
    std::string text = node.second.text;
    if (text.empty()) {
        try {
            // Disk tier: the object is the text and one newline.
            text = readFile(objectPath(key), "cache object");
            if (!text.empty() && text.back() == '\n')
                text.pop_back();
            requireConfig(text.find('\n') == std::string::npos,
                          "cache object spans several lines");
            json::ondemand::validate(text);
        } catch (const std::exception &) {
            // Missing, truncated or edited: evict and recompute.
            erase(node);
            ++stats_.misses;
            return std::nullopt;
        }
    }
    ++stats_.hits;
    touch(node, text);
    return text;
}

void
ResultCache::storeText(const std::string &key,
                       std::string_view result_text)
{
    try {
        writeObject(key, result_text);
    } catch (const ModelError &) {
        ++stats_.storeFailures;
        throw;
    }
    admit(key, result_text);
}

void
ResultCache::writeObject(const std::string &key,
                         std::string_view result_text) const
{
    requireKey(key);
    const std::string path = objectPath(key);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    try {
        replaceFile(path, "cache object", [&](std::ostream &out) {
            out << result_text << '\n';
        });
    } catch (const ConfigError &) {
        throw ModelError("cannot write cache object " + path);
    }
}

void
ResultCache::admit(const std::string &key,
                   std::string_view result_text)
{
    const Digest digest = requireKey(key);
    auto it = entries_.find(digest);
    if (it != entries_.end()) {
        release(it->second); // the new text replaces the held one
    } else {
        // Two workers may store one key: an eviction between their
        // admits removes the object the second one wrote. Only an
        // entry whose object exists is indexed.
        std::error_code ec;
        if (!fs::exists(objectPath(key), ec))
            return;
        it = entries_.try_emplace(digest).first;
        linkFront(*it);
    }
    touch(*it, result_text);
    stats_.entries = entries_.size();
    evictDownTo(options_.maxEntries);
}

void
ResultCache::touch(Node &node, std::string_view text)
{
    unlink(node);
    linkFront(node);
    Entry &entry = node.second;
    if (entry.text.empty() && text.size() <= kMemoryTierBytes) {
        entry.text.assign(text);
        tierBytes_ += text.size();
    }
    if (!entry.text.empty() && tierEnd_ == &sentinel_)
        tierEnd_ = &node;
    // Demote the least recently used texts until the tier fits;
    // the front entry's text fits alone, so it stays.
    while (tierBytes_ > kMemoryTierBytes) {
        Entry &last = tierEnd_->second;
        tierEnd_ = last.prev;
        release(last);
    }
}

void
ResultCache::unlink(Node &node)
{
    Entry &entry = node.second;
    if (tierEnd_ == &node)
        tierEnd_ = entry.prev;
    entry.prev->second.next = entry.next;
    entry.next->second.prev = entry.prev;
}

void
ResultCache::linkFront(Node &node)
{
    Entry &entry = node.second;
    entry.prev = &sentinel_;
    entry.next = sentinel_.second.next;
    entry.next->second.prev = &node;
    sentinel_.second.next = &node;
}

void
ResultCache::release(Entry &entry)
{
    tierBytes_ -= entry.text.size();
    std::string().swap(entry.text);
}

void
ResultCache::erase(Node &node)
{
    unlink(node);
    release(node.second);
    const Digest key = node.first;
    std::error_code ec;
    fs::remove(objectPath(keyOf(key)), ec);
    entries_.erase(key);
    stats_.entries = entries_.size();
}

void
ResultCache::evictDownTo(std::size_t max_entries)
{
    if (max_entries == 0)
        return;
    while (entries_.size() > max_entries) {
        erase(*sentinel_.second.prev);
        ++stats_.evictions;
    }
}

void
ResultCache::flushIndex()
{
    // Streamed in the layout of `json::writeFile`, least recently
    // used first, so the file never exists whole in memory.
    const auto write = [this](std::ostream &out) {
        out << "{\n    \"version\": 1,\n    \"entries\": [";
        std::uint64_t tick = 0;
        for (const Node *node = sentinel_.second.prev;
             node != &sentinel_; node = node->second.prev, ++tick) {
            out << (tick == 0 ? "\n" : ",\n")
                << "        {\n            \"key\": \""
                << keyOf(node->first)
                << "\",\n            \"tick\": " << tick
                << "\n        }";
        }
        out << (tick == 0 ? "]" : "\n    ]") << "\n}\n";
    };
    try {
        replaceFile(
            (fs::path(options_.directory) / "index.json").string(),
            "cache index", write);
    } catch (const ConfigError &) {
        ++stats_.storeFailures;
        throw;
    }
}

} // namespace ecochip
