/**
 * @file
 * Tests for the analysis server (`server/analysis_server.h`),
 * its content-addressed result cache, and the canonical request
 * serialization that cache keys hash: served responses
 * byte-identical to local engine outcomes (cold and on cache
 * hits), concurrent clients each getting exactly their answers,
 * malformed-line isolation, SIGTERM / shutdown-verb draining,
 * and corrupt cache entries recovering as misses instead of
 * crashes.
 *
 * Server processes are forked before the parent creates any
 * engine threads (the same fork-only discipline as the shard
 * runner's library mode), then driven through `ServerClient`.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/analysis_engine.h"
#include "io/batch_report_io.h"
#include "io/request_io.h"
#include "io/result_writer.h"
#include "json/stream_writer.h"
#include "server/analysis_server.h"
#include "server/result_cache.h"
#include "server/server_client.h"
#include "session/analysis_session.h"
#include "support/error.h"
#include "support/sha256.h"

#if defined(__unix__) || defined(__APPLE__)
#define ECOCHIP_TEST_HAS_FORK 1
#include <csignal>
#include <fcntl.h>
#include <cstring>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define ECOCHIP_TEST_HAS_FORK 0
#endif

namespace ecochip {
namespace {

// ------------------------------------------------ canonical text

TEST(CanonicalRequest, StableAcrossJsonRoundTrip)
{
    std::vector<AnalysisRequest> requests = {
        {ScenarioRef::scenario("ga102"), EstimateSpec{}},
        {ScenarioRef::scenario("emr"),
         SweepSpec{{7.0, 10.0, 14.0}, {}}},
        {ScenarioRef::scenario("waferscale"),
         MonteCarloSpec{256, 7, 1, {}}},
        {ScenarioRef::scenario("cpu-mono"), CostSpec{}},
    };
    for (const auto &request : requests) {
        const std::string canonical =
            canonicalRequestText(request);
        const AnalysisRequest reparsed = requestFromJson(
            json::parse(canonical), "canonical round-trip");
        EXPECT_EQ(canonicalRequestText(reparsed), canonical);
    }
}

TEST(CanonicalRequest, MonteCarloThreadsDoNotChangeTheText)
{
    // threads is a scheduling knob -- results are bit-identical
    // at any count -- so it must not split the cache key space.
    AnalysisRequest one = {ScenarioRef::scenario("ga102"),
                           MonteCarloSpec{512, 42, 1, {}}};
    AnalysisRequest eight = one;
    std::get<MonteCarloSpec>(eight.spec).threads = 8;
    EXPECT_EQ(canonicalRequestText(one),
              canonicalRequestText(eight));
    EXPECT_EQ(resultCacheKey(one, "fp"),
              resultCacheKey(eight, "fp"));
}

TEST(CanonicalRequest, SemanticChangesChangeTheKey)
{
    const AnalysisRequest base = {
        ScenarioRef::scenario("ga102"),
        MonteCarloSpec{512, 42, 1, {}}};
    AnalysisRequest seed = base;
    std::get<MonteCarloSpec>(seed.spec).seed = 43;
    AnalysisRequest scenario = base;
    scenario.scenario = ScenarioRef::scenario("emr");

    const std::string key = resultCacheKey(base, "fp");
    EXPECT_NE(resultCacheKey(seed, "fp"), key);
    EXPECT_NE(resultCacheKey(scenario, "fp"), key);
    // ... and so does serving a different catalog.
    EXPECT_NE(resultCacheKey(base, "other-fp"), key);
    EXPECT_EQ(key.size(), 64u);
}

TEST(Sha256, MatchesKnownVectors)
{
    // FIPS 180-4 test vectors -- the cache key derivation is
    // only as portable as the digest underneath it.
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256Hex(std::string(1000000, 'a')),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

// ------------------------------------------------ result cache

class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Unique per test case: ctest runs each case as its own
        // process, so a shared directory would let one SetUp's
        // remove_all race another case's store/lookup under -j.
        dir_ = std::filesystem::path(::testing::TempDir()) /
               (std::string("ecochip_result_cache_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::filesystem::remove_all(dir_);
    }

    std::string dirStr() const { return dir_.string(); }

    std::filesystem::path objectPath(const std::string &key) const
    {
        return dir_ / "objects" / key.substr(0, 2) / (key + ".json");
    }

    std::string readObject(const std::string &key) const
    {
        std::ifstream in(objectPath(key), std::ios::binary);
        return {std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>()};
    }

    void writeObject(const std::string &key,
                     const std::string &bytes) const
    {
        std::ofstream(objectPath(key), std::ios::binary | std::ios::trunc)
            << bytes;
    }

    std::filesystem::path dir_;
};

/** A real result document: the ga102 estimate as the server
 *  serializes it. */
std::string
ga102EstimateText()
{
    json::StreamWriter writer;
    appendResult(writer,
                 ScenarioBuilder().scenario("ga102").build().estimate());
    return writer.take();
}

TEST_F(ResultCacheTest, StoreLookupRoundTripsAndCounts)
{
    ResultCache cache({dirStr(), 0});
    const std::string result =
        R"({"kind":"estimate","detail":"x"})";

    const std::string key(64, 'a');
    EXPECT_FALSE(cache.lookupText(key).has_value());
    cache.storeText(key, result);
    const auto hit = cache.lookupText(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, result);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST_F(ResultCacheTest, SurvivesReopenAndIndexLoss)
{
    const std::string key(64, 'b');
    {
        ResultCache cache({dirStr(), 0});
        const std::string result = R"({"detail":"persisted"})";
        cache.storeText(key, result);
        cache.flushIndex();
    }
    {
        ResultCache cache({dirStr(), 0});
        ASSERT_TRUE(cache.lookupText(key).has_value());
    }
    // Corrupt the index (crash before flushIndex): the object
    // tree is the truth and entries must still be found.
    std::ofstream(dir_ / "index.json") << "{ truncated";
    {
        ResultCache cache({dirStr(), 0});
        ASSERT_TRUE(cache.lookupText(key).has_value());
    }
}

TEST_F(ResultCacheTest, TruncatedObjectRecomputesInsteadOfCrash)
{
    const std::string result =
        R"({"detail":"will be truncated"})";
    const std::string key(64, 'c');
    ResultCache({dirStr(), 0}).storeText(key, result);
    // A reopened cache holds no text in memory, so its lookup
    // reads the object.
    ResultCache cache({dirStr(), 0});

    // Truncate the object file mid-JSON.
    writeObject(key, "{\"detail\": \"wi");

    EXPECT_FALSE(cache.lookupText(key).has_value());
    EXPECT_EQ(cache.stats().entries, 0u);
    // A fresh store of the recomputed result heals the entry.
    cache.storeText(key, result);
    ASSERT_TRUE(cache.lookupText(key).has_value());
}

TEST_F(ResultCacheTest, LruEvictionKeepsTheHotEntries)
{
    ResultCache cache({dirStr(), 2});
    const std::string result = R"({"detail":"x"})";
    const std::string a(64, 'a'), b(64, 'b'), c(64, 'd');
    cache.storeText(a, result);
    cache.storeText(b, result);
    ASSERT_TRUE(cache.lookupText(a).has_value()); // a is now hot
    cache.storeText(c, result);                   // evicts b
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE(cache.lookupText(a).has_value());
    EXPECT_FALSE(cache.lookupText(b).has_value());
    EXPECT_TRUE(cache.lookupText(c).has_value());
}

TEST_F(ResultCacheTest, MemoryDiskAndColdAnswersAreByteIdentical)
{
    const std::string cold = ga102EstimateText();
    const std::string key = sha256Hex("byte-identical");
    {
        ResultCache cache({dirStr(), 0});
        cache.storeText(key, cold);
        EXPECT_EQ(readObject(key), cold + "\n");
        // A memory-tier hit reads no file: the object may be gone.
        const auto away = objectPath(key).string() + ".away";
        std::filesystem::rename(objectPath(key), away);
        const auto memory = cache.lookupText(key);
        ASSERT_TRUE(memory.has_value());
        EXPECT_EQ(*memory, cold);
        std::filesystem::rename(away, objectPath(key));
        cache.flushIndex();
    }
    ResultCache reopened({dirStr(), 0});
    const auto disk = reopened.lookupText(key);
    ASSERT_TRUE(disk.has_value());
    EXPECT_EQ(*disk, cold);
    // The disk hit brought the text into the memory tier.
    std::filesystem::remove(objectPath(key));
    const auto again = reopened.lookupText(key);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, cold);
    EXPECT_EQ(reopened.stats().hits, 2u);
    EXPECT_EQ(reopened.stats().misses, 0u);
}

TEST_F(ResultCacheTest, EditedObjectOnDiskIsAMissAndRecomputed)
{
    const std::string result = ga102EstimateText();
    const std::vector<std::string> damaged = {
        // Valid JSON, pretty-printed over several lines.
        json::parse(result).dump(true) + "\n",
        // One byte appended after the newline: whitespace keeps
        // the JSON valid, a letter does not.
        result + "\n ",
        result + "\nx",
    };
    for (std::size_t i = 0; i < damaged.size(); ++i) {
        SCOPED_TRACE(i);
        const std::string key = sha256Hex("edited" + std::to_string(i));
        ResultCache({dirStr(), 0}).storeText(key, result);
        writeObject(key, damaged[i]);

        ResultCache cache({dirStr(), 0});
        const auto entries = cache.stats().entries;
        EXPECT_FALSE(cache.lookupText(key).has_value());
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_EQ(cache.stats().entries, entries - 1);
        EXPECT_FALSE(std::filesystem::exists(objectPath(key)));

        cache.storeText(key, result);
        const auto hit = cache.lookupText(key);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(*hit, result);
    }
}

TEST_F(ResultCacheTest, CompactDomObjectIsServedByteForByte)
{
    // Caches written before the streaming serializers hold
    // `resultToJson(result).dump(false)` and a newline.
    const AnalysisResult result =
        ScenarioBuilder().scenario("emr").build().estimate();
    const std::string dom = resultToJson(result).dump(false);
    const std::string key = sha256Hex("compact-dom");
    std::filesystem::create_directories(objectPath(key).parent_path());
    writeObject(key, dom + "\n");

    ResultCache cache({dirStr(), 0});
    const auto hit = cache.lookupText(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, dom);
    json::StreamWriter writer;
    appendResult(writer, result);
    EXPECT_EQ(*hit, writer.str());
}

TEST_F(ResultCacheTest, StreamedIndexMatchesTheDomDump)
{
    const auto expectIndex = [this](const std::vector<std::string> &keys) {
        json::Value entries = json::Value::makeArray();
        for (std::size_t tick = 0; tick < keys.size(); ++tick) {
            json::Value entry = json::Value::makeObject();
            entry.set("key", keys[tick]);
            entry.set("tick", static_cast<double>(tick));
            entries.append(std::move(entry));
        }
        json::Value doc = json::Value::makeObject();
        doc.set("version", 1);
        doc.set("entries", std::move(entries));
        std::ifstream in(dir_ / "index.json", std::ios::binary);
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        EXPECT_EQ(text, doc.dump(true) + "\n");
    };

    ResultCache cache({dirStr(), 0});
    cache.flushIndex();
    expectIndex({});

    const std::string a = sha256Hex("a"), b = sha256Hex("b"),
                      c = sha256Hex("c");
    for (const auto &key : {a, b, c})
        cache.storeText(key, R"({"detail":"x"})");
    ASSERT_TRUE(cache.lookupText(a).has_value());
    // Least recently used first.
    cache.flushIndex();
    expectIndex({b, c, a});
}

TEST_F(ResultCacheTest, LoadsAKeySortedIndex)
{
    // Older caches wrote their index sorted by key, each entry
    // with its last-use tick: the ticks give the recency order.
    const std::string a(64, 'a'), b(64, 'b'), c(64, 'c');
    {
        ResultCache cache({dirStr(), 0});
        for (const auto &key : {a, b, c})
            cache.storeText(key, R"({"detail":"x"})");
    }
    json::Value entries = json::Value::makeArray();
    for (const auto &[key, tick] :
         {std::pair{a, 7}, std::pair{b, 2}, std::pair{c, 5}}) {
        json::Value entry = json::Value::makeObject();
        entry.set("key", key);
        entry.set("tick", tick);
        entries.append(std::move(entry));
    }
    json::Value doc = json::Value::makeObject();
    doc.set("version", 1);
    doc.set("entries", std::move(entries));
    json::writeFile(doc, (dir_ / "index.json").string());

    // Two entries fit: loading drops the least recent, b.
    ResultCache cache({dirStr(), 2});
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_FALSE(std::filesystem::exists(objectPath(b)));
    EXPECT_TRUE(cache.lookupText(c).has_value());
    EXPECT_TRUE(cache.lookupText(a).has_value());
    EXPECT_FALSE(cache.lookupText(b).has_value());
}

/**
 * The reference model of `ResultCache`: one recency list, and a
 * memory tier that holds the texts of entries that came in (stored
 * or served from disk) up to the byte budget, dropping the least
 * recently used ones first. Object files the test removed are
 * `lost`.
 */
struct CacheModel
{
    std::size_t maxEntries = 0;
    std::list<int> order; // most recent first
    std::map<int, std::string> texts;
    std::set<int> held;
    std::size_t heldBytes = 0;
    std::set<int> lost;
    ResultCacheStats stats;

    void release(int id)
    {
        if (held.erase(id))
            heldBytes -= texts.at(id).size();
    }

    void touch(int id)
    {
        order.remove(id);
        order.push_front(id);
        const std::size_t size = texts.at(id).size();
        if (!held.count(id) && size <= ResultCache::kMemoryTierBytes) {
            held.insert(id);
            heldBytes += size;
        }
        for (auto it = order.rbegin();
             heldBytes > ResultCache::kMemoryTierBytes; ++it)
            release(*it);
    }

    void drop(int id)
    {
        release(id);
        order.remove(id);
        texts.erase(id);
        lost.erase(id);
    }

    void store(int id, const std::string &text)
    {
        release(id);
        texts[id] = text;
        lost.erase(id);
        touch(id);
        while (maxEntries != 0 && order.size() > maxEntries) {
            drop(order.back());
            ++stats.evictions;
        }
    }

    /** The text a lookup of @p id answers, or nullopt. */
    std::optional<std::string> lookup(int id)
    {
        const bool indexed = texts.count(id) != 0;
        if (!indexed || (!held.count(id) && lost.count(id))) {
            if (indexed)
                drop(id);
            ++stats.misses;
            return std::nullopt;
        }
        ++stats.hits;
        touch(id);
        return texts.at(id);
    }

    /** A reopened cache: an empty memory tier, lost entries gone. */
    void reopen()
    {
        const std::set<int> gone = lost;
        for (const int id : gone)
            drop(id);
        held.clear();
        heldBytes = 0;
    }
};

TEST_F(ResultCacheTest, RandomOperationsMatchAReferenceModel)
{
    // Stores, lookups, removed objects and reopens against the
    // model. Texts of a third of the memory tier, and larger than
    // it, make the tier drop texts; once the objects are removed,
    // lookups show which texts the tier still holds.
    constexpr std::size_t kTier = ResultCache::kMemoryTierBytes;
    std::mt19937 rng(20240611);
    for (std::size_t max_entries = 1; max_entries <= 8; ++max_entries) {
        SCOPED_TRACE(max_entries);
        std::filesystem::remove_all(dir_);
        CacheModel model;
        model.maxEntries = max_entries;
        ResultCacheStats closed; // counters of reopened caches
        auto cache = std::make_unique<ResultCache>(
            ResultCacheOptions{dirStr(), max_entries});

        for (int op = 0; op < 300; ++op) {
            const int id = static_cast<int>(rng() % 6);
            const std::string key = sha256Hex(std::to_string(id));
            const unsigned roll = rng() % 100;
            if (roll < 40) {
                const unsigned size_roll = rng() % 100;
                const std::size_t pad = size_roll < 60   ? 16
                                        : size_roll < 95 ? kTier / 3
                                                         : kTier + 1;
                const std::string text =
                    R"({"op":)" + std::to_string(op) + R"(,"pad":")" +
                    std::string(pad, 'p') + "\"}";
                cache->storeText(key, text);
                model.store(id, text);
            } else if (roll < 80) {
                const auto expected = model.lookup(id);
                const auto got = cache->lookupText(key);
                ASSERT_EQ(got.has_value(), expected.has_value())
                    << "op " << op;
                if (got) {
                    EXPECT_EQ(*got, *expected) << "op " << op;
                }
            } else if (roll < 85) {
                // Every object goes: only the memory tier answers.
                for (const auto &[lost_id, text] : model.texts) {
                    std::filesystem::remove(
                        objectPath(sha256Hex(std::to_string(lost_id))));
                    model.lost.insert(lost_id);
                }
            } else {
                cache->flushIndex();
                closed.hits += cache->stats().hits;
                closed.misses += cache->stats().misses;
                closed.evictions += cache->stats().evictions;
                cache.reset();
                cache = std::make_unique<ResultCache>(
                    ResultCacheOptions{dirStr(), max_entries});
                model.reopen();
            }
            const ResultCacheStats &got = cache->stats();
            ASSERT_EQ(closed.hits + got.hits, model.stats.hits)
                << "op " << op;
            ASSERT_EQ(closed.misses + got.misses, model.stats.misses)
                << "op " << op;
            ASSERT_EQ(closed.evictions + got.evictions,
                      model.stats.evictions)
                << "op " << op;
            ASSERT_EQ(got.entries, model.order.size()) << "op " << op;
        }
    }
}

TEST_F(ResultCacheTest, ConcurrentWritersOfOneKeyLeaveOneValidObject)
{
    // Two engine workers may finish the same request at once.
    const ResultCache cache({dirStr(), 0});
    const std::string key = sha256Hex("contended");
    const std::string texts[] = {R"({"writer":0})", R"({"writer":1})"};
    std::vector<std::thread> writers;
    for (const std::string &text : texts)
        writers.emplace_back([&cache, &key, &text] {
            for (int i = 0; i < 200; ++i)
                cache.writeObject(key, text);
        });
    for (auto &writer : writers)
        writer.join();

    const std::string object = readObject(key);
    EXPECT_TRUE(object == texts[0] + "\n" || object == texts[1] + "\n")
        << object;
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(
             objectPath(key).parent_path()))
        names.push_back(entry.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>{key + ".json"});
}

TEST_F(ResultCacheTest, EvictionBetweenTwoStoresOfOneKeyKeepsTheIndexTrue)
{
    // Two workers computed k; both wrote its object before the
    // loop admitted either, and j's store evicted k in between,
    // removing the object. The second admit must not index k.
    ResultCache cache({dirStr(), 1});
    const std::string k = sha256Hex("k"), j = sha256Hex("j");
    const std::string text = R"({"detail":"x"})";
    cache.writeObject(k, text);
    cache.writeObject(k, text);
    cache.admit(k, text);
    cache.storeText(j, text);
    ASSERT_FALSE(std::filesystem::exists(objectPath(k)));
    cache.admit(k, text);

    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_FALSE(cache.lookupText(k).has_value());
    EXPECT_TRUE(cache.lookupText(j).has_value());
}

#if ECOCHIP_TEST_HAS_FORK

TEST_F(ResultCacheTest, ShortWriteIsNeverRenamedIntoPlace)
{
    // A write cut short (here by the file size limit, in a child
    // so the limit stays there) must throw and count a store
    // failure, and leave neither the object nor its temporary.
    const std::string key(64, 'e');
    const pid_t pid = fork();
    if (pid == 0) {
        std::signal(SIGXFSZ, SIG_IGN);
        const rlimit limit{4096, 4096};
        setrlimit(RLIMIT_FSIZE, &limit);
        ResultCache cache({dirStr(), 0});
        bool threw = false;
        try {
            cache.storeText(key, std::string(16384, ' ') + "{}");
        } catch (const ModelError &) {
            threw = true;
        }
        _exit(threw && cache.stats().storeFailures == 1 &&
                      cache.stats().entries == 0
                  ? 0
                  : 1);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    const auto object =
        dir_ / "objects" / key.substr(0, 2) / (key + ".json");
    EXPECT_FALSE(std::filesystem::exists(object));
    // The temp is `<key>.json.tmp.<pid of the child>.<n>`.
    const std::string tempPrefix = key + ".json.tmp.";
    if (std::filesystem::exists(object.parent_path())) {
        for (const auto &entry : std::filesystem::directory_iterator(
                 object.parent_path())) {
            EXPECT_FALSE(entry.path().filename().string().starts_with(
                tempPrefix))
                << entry.path();
        }
    }
}

// ------------------------------------------------ live server

/**
 * A forked `--serve`-equivalent child process. Fork happens
 * before the parent test creates any engine threads; the child
 * constructs the server, runs until drained, and _exits with 0
 * (clean drain), 17 (construction/run threw) or 18 (@p drained,
 * when given, rejected the drained server).
 */
class ServerProcess
{
  public:
    explicit ServerProcess(
        ServerOptions options,
        std::function<bool(const AnalysisServer &)> drained = {})
        : socket_(options.socketPath)
    {
        pid_ = fork();
        if (pid_ == 0) {
            try {
                AnalysisServer server(std::move(options));
                server.run();
                _exit(!drained || drained(server) ? 0 : 18);
            } catch (...) {
                _exit(17);
            }
        }
    }

    ~ServerProcess()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            int status = 0;
            waitpid(pid_, &status, 0);
        }
    }

    bool started() const { return pid_ > 0; }

    void signal(int signo) const { kill(pid_, signo); }

    /** Reap the child; returns its exit code (-1 on signal). */
    int waitForExit()
    {
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    const std::string &socketPath() const { return socket_; }

  private:
    pid_t pid_ = -1;
    std::string socket_;
};

/** Short socket path under /tmp (sun_path is ~108 bytes). */
std::string
testSocket(const std::string &name)
{
    return "/tmp/eco_t_" + name + "_" +
           std::to_string(getpid()) + ".sock";
}

ServerOptions
serverOptions(const std::string &name)
{
    ServerOptions options;
    options.socketPath = testSocket(name);
    options.engineThreads = 2;
    return options;
}

std::vector<AnalysisRequest>
builtinEstimateRequests()
{
    std::vector<AnalysisRequest> requests;
    for (const auto &name : ScenarioRegistry::builtin().names())
        requests.push_back(
            {ScenarioRef::scenario(name), EstimateSpec{}});
    return requests;
}

/** Send every request, read one line each, order by index. */
std::vector<std::string>
serveAll(ServerClient &client,
         const std::vector<AnalysisRequest> &requests)
{
    for (const auto &request : requests)
        client.sendLine(requestToJson(request).dump(false));
    std::vector<std::string> by_index(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        std::string line = client.readLine();
        const auto index = static_cast<std::size_t>(
            json::parse(line).at("index").asInteger());
        EXPECT_LT(index, by_index.size());
        EXPECT_TRUE(by_index[index].empty())
            << "duplicate index " << index;
        by_index[index] = std::move(line);
    }
    return by_index;
}

TEST(AnalysisServer,
     ServedLinesMatchLocalStreamEventsForAllBuiltins)
{
    // The tentpole acceptance gate: for every builtin scenario,
    // the served response line is byte-identical to the NDJSON
    // stream event a local `--batch --stream` run emits.
    ServerProcess server(serverOptions("equiv"));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    const auto requests = builtinEstimateRequests();
    ASSERT_GE(requests.size(), 9u);

    // Local reference outcomes (scoped: threads join before any
    // later test forks).
    std::vector<std::string> expected(requests.size());
    {
        AnalysisEngine engine(2);
        const BatchReport report = engine.runBatch(requests);
        for (std::size_t i = 0; i < requests.size(); ++i)
            expected[i] = streamEventLine(
                i, report.outcomes[i]);
    }

    ServerClient client(server.socketPath());
    const auto served = serveAll(client, requests);
    for (std::size_t i = 0; i < requests.size(); ++i)
        EXPECT_EQ(served[i], expected[i]) << "request " << i;

    client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, CacheHitsAreByteIdenticalToColdAnswers)
{
    const auto cache_dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_serve_cache";
    std::filesystem::remove_all(cache_dir);

    ServerOptions options = serverOptions("cache");
    options.cacheDir = cache_dir.string();
    ServerProcess server(std::move(options));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    const auto requests = builtinEstimateRequests();

    ServerClient cold_client(server.socketPath());
    const auto cold = serveAll(cold_client, requests);

    ServerClient warm_client(server.socketPath());
    const auto warm = serveAll(warm_client, requests);

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i)
        EXPECT_EQ(warm[i], cold[i]) << "request " << i;

    // Round two must have come from the cache, and the stats
    // verb must say so.
    const json::Value stats = warm_client.stats();
    EXPECT_GE(stats.at("hits").asInteger(),
              static_cast<long long>(requests.size()));
    EXPECT_EQ(static_cast<std::size_t>(
                  stats.at("misses").asInteger()),
              requests.size());
    EXPECT_TRUE(stats.at("cache_enabled").asBoolean());
    EXPECT_GT(stats.at("contexts").asInteger(), 0);
    EXPECT_EQ(stats.at("malformed").asInteger(), 0);

    warm_client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);

    // The drained server flushed its LRU index.
    EXPECT_TRUE(
        std::filesystem::exists(cache_dir / "index.json"));
}

TEST(AnalysisServer, ConcurrentClientsGetExactlyTheirAnswers)
{
    // Multi-client soak (runs under TSan in CI): several client
    // threads each submit the full builtin estimate set on their
    // own connection and must read back exactly their answers --
    // every index once, every outcome ok.
    ServerProcess server(serverOptions("soak"));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    const auto requests = builtinEstimateRequests();
    constexpr int kClients = 6;

    std::mutex mutex;
    std::vector<std::string> failures;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c]() {
            try {
                ServerClient client(server.socketPath());
                const auto lines = serveAll(client, requests);
                for (std::size_t i = 0; i < lines.size(); ++i) {
                    const json::Value event =
                        json::parse(lines[i]);
                    if (!event.at("ok").asBoolean()) {
                        const std::lock_guard<std::mutex> lock(
                            mutex);
                        failures.push_back(
                            "client " + std::to_string(c) +
                            " request " + std::to_string(i) +
                            " failed");
                    }
                }
            } catch (const std::exception &e) {
                const std::lock_guard<std::mutex> lock(mutex);
                failures.push_back("client " +
                                   std::to_string(c) + ": " +
                                   e.what());
            }
        });
    }
    for (auto &thread : clients)
        thread.join();
    EXPECT_TRUE(failures.empty())
        << ::testing::PrintToString(failures);

    ServerClient control(server.socketPath());
    const json::Value stats = control.stats();
    EXPECT_EQ(static_cast<std::size_t>(
                  stats.at("served").asInteger()),
              requests.size() * kClients);
    control.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, MalformedLinesAreIsolatedPerConnection)
{
    ServerProcess server(serverOptions("malformed"));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    ServerClient client(server.socketPath());
    client.sendLine("this is not json");
    client.sendLine(
        requestToJson({ScenarioRef::scenario("ga102"),
                       EstimateSpec{}})
            .dump(false));
    client.sendLine("{\"kind\": \"no-such-kind\"}");

    std::map<std::size_t, json::Value> by_index;
    for (int i = 0; i < 3; ++i) {
        const json::Value event =
            json::parse(client.readLine());
        by_index.emplace(static_cast<std::size_t>(
                             event.at("index").asInteger()),
                         event);
    }
    ASSERT_EQ(by_index.size(), 3u);
    EXPECT_FALSE(by_index.at(0).at("ok").asBoolean());
    EXPECT_TRUE(by_index.at(1).at("ok").asBoolean());
    EXPECT_FALSE(by_index.at(2).at("ok").asBoolean());
    EXPECT_FALSE(
        by_index.at(2).at("error").asString().empty());

    // The daemon survived all of it and counted the damage.
    const json::Value stats = client.stats();
    EXPECT_EQ(stats.at("malformed").asInteger(), 2);
    EXPECT_EQ(stats.at("served").asInteger(), 1);
    EXPECT_EQ(stats.at("failed").asInteger(), 0);

    client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, DeeplyNestedLineIsAMalformedEvent)
{
    // 200 KB of '[' once overflowed the parser's stack and killed
    // the daemon for every client.
    ServerProcess server(serverOptions("deep"));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    ServerClient client(server.socketPath());
    client.sendLine(std::string(200000, '['));
    const json::Value event = json::parse(client.readLine());
    EXPECT_EQ(event.at("index").asInteger(), 0);
    EXPECT_FALSE(event.at("ok").asBoolean());
    EXPECT_NE(event.at("error").asString().find(
                  "nested deeper than 512 levels"),
              std::string::npos)
        << event.dump(false);

    const json::Value stats = client.stats();
    EXPECT_EQ(stats.at("malformed").asInteger(), 1);

    client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, UnwritableResultBecomesAFailedEvent)
{
    // A scenario whose operational carbon overflows to inf: the
    // result cannot be written as JSON, and the per-request catch
    // answers with a failed event instead.
    ServerOptions options = serverOptions("nonfinite");
    options.registry.loadJson(json::parse(R"({"scenarios": [{
        "name": "overflowing",
        "description": "operational power overflows to inf",
        "architecture": {
            "name": "overflowing", "packaging": "rdl_fanout",
            "chiplets": [{"name": "npu", "type": "logic",
                          "node_nm": 5, "area_mm2": 45.0}]},
        "operational": {
            "lifetime_years": 4, "duty_cycle": 0.3,
            "avg_power_w": 1e308, "intensity_g_per_kwh": 400}
    }]})"), "inline catalog");
    ServerProcess server(std::move(options));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    ServerClient client(server.socketPath());
    const std::vector<AnalysisRequest> requests = {
        {ScenarioRef::scenario("overflowing"), EstimateSpec{}},
        {ScenarioRef::scenario("ga102"), EstimateSpec{}},
    };
    const auto served = serveAll(client, requests);
    const json::Value failed = json::parse(served[0]);
    EXPECT_FALSE(failed.at("ok").asBoolean());
    EXPECT_NE(failed.at("error").asString().find("non-finite"),
              std::string::npos)
        << served[0];
    EXPECT_TRUE(json::parse(served[1]).at("ok").asBoolean());

    const json::Value stats = client.stats();
    EXPECT_EQ(stats.at("served").asInteger(), 2);
    EXPECT_EQ(stats.at("failed").asInteger(), 1);

    client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, SigtermDrainsInFlightRequests)
{
    ServerOptions options = serverOptions("sigterm");
    options.installSignalHandlers = true;
    ServerProcess server(std::move(options));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    ServerClient client(server.socketPath());
    // A request slow enough to still be in flight when the
    // signal lands.
    client.sendLine(
        requestToJson({ScenarioRef::scenario("ga102"),
                       MonteCarloSpec{20000, 42, 1, {}}})
            .dump(false));
    // The stats round-trip proves the server has read and
    // dispatched the line (lines on one connection are processed
    // in order), so SIGTERM now arrives mid-request.
    client.stats();
    server.signal(SIGTERM);

    // The drain must still deliver the in-flight answer.
    const json::Value event = json::parse(client.readLine());
    EXPECT_EQ(event.at("index").asInteger(), 0);
    EXPECT_TRUE(event.at("ok").asBoolean());
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, DisconnectedClientStillWarmsTheCache)
{
    const auto cache_dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_serve_gone";
    std::filesystem::remove_all(cache_dir);
    ServerOptions options = serverOptions("gone");
    options.cacheDir = cache_dir.string();
    ServerProcess server(std::move(options));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    const std::string line =
        requestToJson({ScenarioRef::scenario("ga102"),
                       MonteCarloSpec{20000, 42, 1, {}}})
            .dump(false);
    {
        ServerClient gone(server.socketPath());
        gone.sendLine(line);
    } // closed before its answer exists

    // `served` counts answers whether or not anyone was left to
    // read them: wait until the gone client's one is done.
    ServerClient client(server.socketPath());
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (client.stats().at("served").asInteger() < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    client.sendLine(line);
    const json::Value event = json::parse(client.readLine());
    EXPECT_TRUE(event.at("ok").asBoolean());
    const json::Value stats = client.stats();
    EXPECT_EQ(stats.at("hits").asInteger(), 1);
    EXPECT_EQ(stats.at("misses").asInteger(), 1);
    EXPECT_EQ(stats.at("served").asInteger(), 2);

    client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, CacheStoreFailureStillAnswers)
{
    // Every object shard directory is a regular file, so no
    // result can be stored. That once made the daemon exit with
    // the request unanswered.
    const auto cache_dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_serve_unstorable";
    std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(cache_dir / "objects");
    const char *hex = "0123456789abcdef";
    for (int i = 0; i < 256; ++i)
        std::ofstream(cache_dir / "objects" /
                      std::string{hex[i / 16], hex[i % 16]});

    ServerOptions options = serverOptions("unstorable");
    options.cacheDir = cache_dir.string();
    ServerProcess server(std::move(options));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    ServerClient client(server.socketPath());
    const std::vector<AnalysisRequest> requests = {
        {ScenarioRef::scenario("ga102"), EstimateSpec{}},
        {ScenarioRef::scenario("emr"), EstimateSpec{}},
    };
    for (const auto &line : serveAll(client, requests))
        EXPECT_TRUE(json::parse(line).at("ok").asBoolean())
            << line;

    const json::Value stats = client.stats();
    EXPECT_EQ(stats.at("store_failures").asInteger(), 2);
    EXPECT_EQ(stats.at("entries").asInteger(), 0);
    EXPECT_EQ(stats.at("failed").asInteger(), 0);

    client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, UnsavableIndexStillDrainsCleanly)
{
    // `index.json` is a directory, so the index cannot be saved
    // after the drain. That once escaped `run()`: every answer
    // went out, then the daemon exited 1 without its drain line.
    const auto temp = std::filesystem::path(::testing::TempDir());
    const auto cache_dir = temp / "ecochip_serve_unsavable_index";
    std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(cache_dir / "index.json");
    const auto log =
        temp / ("ecochip_serve_unsavable_" +
                std::to_string(getpid()) + ".err");

    ServerOptions options = serverOptions("unsavable");
    options.cacheDir = cache_dir.string();
    // The child's stderr goes to the log; the parent's is back
    // right after the fork.
    const int saved_stderr = dup(2);
    const int log_fd =
        open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(log_fd, 0);
    dup2(log_fd, 2);
    ServerProcess server(
        std::move(options), [](const AnalysisServer &drained) {
            return drained.stats().cache.storeFailures == 1;
        });
    dup2(saved_stderr, 2);
    close(saved_stderr);
    close(log_fd);
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    ServerClient client(server.socketPath());
    for (const auto &line :
         serveAll(client, builtinEstimateRequests()))
        EXPECT_TRUE(json::parse(line).at("ok").asBoolean())
            << line;
    client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);

    std::ifstream in(log);
    const std::string warning((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    EXPECT_NE(warning.find("warning: cache index not saved"),
              std::string::npos)
        << warning;
    EXPECT_NE(warning.find((cache_dir / "index.json").string()),
              std::string::npos)
        << warning;
    std::filesystem::remove(log);
    std::filesystem::remove_all(cache_dir);
}

/**
 * A bare connection, for bytes `ServerClient` never sends. Reads
 * and writes give up after 20 s, so a server that never answers
 * fails the test instead of hanging it.
 */
int
connectRaw(const std::string &socket_path)
{
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    const timeval timeout{20, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
               sizeof(timeout));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                sizeof(addr)) != 0) {
        close(fd);
        return -1;
    }
    return fd;
}

TEST(AnalysisServer, OverlongLineGetsOneErrorEventThenEof)
{
    ServerProcess server(serverOptions("overlong"));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    const int fd = connectRaw(server.socketPath());
    ASSERT_GE(fd, 0);
    // 2 MiB with no newline. The server stops reading at its
    // 1 MiB cap, so the sender runs on its own thread and gives
    // up once the server closes.
    std::thread sender([fd] {
        const std::string chunk(64 * 1024, '[');
        for (int i = 0; i < 32; ++i)
            if (send(fd, chunk.data(), chunk.size(),
                     MSG_NOSIGNAL) <= 0)
                break;
    });
    std::string received;
    char buf[4096];
    for (ssize_t got; (got = read(fd, buf, sizeof(buf))) > 0;)
        received.append(buf, static_cast<std::size_t>(got));
    sender.join();
    close(fd);

    // Exactly one line, then the end of the stream (a reset
    // counts: the server closes with the unread rest queued).
    ASSERT_EQ(std::count(received.begin(), received.end(), '\n'),
              1)
        << received.substr(0, 200);
    ASSERT_EQ(received.back(), '\n');
    received.pop_back();
    const json::Value event = json::parse(received);
    EXPECT_EQ(event.at("index").asInteger(), 0);
    EXPECT_FALSE(event.at("ok").asBoolean());
    EXPECT_NE(event.at("error").asString().find("1048576"),
              std::string::npos)
        << received;

    // The daemon itself is fine and keeps serving.
    ServerClient other(server.socketPath());
    const json::Value stats = other.stats();
    EXPECT_EQ(stats.at("malformed").asInteger(), 1);
    EXPECT_EQ(stats.at("connections").asInteger(), 3);
    other.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, RefusesToDoubleBindALiveSocket)
{
    ServerProcess server(serverOptions("double"));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    // Same path, live server behind it: constructing a second
    // server must throw instead of stealing the socket.
    ServerOptions duplicate = serverOptions("double");
    EXPECT_THROW(AnalysisServer second(std::move(duplicate)),
                 ConfigError);

    ServerClient client(server.socketPath());
    client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

#endif // ECOCHIP_TEST_HAS_FORK

} // namespace
} // namespace ecochip
