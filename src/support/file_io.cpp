#include "support/file_io.h"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#else
#include <random>
#endif

#include "support/error.h"

namespace ecochip {

void
replaceFile(const std::string &path, std::string_view what,
            const std::function<void(std::ostream &)> &write)
{
    const std::string name = std::string(what) + ": " + path;
    // A symlink is followed and the file it names is replaced: a
    // rename onto the link itself would replace `/dev/stdout`
    // whenever stdout is redirected to a file.
    std::error_code ec;
    std::filesystem::path file = path;
    if (is_symlink(std::filesystem::symlink_status(file, ec)))
        file = std::filesystem::weakly_canonical(file, ec);
    const auto target = std::filesystem::status(file, ec);
    requireConfig(!file.empty() &&
                      (!exists(target) || is_regular_file(target)),
                  "cannot write " + name + " (not a regular file)");
#if defined(__unix__) || defined(__APPLE__)
    const auto tag = getpid();
#else // no pid: a random tag drawn once per process
    static const auto tag = std::random_device{}();
#endif
    // The counter tells apart the temps of two threads replacing
    // one path at once; the last rename wins.
    static std::atomic<std::uint64_t> writes{0};
    const std::string tmp = file.string() + ".tmp." +
                            std::to_string(tag) + "." +
                            std::to_string(writes++);
    std::ofstream out(tmp, std::ios::binary);
    requireConfig(static_cast<bool>(out), "cannot write " + name);
    try {
        write(out);
        out.close();
        if (out)
            std::filesystem::rename(tmp, file, ec);
        if (!out || ec)
            throw ConfigError("failed writing " + name);
    } catch (...) {
        out.close();
        std::filesystem::remove(tmp, ec);
        throw;
    }
}

std::string
readFile(const std::string &path, std::string_view what)
{
    std::ifstream in(path, std::ios::binary);
    requireConfig(static_cast<bool>(in),
                  "cannot read " + std::string(what) + ": " + path);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return std::move(bytes).str();
}

} // namespace ecochip
