/**
 * @file
 * Whole-file writes and reads. Every report, cache object and
 * index is written by `replaceFile`:
 *  - the bytes go to `<path>.tmp.<pid>.<n>` beside the path,
 *    where n counts the process's writes; only a stream that
 *    closed cleanly is renamed over the path, so a failed write
 *    removes the temp and keeps the previous file byte-identical;
 *  - a symlink is followed and the file it names is replaced;
 *    the link stays, and other hard links keep the old bytes;
 *  - a directory, device, FIFO or socket at the path, or a
 *    symlink to one, is refused;
 *  - nothing is fsync'ed.
 * No two writes on one host share a temp name, so threads and
 * processes may replace one path at once: each rename is whole,
 * and the last one wins.
 */

#ifndef ECOCHIP_SUPPORT_FILE_IO_H
#define ECOCHIP_SUPPORT_FILE_IO_H

#include <functional>
#include <ostream>
#include <string>
#include <string_view>

namespace ecochip {

/**
 * Replace the file at @p path with what @p write streams; @p what
 * names it in errors.
 * @throws ConfigError "cannot write <what>: <path>" before any
 *         write, "failed writing <what>: <path>" after one, and
 *         whatever @p write throws.
 */
void replaceFile(const std::string &path, std::string_view what,
                 const std::function<void(std::ostream &)> &write);

/** The whole file at @p path.
 *  @throws ConfigError "cannot read <what>: <path>". */
std::string readFile(const std::string &path, std::string_view what);

} // namespace ecochip

#endif // ECOCHIP_SUPPORT_FILE_IO_H
