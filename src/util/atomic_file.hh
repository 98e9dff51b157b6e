/**
 * @file
 * Crash-safe replacement of a whole file.
 *
 * A state file rewritten in place is destroyed by a crash mid-write:
 * the reader finds a truncated file and the previous good copy is
 * gone. writeFileAtomically() writes a temp file next to the target,
 * flushes and fsyncs it, and renames it over the target. rename() is
 * atomic within one file system, so a reader sees either the old bytes
 * or the new ones, never a mix.
 */

#ifndef COOPER_UTIL_ATOMIC_FILE_HH
#define COOPER_UTIL_ATOMIC_FILE_HH

#include <functional>
#include <ostream>
#include <string>

namespace cooper {

/**
 * Replace `path` with what `write` streams.
 *
 * The bytes go to `path` + ".tmp" in the same directory first. If
 * `write` throws or leaves the stream failed, or any step fails, the
 * temp file is removed and `path` keeps its previous bytes.
 *
 * @param path Target file.
 * @param write Producer of the new contents.
 * @param caller Name used in error messages.
 * @throws FatalError on I/O failure (after removing the temp file);
 *         exceptions from `write` propagate after the same cleanup.
 */
void writeFileAtomically(const std::string &path,
                         const std::function<void(std::ostream &)> &write,
                         const char *caller);

} // namespace cooper

#endif // COOPER_UTIL_ATOMIC_FILE_HH
