#include "atomic_file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "error.hh"

namespace cooper {

namespace {

/** fsync an existing file or directory; false on failure. */
bool
syncPath(const std::string &path, int flags)
{
    const int fd = ::open(path.c_str(), flags);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    return ::close(fd) == 0 && ok;
}

std::string
directoryOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    return slash == 0 ? "/" : path.substr(0, slash);
}

} // namespace

void
writeFileAtomically(const std::string &path,
                    const std::function<void(std::ostream &)> &write,
                    const char *caller)
{
    const std::string tmp = path + ".tmp";
    bool written = false;
    try {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        fatalIf(!out, caller, ": cannot open '", tmp, "'");
        write(out);
        out.flush();
        written = static_cast<bool>(out);
        out.close();
        written = written && !out.fail();
    } catch (...) {
        std::remove(tmp.c_str());
        throw;
    }
    const bool durable = written && syncPath(tmp, O_WRONLY) &&
                         std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!durable) {
        std::remove(tmp.c_str());
        fatal(caller, ": write to '", path, "' failed");
    }
    // Make the rename itself durable; the data is already safe, so a
    // directory that cannot be synced is not an error.
    syncPath(directoryOf(path), O_RDONLY | O_DIRECTORY);
}

} // namespace cooper
