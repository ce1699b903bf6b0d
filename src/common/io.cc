#include "common/io.hh"

#include "common/log.hh"

namespace mnoc {

FileWriter::FileWriter(const std::string &path, bool binary)
    : path_(path),
      out_(path, binary ? std::ios::out | std::ios::binary
                        : std::ios::out)
{
    fatalIf(!out_.is_open(), "cannot open file for write: " + path_);
}

FileWriter::~FileWriter()
{
    if (closed_)
        return;
    out_.flush();
    if (!out_.good())
        warn("failed writing file (disk full or I/O error): " +
             path_);
}

void
FileWriter::failIfBad()
{
    fatalIf(!out_.good(),
            "failed writing file (disk full or I/O error): " + path_);
}

void
FileWriter::close()
{
    if (closed_)
        return;
    // Marked closed before the checks: a failure is thrown once here,
    // not warned again by the destructor while the throw unwinds.
    closed_ = true;
    out_.flush();
    fatalIf(!out_.good(),
            "failed writing file (disk full or I/O error): " + path_);
    out_.close();
    fatalIf(out_.fail(),
            "failed closing file (disk full or I/O error): " + path_);
}

} // namespace mnoc
