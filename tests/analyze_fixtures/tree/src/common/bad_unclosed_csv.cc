#include <string>

#include "common/csv.hh"

namespace mnoc {

void
writeHeader(const std::string &path)
{
    CsvWriter csv(path);
    csv.writeRow({"epoch", "energy_j"});
    csv.close();
}

void
writeRows(const std::string &path, double energy_j)
{
    CsvWriter csv(path);
    csv.cell(0LL).cell(energy_j);
    csv.endRow();
}

} // namespace mnoc
