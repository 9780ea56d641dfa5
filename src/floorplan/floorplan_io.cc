#include "floorplan/floorplan_io.h"

#include <sstream>

#include "util/csv.h"

namespace hydra::floorplan {

std::string to_flp(const Floorplan& fp) {
  std::ostringstream out;
  out << "# hydra-dtm floorplan: name width height left bottom (metres)\n";
  for (const Block& b : fp.blocks()) {
    out << b.name << '\t' << util::CsvWriter::format_double(b.width) << '\t'
        << util::CsvWriter::format_double(b.height) << '\t'
        << util::CsvWriter::format_double(b.x) << '\t'
        << util::CsvWriter::format_double(b.y) << '\n';
  }
  return out.str();
}

}  // namespace hydra::floorplan
