#include "dataflow/array_shape.hpp"

#include <sstream>

namespace chainnn::dataflow {

std::string ArrayShape::to_string() const {
  std::ostringstream os;
  os << num_pes << " PEs @ " << clock_hz / 1e6 << " MHz, "
     << kmem_words_per_pe << " kernel words/PE, "
     << (dual_channel ? "dual" : "single") << "-channel, "
     << pipeline_stages << "-stage MAC";
  return os.str();
}

}  // namespace chainnn::dataflow
