#include "congest/message.hpp"

namespace decycle::congest {

std::uint64_t MessageReader::get_u64() {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    DECYCLE_CHECK_MSG(pos_ < bytes_.size(), "message underflow");
    const std::uint8_t byte = bytes_[pos_++];
    DECYCLE_CHECK_MSG(shift < 64, "varint too long");
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

}  // namespace decycle::congest
