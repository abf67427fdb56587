// How tests compare processor states: by their save_state bytes, which are
// also the name the fleet's outcome memo gives a state (fleet::OutcomeCache).
#pragma once

#include <string>

#include "common/serialize.hpp"
#include "hhpim/processor.hpp"

namespace hhpim {

/// `p`'s Processor::save_state bytes.
inline std::string state_bytes(const sys::Processor& p) {
  ByteWriter w;
  p.save_state(w);
  return w.take();
}

}  // namespace hhpim
