// HotSpot-compatible .flp text export.
//
// Format (one block per line):
//   <name> <width_m> <height_m> <left_m> <bottom_m>
// '#' starts a comment. This matches the de-facto HotSpot floorplan file
// format so floorplans can be handed to existing tooling.
#pragma once

#include <string>

#include "floorplan/floorplan.h"

namespace hydra::floorplan {

/// Serialise to .flp text.
std::string to_flp(const Floorplan& fp);

}  // namespace hydra::floorplan
