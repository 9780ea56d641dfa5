// Tests for the shared package builder (spreader/sink/convection stack).
#include <gtest/gtest.h>

#include "thermal/package_builder.h"
#include "thermal/solver.h"
#include "util/units.h"

namespace hydra::thermal {
namespace {

TEST(PackageBuilder, AddsTenNodes) {
  RcNetwork net;
  const std::size_t die = net.add_node("die", util::JoulesPerKelvin(1.0));
  const PackageNodes nodes = attach_package_nodes(net, 16e-3, 16e-3, {});
  EXPECT_EQ(net.size(), 11u);  // 1 die + 5 spreader + 5 sink
  EXPECT_NE(nodes.spreader_center, die);
  EXPECT_EQ(net.node_name(nodes.sink_center), "sink_center");
}

TEST(PackageBuilder, TotalAmbientConductanceMatchesConvection) {
  RcNetwork net;
  net.add_node("die", util::JoulesPerKelvin(1.0));
  Package pkg;
  pkg.r_convec = util::KelvinPerWatt(0.8);
  attach_package_nodes(net, 16e-3, 16e-3, pkg);
  // The edge terms cancel across G, leaving the ambient ties.
  const Matrix g = net.conductance_matrix();
  double g_sum = 0.0;
  for (std::size_t r = 0; r < g.rows(); ++r) {
    for (std::size_t c = 0; c < g.cols(); ++c) g_sum += g(r, c);
  }
  EXPECT_NEAR(g_sum, 1.0 / 0.8, 1e-9);
}

TEST(PackageBuilder, RejectsNonNestingLayers) {
  RcNetwork net;
  net.add_node("die", util::JoulesPerKelvin(1.0));
  Package pkg;
  pkg.spreader_side_m = 10e-3;  // smaller than the 16 mm die
  EXPECT_THROW(attach_package_nodes(net, 16e-3, 16e-3, pkg),
               std::invalid_argument);
  Package pkg2;
  pkg2.sink_side_m = pkg2.spreader_side_m;  // sink must exceed spreader
  RcNetwork net2;
  net2.add_node("die", util::JoulesPerKelvin(1.0));
  EXPECT_THROW(attach_package_nodes(net2, 16e-3, 16e-3, pkg2),
               std::invalid_argument);
}

TEST(PackageBuilder, CheaperSinkRunsHotter) {
  auto hotspot_for = [](double r_convec) {
    RcNetwork net;
    const std::size_t die = net.add_node("die", util::JoulesPerKelvin(1.0));
    Package pkg;
    pkg.r_convec = util::KelvinPerWatt(r_convec);
    const PackageNodes nodes = attach_package_nodes(net, 16e-3, 16e-3, pkg);
    net.connect(die, nodes.spreader_center,
                die_to_spreader_resistance(16e-3 * 16e-3, pkg));
    Vector p(net.size(), 0.0);
    p[die] = 30.0;
    return steady_state(net, p, util::Celsius(45.0))[die];
  };
  // The paper's low-cost package (1.0 K/W) vs HotSpot's desktop default
  // (0.8): ~30 W should run about 6 K hotter on the cheap sink.
  const double cheap = hotspot_for(1.0);
  const double good = hotspot_for(0.8);
  EXPECT_GT(cheap, good + 4.0);
  EXPECT_LT(cheap, good + 8.0);
}

TEST(PackageBuilder, LateralResistanceFormulaSane) {
  // Doubling thickness halves the lateral resistance; a wider inner
  // region shortens the path and widens the cross-section.
  const util::KelvinPerWatt r1 =
      plate_lateral_resistance(6e-3, 30e-3, 1e-3, 400.0);
  const util::KelvinPerWatt r2 =
      plate_lateral_resistance(6e-3, 30e-3, 2e-3, 400.0);
  EXPECT_NEAR(r1 / r2, 2.0, 1e-9);
  const util::KelvinPerWatt r3 =
      plate_lateral_resistance(20e-3, 30e-3, 1e-3, 400.0);
  EXPECT_LT(r3, r1);
}

TEST(PackageBuilder, DieToSpreaderScalesInverselyWithArea) {
  Package pkg;
  const util::KelvinPerWatt r_small = die_to_spreader_resistance(1e-6, pkg);
  const util::KelvinPerWatt r_big = die_to_spreader_resistance(4e-6, pkg);
  EXPECT_NEAR(r_small / r_big, 4.0, 1e-9);
}

}  // namespace
}  // namespace hydra::thermal
