#include "energy/area_model.hpp"

#include <gtest/gtest.h>


namespace chainnn::energy {
namespace {

TEST(AreaModel, ScalesLinearlyWithPes) {
  const AreaModel m;
  const double g1 = m.total_gates(576);
  const double g2 = m.total_gates(1152);
  EXPECT_NEAR((g2 - m.control_overhead_gates) /
                  (g1 - m.control_overhead_gates),
              2.0, 1e-9);
}

TEST(TechScaling, IdentityAtSameNode) {
  EXPECT_DOUBLE_EQ(scale_efficiency_to_node(100.0, 28.0, 28.0), 100.0);
}

TEST(TechScaling, RejectsBadNodes) {
  EXPECT_THROW((void)scale_efficiency_to_node(1.0, 0.0, 28.0),
               std::logic_error);
}

}  // namespace
}  // namespace chainnn::energy
