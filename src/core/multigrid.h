#pragma once
// The multi-grid Landau operator (§III-H) is LandauOperator built with a
// finite clustering ratio; this name remains for code that includes it.

#include "core/operator.h"

namespace landau {

using MultiGridLandauOperator = LandauOperator;

} // namespace landau
