#include "geo/zorder.h"

namespace stix::geo {

uint64_t ZOrderCurve::XyToD(uint32_t x, uint32_t y) const {
  uint64_t d = 0;
  // Longitude (x) takes the more significant bit of each pair, matching
  // GeoHash, whose first bit splits the world east/west.
  for (int bit = order() - 1; bit >= 0; --bit) {
    d = (d << 1) | ((x >> bit) & 1);
    d = (d << 1) | ((y >> bit) & 1);
  }
  return d;
}

void ZOrderCurve::DToXy(uint64_t d, uint32_t* x, uint32_t* y) const {
  *x = 0;
  *y = 0;
  for (int bit = order() - 1; bit >= 0; --bit) {
    *x = (*x << 1) | static_cast<uint32_t>((d >> (2 * bit + 1)) & 1);
    *y = (*y << 1) | static_cast<uint32_t>((d >> (2 * bit)) & 1);
  }
}

}  // namespace stix::geo
