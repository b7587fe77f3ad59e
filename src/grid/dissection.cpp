#include "pil/grid/dissection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pil::grid {

Dissection::Dissection(const geom::Rect& die, double window_um, int r)
    : die_(die), window_um_(window_um), r_(r) {
  PIL_REQUIRE(!die.empty(), "dissection of empty die");
  PIL_REQUIRE(window_um > 0, "window size must be positive");
  PIL_REQUIRE(r >= 1, "dissection parameter r must be >= 1");
  PIL_REQUIRE(window_um <= std::min(die.width(), die.height()),
              "window larger than die");
  tile_um_ = window_um / r;
  const double nx = std::ceil(die.width() / tile_um_ - geom::kEps);
  const double ny = std::ceil(die.height() / tile_um_ - geom::kEps);
  // Tile indices are ints; a die this large for its tile size would
  // overflow num_tiles() long before any grid could be allocated.
  PIL_REQUIRE(nx * ny <= std::numeric_limits<int>::max(),
              "die too large for the window size: tile count exceeds int");
  tiles_x_ = static_cast<int>(nx);
  tiles_y_ = static_cast<int>(ny);
  PIL_ASSERT(tiles_x_ >= r_ && tiles_y_ >= r_, "die smaller than one window");
}

geom::Rect Dissection::tile_rect(TileIndex t) const {
  PIL_REQUIRE(t.ix >= 0 && t.ix < tiles_x_ && t.iy >= 0 && t.iy < tiles_y_,
              "tile index out of range");
  const double x0 = die_.xlo + t.ix * tile_um_;
  const double y0 = die_.ylo + t.iy * tile_um_;
  return geom::Rect{x0, y0, std::min(x0 + tile_um_, die_.xhi),
                    std::min(y0 + tile_um_, die_.yhi)};
}

TileIndex Dissection::tile_at(const geom::Point& p) const {
  PIL_REQUIRE(die_.contains(p), "point outside die");
  int ix = static_cast<int>(std::floor((p.x - die_.xlo) / tile_um_));
  int iy = static_cast<int>(std::floor((p.y - die_.ylo) / tile_um_));
  ix = std::clamp(ix, 0, tiles_x_ - 1);
  iy = std::clamp(iy, 0, tiles_y_ - 1);
  return TileIndex{ix, iy};
}

bool Dissection::tiles_overlapping(const geom::Rect& rect, TileIndex& lo,
                                   TileIndex& hi) const {
  const geom::Rect ov = geom::intersect(rect, die_);
  if (ov.empty() || ov.width() <= 0 || ov.height() <= 0) {
    // Degenerate overlaps (zero area) still map to the tile(s) they touch;
    // callers that need area will get zero. Report emptiness only when
    // there is no intersection at all.
    if (ov.empty()) return false;
  }
  lo = tile_at(geom::Point{ov.xlo, ov.ylo});
  // The high corner may sit exactly on a tile boundary; nudge inward so the
  // range does not include an extra zero-overlap tile row/column.
  const double xh = std::max(ov.xhi - geom::kEps, ov.xlo);
  const double yh = std::max(ov.yhi - geom::kEps, ov.ylo);
  hi = tile_at(geom::Point{xh, yh});
  return true;
}

geom::Rect Dissection::window_rect(int wx, int wy) const {
  PIL_REQUIRE(wx >= 0 && wx < windows_x() && wy >= 0 && wy < windows_y(),
              "window index out of range");
  const double x0 = die_.xlo + wx * tile_um_;
  const double y0 = die_.ylo + wy * tile_um_;
  return geom::Rect{x0, y0, std::min(x0 + window_um_, die_.xhi),
                    std::min(y0 + window_um_, die_.yhi)};
}

}  // namespace pil::grid
