//! Level-of-detail mipmap pyramid over a tile scheme's heat field.
//!
//! At millions of clients, rendering a *coarse* (country-level) tile
//! exactly is the worst case: its extent intersects nearly every
//! NN-circle, so per-tile cost approaches the full sweep. The mipmap
//! inverts the cost profile. The **base level** is rendered once, tile
//! by tile, at a configurable *exact zoom* `ze` — bitwise the stitch of
//! the exact zoom-`ze` tiles — and every coarser level is a 2×2
//! average of the one below. A zoom-`z < ze` tile is then a blit from
//! level `ze - z`: O(tile_px²) regardless of data size.
//!
//! ## The error contract
//!
//! Alongside the mean pyramid, min (`lo`) and max (`hi`) pyramids are
//! maintained over the same blocks, and every mean cell is clamped
//! into its `[lo, hi]` interval. This makes the approximation contract
//! *exact*, not merely bounded by floating-point luck:
//!
//! * every coarse pixel lies within the closed min/max envelope of the
//!   exact base-level pixels it summarizes, and
//! * [`HeatMipmap::tile_error_bound`] reports the largest `hi − lo`
//!   across a tile — a measured, per-tile worst-case deviation a
//!   client can display next to the approximate tile.
//!
//! Tiles at or below the exact zoom never come from the pyramid; the
//! serving layer routes them to the exact renderer, so only tiles
//! *labeled* approximate ever are.
//!
//! Edits stay cheap: [`HeatMipmap::patch`] re-renders only the base
//! tiles a dirty region touches and re-averages the affected cells
//! upward, which is bitwise identical to a fresh build (the exact
//! renderer is deterministic, so untouched tiles re-render to the same
//! pixels they already hold).

use std::collections::BTreeSet;

use rnnhm_geom::Rect;

use crate::ops::blit;
use crate::raster::{GridSpec, HeatRaster};
use crate::tiles::{TileId, TileScheme};

/// A three-pyramid (mean / min / max) summary of the heat field at a
/// fixed base zoom, serving coarse tiles in O(tile_px²).
#[derive(Debug, Clone)]
pub struct HeatMipmap {
    scheme_fp: u64,
    tile_px: usize,
    base_zoom: u8,
    /// `mean[0]` is the exact base (side `tile_px << base_zoom`);
    /// `mean[l]` halves the resolution of `mean[l-1]`. The last level
    /// is a single tile (the zoom-0 world tile).
    mean: Vec<HeatRaster>,
    lo: Vec<HeatRaster>,
    hi: Vec<HeatRaster>,
}

impl HeatMipmap {
    /// Builds the pyramid by rendering every base tile through
    /// `render` (which must produce the scheme's exact `tile_px ×
    /// tile_px` tile for the given id/spec) and averaging upward.
    ///
    /// The base level is *bitwise* the stitch of the rendered tiles,
    /// so a zoom-`base_zoom` tile read back from the pyramid equals
    /// the exact tile — the anchor of the error contract.
    pub fn build(
        scheme: &TileScheme,
        base_zoom: u8,
        mut render: impl FnMut(TileId, GridSpec) -> HeatRaster,
    ) -> HeatMipmap {
        assert!(base_zoom <= scheme.max_zoom(), "base zoom past scheme max");
        let tile_px = scheme.tile_px();
        let n = scheme.n_tiles(base_zoom);
        let side = tile_px << base_zoom;
        let mut base = HeatRaster::new(GridSpec::new(side, side, scheme.world()));
        for ty in 0..n {
            for tx in 0..n {
                let id = TileId { zoom: base_zoom, tx, ty };
                let r = render(id, scheme.tile_spec(id));
                assert_eq!(r.spec.width, tile_px, "renderer produced a wrong-size tile");
                assert_eq!(r.spec.height, tile_px, "renderer produced a wrong-size tile");
                blit(
                    &mut base,
                    &r,
                    (0, 0),
                    (tx as usize * tile_px, ty as usize * tile_px),
                    (tile_px, tile_px),
                );
            }
        }
        let mut m = HeatMipmap {
            scheme_fp: scheme.fingerprint(),
            tile_px,
            base_zoom,
            mean: vec![base.clone()],
            lo: vec![base.clone()],
            hi: vec![base],
        };
        for level in 1..=base_zoom as usize {
            let side = tile_px << (base_zoom as usize - level);
            let spec = GridSpec::new(side, side, scheme.world());
            m.mean.push(HeatRaster::new(spec));
            m.lo.push(HeatRaster::new(spec));
            m.hi.push(HeatRaster::new(spec));
            m.reduce_block(level, 0, side - 1, 0, side - 1);
        }
        m
    }

    /// The zoom level the base was rendered exactly at.
    pub fn base_zoom(&self) -> u8 {
        self.base_zoom
    }

    /// Tile edge in pixels (matches the scheme's).
    pub fn tile_px(&self) -> usize {
        self.tile_px
    }

    /// The mean raster of pyramid level `l` (0 = exact base), for
    /// inspection and contract tests.
    pub fn mean_level(&self, l: usize) -> &HeatRaster {
        &self.mean[l]
    }

    /// Number of pyramid levels (`base_zoom + 1`).
    pub fn n_levels(&self) -> usize {
        self.mean.len()
    }

    /// Re-aggregates the cells `[c0, c1] × [r0, r1]` (inclusive) of
    /// level `level` from level `level - 1`, clamping each mean into
    /// its `[lo, hi]` envelope.
    fn reduce_block(&mut self, level: usize, c0: usize, c1: usize, r0: usize, r1: usize) {
        debug_assert!(level >= 1);
        let (below, above) = self.mean.split_at_mut(level);
        let (src, dst) = (&below[level - 1], &mut above[0]);
        let (lo_below, lo_above) = self.lo.split_at_mut(level);
        let (src_lo, dst_lo) = (&lo_below[level - 1], &mut lo_above[0]);
        let (hi_below, hi_above) = self.hi.split_at_mut(level);
        let (src_hi, dst_hi) = (&hi_below[level - 1], &mut hi_above[0]);
        for r in r0..=r1 {
            for c in c0..=c1 {
                let (a, b) = (src.get(2 * c, 2 * r), src.get(2 * c + 1, 2 * r));
                let (d, e) = (src.get(2 * c, 2 * r + 1), src.get(2 * c + 1, 2 * r + 1));
                let lo = src_lo
                    .get(2 * c, 2 * r)
                    .min(src_lo.get(2 * c + 1, 2 * r))
                    .min(src_lo.get(2 * c, 2 * r + 1))
                    .min(src_lo.get(2 * c + 1, 2 * r + 1));
                let hi = src_hi
                    .get(2 * c, 2 * r)
                    .max(src_hi.get(2 * c + 1, 2 * r))
                    .max(src_hi.get(2 * c, 2 * r + 1))
                    .max(src_hi.get(2 * c + 1, 2 * r + 1));
                // Fixed association, then clamp: floating-point
                // rounding of the average could otherwise escape the
                // envelope by an ulp, and the contract is *closed*
                // containment, not containment-up-to-epsilon.
                let mean = (((a + b) + (d + e)) * 0.25).clamp(lo, hi);
                dst.set(c, r, mean);
                dst_lo.set(c, r, lo);
                dst_hi.set(c, r, hi);
            }
        }
    }

    /// Serves tile `id` (which must be coarser than or at the base
    /// zoom) as a blit from the pyramid: O(tile_px²).
    ///
    /// At `id.zoom == base_zoom` the result is bitwise the exact tile;
    /// coarser tiles are approximate under the error contract.
    pub fn tile(&self, scheme: &TileScheme, id: TileId) -> HeatRaster {
        assert_eq!(scheme.fingerprint(), self.scheme_fp, "mipmap built for a different scheme");
        assert!(id.zoom <= self.base_zoom, "tile finer than the pyramid base");
        let level = (self.base_zoom - id.zoom) as usize;
        let mut out = HeatRaster::new(scheme.tile_spec(id));
        blit(
            &mut out,
            &self.mean[level],
            (id.tx as usize * self.tile_px, id.ty as usize * self.tile_px),
            (0, 0),
            (self.tile_px, self.tile_px),
        );
        out
    }

    /// The measured worst-case deviation of tile `id`: the largest
    /// `max − min` over the exact base pixels summarized by any of the
    /// tile's cells. Zero at the base zoom; grows (weakly) with
    /// coarseness. Finite whenever the field is.
    pub fn tile_error_bound(&self, id: TileId) -> f64 {
        assert!(id.zoom <= self.base_zoom, "tile finer than the pyramid base");
        let level = (self.base_zoom - id.zoom) as usize;
        let (c0, r0) = (id.tx as usize * self.tile_px, id.ty as usize * self.tile_px);
        let mut bound = 0.0f64;
        for r in r0..r0 + self.tile_px {
            for c in c0..c0 + self.tile_px {
                bound = bound.max(self.hi[level].get(c, r) - self.lo[level].get(c, r));
            }
        }
        bound
    }

    /// Incrementally repairs the pyramid after an edit: re-renders the
    /// base tiles whose extent intersects any `dirty` rect (sweep
    /// space must match the scheme's), blits them into the base and
    /// re-averages only the affected cells upward. Returns how many
    /// base tiles were re-rendered.
    ///
    /// Bitwise identical to a fresh [`HeatMipmap::build`] against the
    /// edited arrangement, because the exact renderer is deterministic
    /// on untouched tiles.
    pub fn patch(
        &mut self,
        scheme: &TileScheme,
        dirty: &[Rect],
        mut render: impl FnMut(TileId, GridSpec) -> HeatRaster,
    ) -> usize {
        assert_eq!(scheme.fingerprint(), self.scheme_fp, "mipmap built for a different scheme");
        let n = scheme.n_tiles(self.base_zoom);
        let mut touched: BTreeSet<(u32, u32)> = BTreeSet::new();
        for ty in 0..n {
            for tx in 0..n {
                let id = TileId { zoom: self.base_zoom, tx, ty };
                let ext = scheme.tile_extent(id);
                if dirty.iter().any(|d| d.intersects(&ext)) {
                    touched.insert((tx, ty));
                }
            }
        }
        for &(tx, ty) in &touched {
            let id = TileId { zoom: self.base_zoom, tx, ty };
            let r = render(id, scheme.tile_spec(id));
            let (c0, r0) = (tx as usize * self.tile_px, ty as usize * self.tile_px);
            blit(&mut self.mean[0], &r, (0, 0), (c0, r0), (self.tile_px, self.tile_px));
            blit(&mut self.lo[0], &r, (0, 0), (c0, r0), (self.tile_px, self.tile_px));
            blit(&mut self.hi[0], &r, (0, 0), (c0, r0), (self.tile_px, self.tile_px));
            for level in 1..self.n_levels() {
                let (cl0, cl1) = (c0 >> level, (c0 + self.tile_px - 1) >> level);
                let (rl0, rl1) = (r0 >> level, (r0 + self.tile_px - 1) >> level);
                self.reduce_block(level, cl0, cl1, rl0, rl1);
            }
        }
        touched.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnnhm_geom::Point;

    fn scheme() -> TileScheme {
        TileScheme::for_extent(Rect::new(0.0, 8.0, 0.0, 8.0), 8)
    }

    /// A deterministic synthetic "renderer": pixel value is a hash-ish
    /// function of the exact pixel center, so identical specs always
    /// produce identical rasters (like the real exact renderer).
    fn fake_render(_id: TileId, spec: GridSpec) -> HeatRaster {
        let mut r = HeatRaster::new(spec);
        for row in 0..spec.height {
            for col in 0..spec.width {
                let p = spec.pixel_center(col, row);
                let v = (p.x * 3.7).sin() * 2.0 + (p.y * 1.3).cos() + p.x * 0.1;
                r.set(col, row, v);
            }
        }
        r
    }

    #[test]
    fn base_level_is_bitwise_the_exact_tiles() {
        let s = scheme();
        let m = HeatMipmap::build(&s, 2, fake_render);
        for ty in 0..s.n_tiles(2) {
            for tx in 0..s.n_tiles(2) {
                let id = TileId { zoom: 2, tx, ty };
                let exact = fake_render(id, s.tile_spec(id));
                let got = m.tile(&s, id);
                assert_eq!(got.values(), exact.values(), "base tile {id} differs");
                assert_eq!(m.tile_error_bound(id), 0.0, "base tiles are exact");
            }
        }
    }

    #[test]
    fn coarse_cells_are_clamped_averages_of_children() {
        let s = scheme();
        let m = HeatMipmap::build(&s, 2, fake_render);
        for level in 1..m.n_levels() {
            let coarse = m.mean_level(level);
            let fine = m.mean_level(level - 1);
            for r in 0..coarse.spec.height {
                for c in 0..coarse.spec.width {
                    let (a, b) = (fine.get(2 * c, 2 * r), fine.get(2 * c + 1, 2 * r));
                    let (d, e) = (fine.get(2 * c, 2 * r + 1), fine.get(2 * c + 1, 2 * r + 1));
                    let lo = a.min(b).min(d).min(e);
                    let hi = a.max(b).max(d).max(e);
                    let want = (((a + b) + (d + e)) * 0.25).clamp(lo, hi);
                    assert_eq!(coarse.get(c, r), want, "level {level} cell ({c},{r})");
                }
            }
        }
    }

    #[test]
    fn coarse_pixels_stay_inside_the_base_envelope() {
        let s = scheme();
        let m = HeatMipmap::build(&s, 2, fake_render);
        let base = m.mean_level(0);
        let id = TileId { zoom: 0, tx: 0, ty: 0 };
        let coarse = m.tile(&s, id);
        let factor = 1usize << 2;
        let mut worst = 0.0f64;
        for r in 0..coarse.spec.height {
            for c in 0..coarse.spec.width {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for dy in 0..factor {
                    for dx in 0..factor {
                        let v = base.get(c * factor + dx, r * factor + dy);
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
                let v = coarse.get(c, r);
                // Closed containment, no epsilon.
                assert!(v >= lo && v <= hi, "cell ({c},{r}): {v} outside [{lo},{hi}]");
                worst = worst.max(hi - lo);
            }
        }
        assert_eq!(m.tile_error_bound(id), worst, "reported bound must be the measured one");
    }

    #[test]
    fn patch_matches_fresh_build_bitwise() {
        let s = scheme();
        // "Edit": the field changes inside a dirty rect; a real engine
        // re-renders from the edited arrangement, modeled here by a
        // second renderer that perturbs values within the rect only.
        let dirty = Rect::new(2.2, 3.4, 4.1, 5.7);
        let edited = move |id: TileId, spec: GridSpec| {
            let mut r = fake_render(id, spec);
            for row in 0..spec.height {
                for col in 0..spec.width {
                    if dirty.contains_closed(spec.pixel_center(col, row)) {
                        let v = r.get(col, row);
                        r.set(col, row, v + 5.0);
                    }
                }
            }
            r
        };
        let mut patched = HeatMipmap::build(&s, 2, fake_render);
        let n_redrawn = patched.patch(&s, &[dirty], edited);
        assert!(n_redrawn >= 1 && n_redrawn < (s.n_tiles(2) * s.n_tiles(2)) as usize);
        let fresh = HeatMipmap::build(&s, 2, edited);
        for level in 0..fresh.n_levels() {
            assert_eq!(
                patched.mean_level(level).values(),
                fresh.mean_level(level).values(),
                "patched pyramid diverges from fresh build at level {level}"
            );
        }
        for &(tx, ty) in &[(0u32, 0u32), (1, 1)] {
            let id = TileId { zoom: 1, tx, ty };
            assert_eq!(patched.tile_error_bound(id), fresh.tile_error_bound(id));
        }
    }

    #[test]
    fn tile_geometry_matches_scheme() {
        let s = scheme();
        let m = HeatMipmap::build(&s, 2, fake_render);
        let id = TileId { zoom: 1, tx: 1, ty: 0 };
        let t = m.tile(&s, id);
        assert_eq!(t.spec, s.tile_spec(id));
        assert!(s
            .world()
            .contains_closed(Point::new(t.spec.extent.x_lo + 1e-12, t.spec.extent.y_lo + 1e-12)));
    }
}
