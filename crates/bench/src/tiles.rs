//! Tile-pyramid benchmarking: cold viewport vs warm pans vs full
//! re-render, with a JSON emitter for `BENCH_tiles.json`.
//!
//! The exploration scenario (ISSUE 2): an analyst opens a 1024×1024
//! viewport (cold — every tile renders), *jumps* east by a quarter of
//! the viewport (75% area overlap — one or two tile columns render),
//! then *drags* east across a full viewport width in 16 smooth steps
//! (each step ≥ 93% tile overlap with the previous frame; most steps
//! re-render nothing, a tile column renders each time the window
//! crosses a tile boundary). Every warm frame is compared against an
//! uncached one-shot scanline render of the same viewport spec — the
//! pre-tile full-frame path. The acceptance bar is a warm-cache pan at
//! least **3×** faster than the full re-render, bit-identical output.

use std::io::Write as _;

use rnnhm_core::measure::{CountMeasure, InfluenceMeasure};
use rnnhm_core::parallel::effective_parallelism;
use rnnhm_geom::{Metric, Rect};
use rnnhm_heatmap::compute::rasterize_squares;
use rnnhm_heatmap::quant::TilePayload;
use rnnhm_heatmap::scanline::rasterize_squares_scanline_bands;
use rnnhm_heatmap::tiles::{TileCache, TileScheme};

use crate::runner::{bit_identical, ms, square_arrangement, write_bench_json};
use crate::workload::{build_workload, DatasetKind};

/// Number of drag steps; together they pan one full viewport width.
const DRAG_STEPS: usize = 16;

/// Tile cache capacity for the scenario.
const CACHE_BYTES: usize = 256 << 20;

/// Scenario repetitions: each rep replays the whole exploration on a
/// fresh cache, and the reported timings are per-metric **medians**
/// across reps — one slow rep (page-cache pressure, a background
/// task) can't skew the recorded numbers.
const REPS: usize = 3;

/// Wall-clock results of one tile-pyramid exploration run.
#[derive(Debug, Clone)]
pub struct TileComparison {
    /// Number of clients (NN-circles before zero-radius drops).
    pub n_clients: usize,
    /// Requested viewport pixel budget per axis.
    pub view_px: usize,
    /// Tile edge in pixels.
    pub tile_px: usize,
    /// Worker threads available to tile rendering.
    pub threads: usize,
    /// First viewport, empty cache: render every covering tile + stitch.
    /// Median over `REPS` fresh-cache repetitions.
    pub cold_ms: f64,
    /// Quarter-viewport jump (75% area overlap): cached tiles plus the
    /// newly exposed tile columns, stitched. Median over `REPS`.
    pub warm_jump_ms: f64,
    /// Mean per-frame time over the 16-step drag (each step ≥ 93% tile
    /// overlap with the previous frame) — the headline warm-pan cost.
    /// Median over `REPS`.
    pub warm_pan_ms: f64,
    /// Uncached one-shot scanline render of the final viewport's spec
    /// (the pre-tile full-frame path). Median over `REPS`.
    pub full_ms: f64,
    /// `full_ms / warm_pan_ms` — the acceptance metric.
    pub speedup_warm_vs_full: f64,
    /// `full_ms / warm_jump_ms`, for the boundary-crossing jump.
    pub speedup_jump_vs_full: f64,
    /// Tiles covering one viewport.
    pub tiles_total: usize,
    /// Tiles rendered during the jump (cache misses).
    pub tiles_rendered_jump: usize,
    /// Tiles rendered across the whole 16-step drag.
    pub tiles_rendered_drag: usize,
    /// Cache hits accumulated over the scenario.
    pub cache_hits: u64,
    /// Cache misses accumulated over the scenario.
    pub cache_misses: u64,
    /// Mean bytes a cached tile occupies (payload + entry overhead):
    /// quantized count tiles sit near 2 bytes/pixel, raw `f64` tiles
    /// at 8.
    pub bytes_per_tile: f64,
    /// Cached bytes held in compact quantized payloads.
    pub bytes_quantized: usize,
    /// Cached bytes held in raw `f64` payloads.
    pub bytes_exact: usize,
    /// Tiles the cache could hold at the observed mean payload size —
    /// the *effective* capacity quantization buys.
    pub effective_capacity_tiles: usize,
    /// Whether the final stitched frame was bit-identical to the
    /// one-shot render of the same spec.
    pub identical: bool,
}

/// Runs the exploration scenario on a Uniform workload under the count
/// measure: cold viewport, quarter-viewport jump, 16-step drag, and the
/// uncached one-shot comparison. `ratio` is `|O|/|F|` as in the
/// paper's sweeps.
pub fn compare_tile_paths(
    n_clients: usize,
    ratio: usize,
    view_px: usize,
    tile_px: usize,
    seed: u64,
) -> TileComparison {
    let w = build_workload(DatasetKind::Uniform, n_clients, ratio, seed);
    let arr = square_arrangement(&w, Metric::Linf);
    let scheme = TileScheme::for_extent(arr.bbox().expect("non-empty arrangement"), tile_px);
    let (arr_key, measure_key) = (arr.fingerprint(), CountMeasure.cache_key());
    let shift =
        |rect: Rect, dx: f64| Rect::new(rect.x_lo + dx, rect.x_hi + dx, rect.y_lo, rect.y_hi);

    // One full scenario repetition on a fresh cache: cold viewport,
    // quarter-viewport jump, 16-step drag, one-shot comparison.
    // Returns the timings plus the rep's cache + identity facts (the
    // scenario is deterministic, so those agree across reps).
    let run_rep = || {
        let cache = TileCache::new(CACHE_BYTES);
        // Tile rendering goes through the same two-stage restriction
        // path the facade uses (`TileCache::fetch_restricted`), so the
        // bench measures the production serving pipeline.
        let frame = |rect: Rect| {
            let view = scheme.viewport(rect, view_px, view_px);
            let tiles = cache.fetch_restricted(
                arr_key,
                measure_key,
                &scheme,
                view.tiles(),
                |extent| arr.restrict_to(extent),
                |base, _, spec| {
                    let sub = base.restrict_to(spec.extent);
                    let raster = rasterize_squares_scanline_bands(&sub, &CountMeasure, spec, 1);
                    // Count tiles are integer-valued: the integral hint
                    // steers them to the affine payload, whose decode is
                    // a vectorizable convert+FMA (the facade passes the
                    // same hint via
                    // `InfluenceMeasure::integral_influence`).
                    TilePayload::encode(raster, CountMeasure.integral_influence())
                },
            );
            let raster = view.stitch(&scheme, &tiles);
            (view, raster)
        };

        // Cold viewport over the west of the data extent, sized so the
        // whole jump + drag path stays inside the populated unit square
        // (total travel = side/4 + side = 0.5 world units eastward).
        //
        // Frames are dropped as soon as they are "displayed" (like a
        // real render loop hands its buffer to the screen); holding
        // several viewport-sized buffers alive would make every stitch
        // allocate fresh pages instead of reusing warm ones.
        let side = 0.4;
        let view_a = Rect::new(0.05, 0.05 + side, 0.1, 0.1 + side);
        let start = rnnhm_core::clock::now();
        let (a, raster_a) = frame(view_a);
        let cold_ms = ms(start);
        assert!(raster_a.spec.width >= view_px, "viewport must meet the pixel budget");
        let tiles_total = a.tiles().len();
        drop((a, raster_a));

        // Jump: a quarter of the viewport east — 75% area overlap, so
        // one or two newly exposed tile columns render.
        let before = cache.stats();
        let start = rnnhm_core::clock::now();
        let frame_b = frame(shift(view_a, side / 4.0));
        let warm_jump_ms = ms(start);
        let tiles_rendered_jump = (cache.stats().misses - before.misses) as usize;
        drop(frame_b);

        // Drag: one full viewport width east in DRAG_STEPS smooth
        // steps. Every frame shares ≥ 93% of its tiles with the
        // previous one; a tile column renders only when the window
        // crosses a boundary.
        let before = cache.stats();
        let step = side / DRAG_STEPS as f64;
        let mut rect = shift(view_a, side / 4.0);
        let start = rnnhm_core::clock::now();
        for _ in 0..DRAG_STEPS - 1 {
            rect = shift(rect, step);
            drop(frame(rect));
        }
        rect = shift(rect, step);
        let (_, raster_last) = frame(rect);
        let warm_pan_ms = ms(start) / DRAG_STEPS as f64;
        let tiles_rendered_drag = (cache.stats().misses - before.misses) as usize;

        // The uncached comparison: one-shot scanline render of the
        // exact spec the final warm frame produced (the pre-tile
        // full-frame path, identical output required).
        let start = rnnhm_core::clock::now();
        let one_shot = rasterize_squares(&arr, &CountMeasure, raster_last.spec);
        let full_ms = ms(start);

        let identical = bit_identical(&raster_last, &one_shot);
        (
            [cold_ms, warm_jump_ms, warm_pan_ms, full_ms],
            tiles_total,
            tiles_rendered_jump,
            tiles_rendered_drag,
            cache.stats(),
            identical,
        )
    };

    let mut times: Vec<[f64; 4]> = Vec::with_capacity(REPS);
    let mut last = run_rep();
    times.push(last.0);
    for _ in 1..REPS {
        last = run_rep();
        times.push(last.0);
    }
    let (_, tiles_total, tiles_rendered_jump, tiles_rendered_drag, stats, identical) = last;
    // Per-metric median across reps (REPS is odd, so this is an
    // element of the sample, not an interpolation).
    let median = |k: usize| {
        let mut v: Vec<f64> = times.iter().map(|t| t[k]).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (cold_ms, warm_jump_ms, warm_pan_ms, full_ms) =
        (median(0), median(1), median(2), median(3));
    let bytes_per_tile =
        if stats.entries > 0 { stats.bytes as f64 / stats.entries as f64 } else { 0.0 };
    TileComparison {
        n_clients,
        view_px,
        tile_px,
        threads: effective_parallelism(),
        cold_ms,
        warm_jump_ms,
        warm_pan_ms,
        full_ms,
        speedup_warm_vs_full: full_ms / warm_pan_ms,
        speedup_jump_vs_full: full_ms / warm_jump_ms,
        tiles_total,
        tiles_rendered_jump,
        tiles_rendered_drag,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        bytes_per_tile,
        bytes_quantized: stats.bytes_quantized,
        bytes_exact: stats.bytes_exact,
        effective_capacity_tiles: if bytes_per_tile > 0.0 {
            (CACHE_BYTES as f64 / bytes_per_tile) as usize
        } else {
            0
        },
        identical,
    }
}

/// Writes comparison results as JSON (hand-rolled; the environment has
/// no serde) to `path`.
pub fn write_tiles_json(path: &str, runs: &[TileComparison]) -> std::io::Result<()> {
    let header: &[&str] = &[
        "\"benchmark\": \"tile pyramid: cold viewport vs warm pans vs full re-render\"",
        "\"measure\": \"count\"",
        "\"dataset\": \"Uniform\"",
        "\"jump_overlap\": 0.75",
        &format!("\"drag_steps\": {DRAG_STEPS}"),
        &format!("\"reps\": {REPS}"),
        "\"timing\": \"per-metric median across reps\"",
    ];
    write_bench_json(path, header, runs, |f, r| {
        writeln!(f, "      \"n_clients\": {},", r.n_clients)?;
        writeln!(f, "      \"view_px\": {},", r.view_px)?;
        writeln!(f, "      \"tile_px\": {},", r.tile_px)?;
        writeln!(f, "      \"threads\": {},", r.threads)?;
        writeln!(f, "      \"cold_viewport_ms\": {:.3},", r.cold_ms)?;
        writeln!(f, "      \"warm_jump_pan_ms\": {:.3},", r.warm_jump_ms)?;
        writeln!(f, "      \"warm_pan_ms\": {:.3},", r.warm_pan_ms)?;
        writeln!(f, "      \"full_rerender_ms\": {:.3},", r.full_ms)?;
        writeln!(f, "      \"speedup_warm_vs_full\": {:.2},", r.speedup_warm_vs_full)?;
        writeln!(f, "      \"speedup_jump_vs_full\": {:.2},", r.speedup_jump_vs_full)?;
        writeln!(f, "      \"tiles_total\": {},", r.tiles_total)?;
        writeln!(f, "      \"tiles_rendered_jump\": {},", r.tiles_rendered_jump)?;
        writeln!(f, "      \"tiles_rendered_drag\": {},", r.tiles_rendered_drag)?;
        writeln!(f, "      \"cache_hits\": {},", r.cache_hits)?;
        writeln!(f, "      \"cache_misses\": {},", r.cache_misses)?;
        writeln!(f, "      \"bytes_per_tile\": {:.1},", r.bytes_per_tile)?;
        writeln!(f, "      \"bytes_quantized\": {},", r.bytes_quantized)?;
        writeln!(f, "      \"bytes_exact\": {},", r.bytes_exact)?;
        writeln!(f, "      \"effective_capacity_tiles\": {},", r.effective_capacity_tiles)?;
        writeln!(f, "      \"bit_identical\": {}", r.identical)?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tile_comparison_runs_and_agrees() {
        let r = compare_tile_paths(512, 16, 128, 32, 7);
        assert!(r.identical, "stitched viewport must match the one-shot render bit for bit");
        assert!(
            r.tiles_rendered_drag < DRAG_STEPS * r.tiles_total,
            "drag frames must reuse cached tiles"
        );
        assert!(r.cache_hits > 0, "warm frames must hit the cache");
        assert!(r.cold_ms > 0.0 && r.warm_pan_ms > 0.0 && r.full_ms > 0.0);
        // Count tiles are integral, so every cached payload should
        // have taken a compact form: the mean cached tile must sit
        // well under the 8 bytes/pixel of a raw f64 tile.
        assert_eq!(r.bytes_exact, 0, "count tiles must all quantize");
        assert!(r.bytes_quantized > 0, "cache must hold quantized payloads");
        let raw = (r.tile_px * r.tile_px * 8) as f64;
        assert!(
            r.bytes_per_tile < raw / 2.0,
            "quantized tiles must at least halve the payload ({} vs raw {raw})",
            r.bytes_per_tile
        );
    }

    #[test]
    fn tiles_json_emitter_produces_valid_shape() {
        let r = compare_tile_paths(128, 8, 64, 16, 9);
        let path = std::env::temp_dir().join("bench_tiles_test.json");
        let path = path.to_str().unwrap();
        write_tiles_json(path, &[r]).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"bit_identical\": true"));
        assert!(body.trim_start().starts_with('{') && body.trim_end().ends_with('}'));
        std::fs::remove_file(path).ok();
    }
}
