//! `tile_bench` — tile-pyramid exploration benchmark, emitting
//! `BENCH_tiles.json`.
//!
//! ```text
//! cargo run --release -p rnnhm_bench --bin tile_bench [--quick] [out.json]
//! ```
//!
//! The full run measures the ISSUE 2 acceptance configuration — a
//! 1024×1024 viewport over n = 100k Uniform clients, 256-pixel tiles,
//! count measure: a cold viewport (empty cache), a quarter-width jump
//! (75% overlap), a 16-step drag across a full viewport width (each
//! frame ≥ 93% tile overlap), and an uncached one-shot scanline
//! re-render of the final viewport for comparison. The acceptance bar
//! is a warm-cache pan ≥ 3× faster than the full re-render,
//! bit-identical output. `--quick` shrinks the grid for CI-scale runs.

use rnnhm_bench::runner::cli;
use rnnhm_bench::tiles::{compare_tile_paths, write_tiles_json, TileComparison};

fn main() {
    let (quick, out) = cli("BENCH_tiles.json");

    // (n_clients, viewport px, tile px)
    let configs: &[(usize, usize, usize)] = if quick {
        &[(10_000, 256, 64)]
    } else {
        &[(10_000, 512, 256), (100_000, 512, 256), (100_000, 1024, 256)]
    };

    let mut runs: Vec<TileComparison> = Vec::new();
    for &(n, px, tile) in configs {
        eprintln!("running n={n}, view={px}x{px}, tile={tile} ...");
        let r = compare_tile_paths(n, 16, px, tile, 42);
        eprintln!(
            "  cold {:.1} ms | jump {:.1} ms | drag step {:.1} ms | full re-render {:.1} ms | \
             pan speedup {:.1}x (jump {:.1}x) | tiles: {} jump, {} over drag, {} per view | \
             identical: {}",
            r.cold_ms,
            r.warm_jump_ms,
            r.warm_pan_ms,
            r.full_ms,
            r.speedup_warm_vs_full,
            r.speedup_jump_vs_full,
            r.tiles_rendered_jump,
            r.tiles_rendered_drag,
            r.tiles_total,
            r.identical
        );
        eprintln!(
            "  payloads: {:.0} bytes/tile ({} quantized / {} exact bytes) | \
             effective capacity {} tiles",
            r.bytes_per_tile, r.bytes_quantized, r.bytes_exact, r.effective_capacity_tiles
        );
        assert!(r.identical, "stitched viewport diverged from one-shot at n={n}, {px}x{px}");
        runs.push(r);
    }

    write_tiles_json(&out, &runs).expect("write json");
    eprintln!("wrote {out}");
}
