//! Raster-path benchmarking: scanline vs per-pixel oracle vs the
//! count-only superimposition, with a JSON emitter for `BENCH_raster.json`.
//!
//! The scanline engine's acceptance bar (ISSUE 1) is ≥ 5× over the
//! per-pixel-stab oracle at a 1024×1024 grid with n = 100k clients,
//! outputs bit-identical. The [`compare_raster_paths_k`] runner measures
//! exactly that configuration (and any smaller one) on the Uniform
//! dataset, and [`write_raster_json`] records the numbers.

use std::io::Write as _;

use rnnhm_core::measure::CountMeasure;
use rnnhm_geom::{Metric, Rect};
use rnnhm_heatmap::compute::{
    rasterize_count_squares_fast, rasterize_squares, rasterize_squares_oracle,
};
use rnnhm_heatmap::GridSpec;

use crate::runner::{bit_identical, ms, square_arrangement_k, write_bench_json};
use crate::workload::{build_workload, DatasetKind};

/// Wall-clock results of one raster comparison run.
#[derive(Debug, Clone)]
pub struct RasterComparison {
    /// Number of clients (NN-circles before zero-radius drops).
    pub n_clients: usize,
    /// The RkNN `k` of the arrangement (1 = plain RNN; larger `k`
    /// means larger, denser circles — the overlap-stress sweep).
    pub k: usize,
    /// Grid width and height in pixels.
    pub grid: (usize, usize),
    /// Worker threads available to the scanline path.
    pub threads: usize,
    /// Per-pixel-stab oracle milliseconds.
    pub oracle_ms: f64,
    /// Scanline engine milliseconds.
    pub scanline_ms: f64,
    /// Count-only superimposition milliseconds (lower bound; not
    /// measure-generic).
    pub fast_count_ms: f64,
    /// `oracle_ms / scanline_ms`.
    pub speedup: f64,
    /// Whether the scanline raster was bit-identical to the oracle.
    pub identical: bool,
}

/// Times the three raster paths on a Uniform workload under the count
/// measure at RkNN depth `k` and verifies scanline/oracle
/// bit-identity.
///
/// The arrangement build is untimed (the paper's convention: NN-circles
/// are precomputed). `ratio` is `|O|/|F|` as in the paper's sweeps.
/// Circles grow to the `k`-th NN distance, so overlap density — the
/// scanline engine's stress axis — rises with `k` while the oracle's
/// per-pixel stab cost rises with it too.
pub fn compare_raster_paths_k(
    n_clients: usize,
    ratio: usize,
    width: usize,
    height: usize,
    seed: u64,
    k: usize,
) -> RasterComparison {
    let w = build_workload(DatasetKind::Uniform, n_clients, ratio, seed);
    let arr = square_arrangement_k(&w, Metric::Linf, k);
    let extent = Rect::new(0.0, 1.0, 0.0, 1.0);
    let spec = GridSpec::new(width, height, extent);

    let start = rnnhm_core::clock::now();
    let scan = rasterize_squares(&arr, &CountMeasure, spec);
    let scanline_ms = ms(start);

    let start = rnnhm_core::clock::now();
    let oracle = rasterize_squares_oracle(&arr, &CountMeasure, spec);
    let oracle_ms = ms(start);

    let start = rnnhm_core::clock::now();
    let fast = rasterize_count_squares_fast(&arr, spec);
    let fast_count_ms = ms(start);
    // The superimposition bins shape *edges* to pixels rather than
    // testing centers exactly, so it is compared for scale, not bits.
    let _ = fast;

    RasterComparison {
        n_clients,
        k,
        grid: (width, height),
        threads: rnnhm_core::parallel::effective_parallelism(),
        oracle_ms,
        scanline_ms,
        fast_count_ms,
        speedup: oracle_ms / scanline_ms,
        identical: bit_identical(&scan, &oracle),
    }
}

/// Writes comparison results as JSON (hand-rolled; the environment has
/// no serde) to `path`.
pub fn write_raster_json(path: &str, runs: &[RasterComparison]) -> std::io::Result<()> {
    let header: &[&str] = &[
        "\"benchmark\": \"scanline raster vs per-pixel oracle\"",
        "\"measure\": \"count\"",
        "\"dataset\": \"Uniform\"",
    ];
    write_bench_json(path, header, runs, |f, r| {
        writeln!(f, "      \"n_clients\": {},", r.n_clients)?;
        writeln!(f, "      \"k\": {},", r.k)?;
        writeln!(f, "      \"grid\": [{}, {}],", r.grid.0, r.grid.1)?;
        writeln!(f, "      \"threads\": {},", r.threads)?;
        writeln!(f, "      \"oracle_ms\": {:.3},", r.oracle_ms)?;
        writeln!(f, "      \"scanline_ms\": {:.3},", r.scanline_ms)?;
        writeln!(f, "      \"fast_count_ms\": {:.3},", r.fast_count_ms)?;
        writeln!(f, "      \"speedup_oracle_over_scanline\": {:.2},", r.speedup)?;
        writeln!(f, "      \"bit_identical\": {}", r.identical)?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_comparison_runs_and_agrees() {
        let r = compare_raster_paths_k(512, 16, 64, 64, 7, 1);
        assert!(r.identical, "scanline must match the oracle bit for bit");
        assert!(r.oracle_ms > 0.0 && r.scanline_ms > 0.0);
        assert_eq!(r.k, 1);
    }

    #[test]
    fn k_sweep_comparison_runs_and_agrees() {
        for k in [4usize, 16] {
            let r = compare_raster_paths_k(512, 16, 48, 48, 7, k);
            assert!(r.identical, "k={k}: scanline must match the oracle bit for bit");
            assert_eq!(r.k, k);
        }
    }

    #[test]
    fn json_emitter_produces_valid_shape() {
        let r = compare_raster_paths_k(128, 8, 32, 32, 9, 1);
        let path = std::env::temp_dir().join("bench_raster_test.json");
        let path = path.to_str().unwrap();
        write_raster_json(path, &[r]).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"bit_identical\": true"));
        assert!(body.trim_start().starts_with('{') && body.trim_end().ends_with('}'));
        std::fs::remove_file(path).ok();
    }
}
