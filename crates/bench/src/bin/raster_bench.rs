//! `raster_bench` — single-shot raster-path comparison, emitting
//! `BENCH_raster.json`.
//!
//! ```text
//! cargo run --release -p rnnhm_bench --bin raster_bench [--quick] [out.json]
//! ```
//!
//! The full run measures the ISSUE 1 acceptance configuration —
//! 1024×1024 pixels, n = 100k clients, Uniform dataset, count measure —
//! plus two smaller points for scaling context, then sweeps the RkNN
//! depth k ∈ {4, 16} at the top configuration (k-NN circles are larger
//! and denser, the scanline engine's overlap-stress axis), verifying at
//! every point that the scanline raster is bit-identical to the
//! per-pixel oracle. `--quick` shrinks the grid for CI-scale runs but
//! keeps the full k ∈ {1, 4, 16} sweep.

use rnnhm_bench::raster::{compare_raster_paths_k, write_raster_json, RasterComparison};
use rnnhm_bench::runner::cli;

fn main() {
    let (quick, out) = cli("BENCH_raster.json");

    // (n_clients, grid px, k)
    let configs: &[(usize, usize, usize)] = if quick {
        &[(10_000, 256, 1), (10_000, 256, 4), (10_000, 256, 16)]
    } else {
        &[
            (10_000, 512, 1),
            (100_000, 512, 1),
            (100_000, 1024, 1),
            (100_000, 1024, 4),
            (100_000, 1024, 16),
        ]
    };

    let mut runs: Vec<RasterComparison> = Vec::new();
    for &(n, px, k) in configs {
        eprintln!("running n={n}, grid={px}x{px}, k={k} ...");
        let r = compare_raster_paths_k(n, 16, px, px, 42, k);
        eprintln!(
            "  oracle {:.1} ms | scanline {:.1} ms | fast-count {:.1} ms | speedup {:.1}x | identical: {}",
            r.oracle_ms, r.scanline_ms, r.fast_count_ms, r.speedup, r.identical
        );
        assert!(r.identical, "scanline diverged from the oracle at n={n}, {px}x{px}, k={k}");
        runs.push(r);
    }

    write_raster_json(&out, &runs).expect("write json");
    eprintln!("wrote {out}");
}
