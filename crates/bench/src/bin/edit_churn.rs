//! `edit_churn` — what-if edit benchmark, emitting `BENCH_edits.json`.
//!
//! ```text
//! cargo run --release -p rnnhm_bench --bin edit_churn [--quick] [out.json]
//! ```
//!
//! The full run measures the ISSUE 3 acceptance configuration — a
//! 1024×1024 viewport over n = 100k Uniform clients (ratio 16),
//! 256-pixel tiles, count measure, L∞: a cold viewport, then a 16-step
//! interleaved add/move/remove script where every step applies the
//! edit incrementally and re-renders the warm viewport (only
//! invalidated tiles rasterize), against a per-step full rebuild
//! (from-scratch NN recompute + one-shot render of the same spec).
//! The acceptance bar is a median per-step speedup ≥ **5×** with
//! bit-identical frames. The run then sweeps the RkNN depth
//! k ∈ {4, 16} at the top configuration (wider circles → larger dirty
//! regions per edit). `--quick` shrinks the grid for CI-scale runs but
//! keeps the full k ∈ {1, 4, 16} sweep.

use rnnhm_bench::edits::{compare_edit_paths_k, write_edits_json, EditChurn};
use rnnhm_bench::runner::cli;

fn main() {
    let (quick, out) = cli("BENCH_edits.json");

    // (n_clients, viewport px, tile px, k)
    let configs: &[(usize, usize, usize, usize)] = if quick {
        &[(10_000, 256, 64, 1), (10_000, 256, 64, 4), (10_000, 256, 64, 16)]
    } else {
        &[
            (10_000, 512, 256, 1),
            (100_000, 512, 256, 1),
            (100_000, 1024, 256, 1),
            (100_000, 1024, 256, 4),
            (100_000, 1024, 256, 16),
        ]
    };

    let mut runs: Vec<EditChurn> = Vec::new();
    for &(n, px, tile, k) in configs {
        eprintln!("running n={n}, view={px}x{px}, tile={tile}, k={k} ...");
        let r = compare_edit_paths_k(n, 16, px, tile, 42, k);
        eprintln!(
            "  cold {:.1} ms | edit+render median {:.1} ms (mean {:.1}) | rebuild median {:.1} ms \
             | speedup {:.1}x | {} tiles invalidated, {} re-rendered, {} per view | identical: {}",
            r.cold_ms,
            r.edit_median_ms,
            r.edit_mean_ms,
            r.rebuild_median_ms,
            r.speedup_median,
            r.tiles_invalidated,
            r.tiles_rerendered,
            r.tiles_total,
            r.identical
        );
        assert!(r.identical, "edited viewport diverged from rebuild at n={n}, {px}x{px}, k={k}");
        // The acceptance bar is defined at the full k = 1 configuration
        // (n = 100k): there the rebuild's from-scratch NN recompute
        // dominates. Smaller warm-up runs and the k sweep are reported
        // but not gated (k > 1 edits dirty far more area by design).
        if !quick && n >= 100_000 && k == 1 {
            assert!(
                r.speedup_median >= 5.0,
                "acceptance: median edit-step speedup {:.2}x below the 5x bar at n={n}",
                r.speedup_median
            );
        }
        runs.push(r);
    }

    write_edits_json(&out, &runs).expect("write json");
    eprintln!("wrote {out}");
}
