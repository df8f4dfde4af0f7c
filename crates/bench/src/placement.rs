//! Placement benchmarking: incremental candidate evaluation and greedy
//! placement vs a rebuild-per-candidate baseline, with a JSON emitter
//! for `BENCH_placement.json`.
//!
//! The MaxBRkNN scenario (ISSUE 7): an analyst scores `n_candidates`
//! hypothetical facility sites and runs a greedy multi-facility
//! placement loop. The *incremental path* uses
//! [`rnnhm_core::placement::PlacementQuery`]: each candidate is one
//! point-enclosure stab plus a tentative snapshot insert that the edit
//! engine maintains incrementally (and whose drop is a bitwise undo);
//! greedy commits each accepted insert the same way. The *rebuild
//! path* — what an engine without snapshots would do — rebuilds every
//! NN circle from scratch per candidate (and per greedy step) before
//! scoring. Both paths must agree bitwise on every influence value;
//! the acceptance bar is incremental candidate evaluation at least
//! **5×** faster than rebuild-per-candidate at n = 100k.

use std::io::Write as _;

use rnnhm_core::arrangement::{build_square_arrangement_k, Mode};
use rnnhm_core::crest::crest_sweep;
use rnnhm_core::measure::CountMeasure;
use rnnhm_core::placement::{PlacementConstraints, PlacementQuery};
use rnnhm_core::query::influence_at_points_square;
use rnnhm_core::sink::MaxSink;
use rnnhm_core::snapshot::ArrangementSnapshot;
use rnnhm_geom::{Metric, Point};

use crate::runner::{ms, write_bench_json};
use crate::workload::{build_workload, DatasetKind};

/// Wall-clock results of one placement-bench run.
#[derive(Debug, Clone)]
pub struct PlacementBench {
    /// Number of clients.
    pub n_clients: usize,
    /// RkNN depth of the influence model.
    pub k: usize,
    /// Number of facilities (`|O| / ratio`).
    pub n_facilities: usize,
    /// Candidate sites scored by both paths.
    pub candidates: usize,
    /// Total incremental evaluation time (stab + tentative insert +
    /// undo, per candidate).
    pub incr_total_ms: f64,
    /// Incremental candidate evaluations per second.
    pub incr_evals_per_sec: f64,
    /// Total rebuild-path evaluation time (from-scratch NN-circle
    /// rebuild + stab, per candidate).
    pub rebuild_total_ms: f64,
    /// Rebuild-path candidate evaluations per second.
    pub rebuild_evals_per_sec: f64,
    /// `rebuild_total_ms / incr_total_ms` — the acceptance metric.
    pub speedup_eval: f64,
    /// Greedy placement steps run.
    pub greedy_steps: usize,
    /// Greedy loop wall time, incremental commits.
    pub greedy_incr_ms: f64,
    /// Greedy loop wall time, rebuild-per-step baseline (from-scratch
    /// rebuild + full argmax sweep per step).
    pub greedy_rebuild_ms: f64,
    /// `greedy_rebuild_ms / greedy_incr_ms`.
    pub greedy_speedup: f64,
    /// Whether every influence value (per-candidate scores and
    /// per-step greedy argmaxes) was bitwise identical across paths.
    pub identical: bool,
}

/// Runs the placement scenario on a Uniform workload under the count
/// measure and the L∞ metric. `ratio` is `|O|/|F|` as in the paper's
/// sweeps.
pub fn compare_placement_paths(
    n_clients: usize,
    ratio: usize,
    n_candidates: usize,
    greedy_steps: usize,
    seed: u64,
    k: usize,
) -> PlacementBench {
    let w = build_workload(DatasetKind::Uniform, n_clients, ratio, seed);
    let n_facilities = w.facilities.len();
    assert!(n_facilities > k, "workload must offer more than k facilities");
    let snap = ArrangementSnapshot::build_k(
        w.clients.clone(),
        w.facilities.clone(),
        Metric::Linf,
        Mode::Bichromatic,
        k,
    )
    .expect("non-empty workload");
    let measure = CountMeasure;
    let query = PlacementQuery::new(&snap, &measure);

    // Deterministic candidate sites inside the populated unit square.
    let mut state = seed ^ 0x9e3779b97f4a7c15;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    let candidates: Vec<Point> =
        (0..n_candidates).map(|_| Point::new(0.2 + next() * 0.6, 0.2 + next() * 0.6)).collect();

    // Incremental path: cached point-enclosure stab + tentative
    // incremental insert, dropped immediately (bitwise undo).
    let start = rnnhm_core::clock::now();
    let incr_scores: Vec<f64> = candidates
        .iter()
        .map(|&p| query.evaluate_insert(p).expect("finite candidate").influence)
        .collect();
    let incr_total_ms = ms(start);

    // Rebuild path: every candidate pays a from-scratch NN-circle
    // rebuild before the same stab.
    let start = rnnhm_core::clock::now();
    let rebuild_scores: Vec<f64> = candidates
        .iter()
        .map(|&p| {
            let arr = build_square_arrangement_k(
                &w.clients,
                &w.facilities,
                Metric::Linf,
                Mode::Bichromatic,
                k,
            )
            .expect("non-empty instance");
            influence_at_points_square(&arr, &measure, &[p]).pop().expect("one result").1
        })
        .collect();
    let rebuild_total_ms = ms(start);
    let mut identical =
        incr_scores.iter().zip(&rebuild_scores).all(|(a, b)| a.to_bits() == b.to_bits());

    // Greedy, incremental commits.
    let start = rnnhm_core::clock::now();
    let greedy =
        query.greedy_place(greedy_steps, &PlacementConstraints::none()).expect("greedy place");
    let greedy_incr_ms = ms(start);
    assert_eq!(greedy.steps.len(), greedy_steps, "uniform data never runs out of regions");

    // Greedy rebuild baseline: per step, rebuild the circles from
    // scratch and find the argmax with a full sweep. To keep the two
    // loops on the same trajectory (and the timing honest), the
    // baseline commits the incremental loop's chosen point after
    // checking it found the same argmax influence.
    let mut facilities_now = w.facilities.clone();
    let start = rnnhm_core::clock::now();
    for step in &greedy.steps {
        let arr = build_square_arrangement_k(
            &w.clients,
            &facilities_now,
            Metric::Linf,
            Mode::Bichromatic,
            k,
        )
        .expect("non-empty instance");
        let mut max = MaxSink::default();
        crest_sweep(&arr, &measure, &mut max);
        let best = max.best.expect("regions exist");
        identical &= best.influence.to_bits() == step.chosen.influence.to_bits();
        facilities_now.push(step.chosen.point);
    }
    let greedy_rebuild_ms = ms(start);

    PlacementBench {
        n_clients,
        k,
        n_facilities,
        candidates: n_candidates,
        incr_total_ms,
        incr_evals_per_sec: n_candidates as f64 / (incr_total_ms / 1000.0),
        rebuild_total_ms,
        rebuild_evals_per_sec: n_candidates as f64 / (rebuild_total_ms / 1000.0),
        speedup_eval: rebuild_total_ms / incr_total_ms,
        greedy_steps,
        greedy_incr_ms,
        greedy_rebuild_ms,
        greedy_speedup: greedy_rebuild_ms / greedy_incr_ms,
        identical,
    }
}

/// Writes placement-bench results as JSON (hand-rolled; the
/// environment has no serde) to `path`.
pub fn write_placement_json(path: &str, runs: &[PlacementBench]) -> std::io::Result<()> {
    let header: &[&str] = &[
        "\"benchmark\": \"placement: incremental candidate evaluation + greedy loop vs \
         rebuild-per-candidate\"",
        "\"measure\": \"count\"",
        "\"metric\": \"Linf\"",
        "\"dataset\": \"Uniform\"",
        "\"acceptance\": \"incremental evaluation >= 5x rebuild at n=100k, bitwise-equal \
         influences\"",
    ];
    write_bench_json(path, header, runs, |f, r| {
        writeln!(f, "      \"n_clients\": {},", r.n_clients)?;
        writeln!(f, "      \"k\": {},", r.k)?;
        writeln!(f, "      \"n_facilities\": {},", r.n_facilities)?;
        writeln!(f, "      \"candidates\": {},", r.candidates)?;
        writeln!(f, "      \"incremental_total_ms\": {:.3},", r.incr_total_ms)?;
        writeln!(f, "      \"incremental_evals_per_sec\": {:.1},", r.incr_evals_per_sec)?;
        writeln!(f, "      \"rebuild_total_ms\": {:.3},", r.rebuild_total_ms)?;
        writeln!(f, "      \"rebuild_evals_per_sec\": {:.1},", r.rebuild_evals_per_sec)?;
        writeln!(f, "      \"eval_speedup\": {:.2},", r.speedup_eval)?;
        writeln!(f, "      \"greedy_steps\": {},", r.greedy_steps)?;
        writeln!(f, "      \"greedy_incremental_ms\": {:.3},", r.greedy_incr_ms)?;
        writeln!(f, "      \"greedy_rebuild_ms\": {:.3},", r.greedy_rebuild_ms)?;
        writeln!(f, "      \"greedy_speedup\": {:.2},", r.greedy_speedup)?;
        writeln!(f, "      \"identical\": {}", r.identical)?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_agree_on_small_instances() {
        let r = compare_placement_paths(400, 8, 6, 2, 7, 1);
        assert!(r.identical, "incremental and rebuild scores must agree bitwise");
        assert_eq!(r.candidates, 6);
        assert_eq!(r.greedy_steps, 2);
    }

    #[test]
    fn paths_agree_at_k_above_one() {
        let r = compare_placement_paths(300, 6, 5, 1, 11, 3);
        assert!(r.identical);
    }
}
