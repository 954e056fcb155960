//! Statistical validation of the paper's quantitative claims with fixed
//! seeds — the test-suite versions of experiments E1/E2/E4/E6/E7.
//! Thresholds carry generous slack over the theoretical constants so the
//! tests are robust to seed choice while still catching asymptotic
//! regressions (e.g. an accidental O(deg) path would blow all of them up).
//! One test, `cost_counts_are_exact_for_fixed_seeds`, has no slack: it pins
//! the E1/E5/E6 counts of three fixed-seed workloads exactly.

use pbdmm::graph::gen;
use pbdmm::graph::workload::{churn, insert_then_delete, DeletionOrder};
use pbdmm::matching::driver::run_workload;
use pbdmm::matching::parallel_greedy_match;
use pbdmm::primitives::cost::CostMeter;
use pbdmm::primitives::rng::SplitMix64;
use pbdmm::DynamicMatching;

/// E1: metered work per update must not grow with the graph (r = 2).
#[test]
fn work_per_update_is_flat_in_graph_size() {
    let mut per_update = Vec::new();
    for &n in &[1usize << 9, 1 << 11, 1 << 13] {
        let g = gen::erdos_renyi(n, 4 * n, 0xA1);
        let w = insert_then_delete(&g, 256, DeletionOrder::Uniform, 0xB2);
        let mut dm = DynamicMatching::with_seed(1);
        let r = run_workload(&mut dm, &w);
        per_update.push(r.work_per_update());
    }
    let (first, last) = (per_update[0], *per_update.last().unwrap());
    assert!(
        last < 2.0 * first,
        "work/update grew with m: {per_update:?} (expected ~constant)"
    );
}

/// E2: work per update grows at most ~r³ in the rank.
#[test]
fn work_per_update_bounded_by_rank_cubed() {
    let mut per_update = Vec::new();
    let ranks = [2usize, 4, 8];
    for &r in &ranks {
        let g = gen::random_hypergraph(2000, 8000, r, 0xC3);
        let w = churn(&g, 256, 0xD4);
        let mut dm = DynamicMatching::with_seed(2);
        let rep = run_workload(&mut dm, &w);
        per_update.push(rep.work_per_update());
    }
    // Going from r=2 to r=8 (4x) the bound allows 64x; assert we stay well
    // inside it (and sanity-check the cost does grow with r at all).
    let ratio = per_update[2] / per_update[0];
    assert!(
        ratio < 64.0,
        "work grew faster than r^3: {per_update:?} (ratio {ratio})"
    );
    assert!(
        per_update[2] > per_update[0],
        "rank had no cost effect: {per_update:?}"
    );
}

/// E4: greedy parallel rounds are O(log m).
#[test]
fn greedy_rounds_logarithmic() {
    for &m in &[1usize << 12, 1 << 15] {
        let g = gen::erdos_renyi(m / 4, m, 0xE5);
        let mut rng = SplitMix64::new(3);
        let res = parallel_greedy_match(&g.edges, &mut rng, &CostMeter::new());
        let lg = (m as f64).log2();
        assert!(
            (res.rounds as f64) < 6.0 * lg,
            "m={m}: {} rounds vs lg m = {lg:.1}",
            res.rounds
        );
    }
}

/// E6: mean payment per user delete ≤ 2 (expected), every deletion order.
#[test]
fn mean_payment_at_most_two_ish() {
    let g = gen::erdos_renyi(1 << 11, 1 << 13, 0xF6);
    for order in [
        DeletionOrder::Uniform,
        DeletionOrder::Fifo,
        DeletionOrder::Lifo,
        DeletionOrder::VertexClustered,
        DeletionOrder::DegreeBiased,
    ] {
        let w = insert_then_delete(&g, 256, order, 0xAB);
        let mut dm = DynamicMatching::with_seed(4);
        run_workload(&mut dm, &w);
        let phi = dm.stats().mean_payment();
        assert!(phi <= 2.5, "{order:?}: mean payment {phi} > 2.5");
    }
}

/// E7 (Lemma 5.6): every settle round's added sample mass at least twice
/// the deleted sample mass — this one is structural, not just expected.
#[test]
fn settle_rounds_respect_sample_ledger() {
    // Power-law + clustered churn generates real settle activity.
    let g = gen::preferential_attachment(1 << 11, 6, 0x77);
    let w = insert_then_delete(&g, 512, DeletionOrder::VertexClustered, 0x78);
    let mut dm = DynamicMatching::with_seed(5);
    run_workload(&mut dm, &w);
    let s = dm.stats();
    let min_ratio = s.min_round_sample_ratio();
    if min_ratio.is_finite() {
        assert!(
            min_ratio >= 2.0,
            "Lemma 5.6 violated: min S_a/S_d = {min_ratio}"
        );
    }
}

/// E7 (Lemma 5.7): across an empty-to-empty run, natural sample mass is at
/// least a third of induced sample mass.
#[test]
fn natural_sample_mass_dominates() {
    let g = gen::preferential_attachment(1 << 11, 6, 0x79);
    let w = churn(&g, 256, 0x80);
    let mut dm = DynamicMatching::with_seed(6);
    run_workload(&mut dm, &w);
    let ratio = dm.stats().natural_to_induced_ratio();
    assert!(ratio > 1.0 / 3.0, "Lemma 5.7 violated: S_n/S_i = {ratio}");
}

/// Static matcher's metered work is linear in total cardinality.
#[test]
fn static_work_linear_in_total_cardinality() {
    let mut per_card = Vec::new();
    for &m in &[1usize << 12, 1 << 15] {
        let g = gen::erdos_renyi(m / 4, m, 0x91);
        let meter = CostMeter::new();
        let mut rng = SplitMix64::new(7);
        parallel_greedy_match(&g.edges, &mut rng, &meter);
        per_card.push(meter.work() as f64 / g.total_cardinality() as f64);
    }
    assert!(
        per_card[1] < 2.0 * per_card[0],
        "static work superlinear: {per_card:?}"
    );
}

/// Depth proxy (Lemma 5.11): settle iterations per batch stay logarithmic.
#[test]
fn settle_iterations_per_batch_logarithmic() {
    let g = gen::preferential_attachment(1 << 12, 8, 0x99);
    let w = insert_then_delete(&g, 1024, DeletionOrder::VertexClustered, 0x9A);
    let mut dm = DynamicMatching::with_seed(8);
    let mut max_iters = 0u64;
    pbdmm::matching::driver::run_workload_with(&mut dm, &w, |m| {
        max_iters = max_iters.max(m.last_batch().settle_iterations);
    });
    let lg = (g.m() as f64).log2();
    assert!(
        (max_iters as f64) <= 3.0 * lg,
        "settle iterations {max_iters} vs lg m {lg:.1}"
    );
}

/// E1/E5/E6 exactly: for a fixed seed the cost model is a deterministic
/// function of (seed, batch sequence), whatever the thread count or
/// scheduling, so its counts are pinned as exact integers — a noise-free
/// regression signal. Three shapes from `graph::workload`: uniform churn
/// (E1 work), power-law churn (E5 settle rounds) and delete-heavy,
/// vertex-clustered decay (E6 payment). A change to the algorithm's
/// coins, its charging or its settle loop moves at least one of them.
#[test]
fn cost_counts_are_exact_for_fixed_seeds() {
    let er = gen::erdos_renyi(1 << 12, 1 << 14, 9);
    let pa = gen::preferential_attachment(1 << 12, 6, 0x77);
    let cases = [
        (
            "uniform churn",
            churn(&er, 384, 11),
            1,
            [32768, 208237, 0, 6265, 16384],
        ),
        (
            "power-law churn",
            churn(&pa, 512, 12),
            2,
            [49110, 319205, 52, 7701, 24555],
        ),
        (
            "clustered decay",
            insert_then_delete(&er, 512, DeletionOrder::VertexClustered, 13),
            3,
            [32768, 157060, 1, 2877, 16384],
        ),
    ];
    for (shape, w, seed, want) in cases {
        let mut dm = DynamicMatching::with_seed(seed);
        let r = run_workload(&mut dm, &w);
        let s = dm.stats();
        let got = [
            r.updates,
            r.work,
            s.settle_rounds,
            s.total_payment,
            s.user_deletions,
        ];
        assert_eq!(
            got, want,
            "{shape}, seed {seed}: [updates, work, settle_rounds, payment, user_deletions]"
        );
    }
}
