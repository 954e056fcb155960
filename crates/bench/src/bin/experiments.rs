//! The experiment harness: regenerates the tables for experiments E1–E15.
//!
//! ```text
//! cargo run --release -p pbdmm-bench --bin experiments -- all
//! cargo run --release -p pbdmm-bench --bin experiments -- e1 e6 e8
//! cargo run --release -p pbdmm-bench --bin experiments -- --quick all
//! ```
//!
//! The paper (SPAA 2025) is a theory paper; these experiments validate each
//! quantitative claim empirically. Each `eN_*` function's doc comment names
//! the claim it checks; README's "Claims" table lists the expected output
//! of the deterministic columns of E1, E5, E6 and E8.

use pbdmm_bench::{doubling_sizes, fmt_f, loglog_slope, time, Table};
use pbdmm_graph::workload::{churn, insert_then_delete, sliding_window, DeletionOrder};
use pbdmm_graph::{gen, Hypergraph};
use pbdmm_matching::baseline::{NaiveDynamic, RecomputeMatching};
use pbdmm_matching::driver::run_workload;
use pbdmm_matching::{parallel_greedy_match, DynamicMatching};
use pbdmm_primitives::cost::CostMeter;
use pbdmm_primitives::rng::SplitMix64;
use pbdmm_setcover::{greedy_cover, static_cover, DynamicSetCover};

/// Global scale knob: `--quick` halves the sweep depth.
struct Scale {
    quick: bool,
}

impl Scale {
    fn steps(&self, full: usize) -> usize {
        if self.quick {
            full.saturating_sub(2).max(2)
        } else {
            full
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = Scale { quick };
    let wanted: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    let run_all = wanted.is_empty() || wanted.iter().any(|a| a == "all");
    let want = |name: &str| run_all || wanted.iter().any(|a| a == name);

    println!(
        "# pbdmm experiments (threads = {})",
        pbdmm_primitives::par::num_threads()
    );

    if want("e1") {
        e1_constant_work(&scale);
    }
    if want("e2") {
        e2_rank_scaling(&scale);
    }
    if want("e3") {
        e3_static_matching(&scale);
    }
    if want("e4") {
        e4_greedy_rounds(&scale);
    }
    if want("e5") {
        e5_batch_depth(&scale);
    }
    if want("e6") {
        e6_payment(&scale);
    }
    if want("e7") {
        e7_sample_ledger(&scale);
    }
    if want("e8") {
        e8_vs_recompute(&scale);
    }
    if want("e9") {
        e9_speedup(&scale);
    }
    if want("e10") {
        e10_set_cover(&scale);
    }
    if want("e11") {
        e11_adversarial(&scale);
    }
    if want("e12") {
        e12_batch_robustness(&scale);
    }
    if want("e13") {
        e13_leveling_ablation(&scale);
    }
    if want("e14") {
        e14_all_light_ablation(&scale);
    }
    if want("e15") {
        e15_level_occupancy(&scale);
    }
}

/// E15 telemetry: level occupancy mid-stream. The structure should hold
/// O(log m) levels, with sample sizes per level in [2^l, 2^{l+1}) at
/// creation — the geometry the whole charging scheme rides on.
fn e15_level_occupancy(scale: &Scale) {
    let mut t = Table::new(
        "E15: leveling-structure occupancy mid-churn (Definition 4.1 geometry)",
        &[
            "level",
            "matches",
            "sample mass",
            "cross mass",
            "avg sample",
        ],
    );
    let n = if scale.quick { 1 << 11 } else { 1 << 13 };
    let g = gen::preferential_attachment(n, 6, 0xE15);
    let mut dm = DynamicMatching::with_seed(19);
    // Insert everything, then clustered-delete half to force resettles and
    // populate higher levels; snapshot before draining.
    let w = insert_then_delete(&g, 256, DeletionOrder::VertexClustered, 0x15AD);
    let mid = w.steps.len() * 3 / 4;
    let mut step_idx = 0usize;
    let mut assigned: Vec<Option<pbdmm_graph::EdgeId>> = vec![None; g.m()];
    for step in &w.steps {
        let ins: Vec<_> = step.insert.iter().map(|&i| g.edges[i].clone()).collect();
        let ids = pbdmm_matching::baseline::MaximalMatcher::insert_edges(&mut dm, &ins);
        for (&ui, &id) in step.insert.iter().zip(&ids) {
            assigned[ui] = Some(id);
        }
        let dels: Vec<_> = step.delete.iter().map(|&i| assigned[i].unwrap()).collect();
        pbdmm_matching::baseline::MaximalMatcher::delete_edges(&mut dm, &dels);
        step_idx += 1;
        if step_idx == mid {
            break;
        }
    }
    for o in dm.level_histogram() {
        t.row(&[
            o.level.to_string(),
            o.matches.to_string(),
            o.sample_mass.to_string(),
            o.cross_mass.to_string(),
            fmt_f(o.sample_mass as f64 / o.matches as f64),
        ]);
    }
    t.print();
    println!(
        "levels in use: {} (lg m = {:.1})",
        dm.level_histogram().len(),
        (g.m() as f64).log2()
    );
}

/// E13 ablation: the leveling parameters §5.2 argues about — level gap α
/// and the heaviness coefficient. The paper chooses α = 2 (gap_log2 = 1)
/// and c = 4; wider gaps or tighter thresholds shift work between the
/// light path (direct reinsertion) and random settling.
fn e13_leveling_ablation(scale: &Scale) {
    use pbdmm_matching::LevelingConfig;
    let mut t = Table::new(
        "E13 ablation: level gap and heaviness coefficient (paper: alpha=2, c=4)",
        &[
            "alpha",
            "c",
            "work/update",
            "settle iters",
            "induced epochs",
            "mean phi",
        ],
    );
    let n = if scale.quick { 1 << 11 } else { 1 << 12 };
    let g = gen::preferential_attachment(n, 6, 0xE13);
    let w = insert_then_delete(&g, 256, DeletionOrder::VertexClustered, 0x13AD);
    let mut configs = vec![
        (1u32, 1u32),
        (1, 4), // paper
        (1, 16),
        (2, 4),
        (3, 4),
    ];
    if scale.quick {
        configs.truncate(3);
    }
    for (gap, c) in configs {
        let cfg = LevelingConfig {
            gap_log2: gap,
            heavy_factor: c,
            all_light: false,
        };
        let mut dm = DynamicMatching::with_seed_and_config(15, cfg);
        let r = run_workload(&mut dm, &w);
        let s = dm.stats();
        t.row(&[
            format!("{}", 1u32 << gap),
            c.to_string(),
            fmt_f(r.work_per_update()),
            s.settle_rounds.to_string(),
            s.induced_epochs().to_string(),
            fmt_f(s.mean_payment()),
        ]);
    }
    t.print();
}

/// E14 ablation: footnote 8 — designating every match light preserves
/// maximality but forfeits the work bound; measure the cost on a
/// hub-stressing workload where heavy matches actually arise.
fn e14_all_light_ablation(scale: &Scale) {
    use pbdmm_matching::LevelingConfig;
    let mut t = Table::new(
        "E14 ablation: all-light mode (footnote 8) vs the paper's light/heavy split",
        &["graph", "mode", "work/update", "settle iters", "us/update"],
    );
    let n = if scale.quick { 1 << 11 } else { 1 << 12 };
    for (name, g) in [
        ("powerlaw", gen::preferential_attachment(n, 6, 0xE14)),
        ("star", gen::star(n)),
    ] {
        let w = insert_then_delete(&g, 128, DeletionOrder::VertexClustered, 0x14AD);
        for (mode, all_light) in [("paper", false), ("all-light", true)] {
            let cfg = LevelingConfig {
                all_light,
                ..Default::default()
            };
            let mut dm = DynamicMatching::with_seed_and_config(16, cfg);
            let r = run_workload(&mut dm, &w);
            t.row(&[
                name.into(),
                mode.into(),
                fmt_f(r.work_per_update()),
                dm.stats().settle_rounds.to_string(),
                fmt_f(r.seconds / r.updates as f64 * 1e6),
            ]);
        }
    }
    t.print();
}

/// E1 (Thm 1.1 / Cor 1.2): amortized work per update is constant in the
/// graph size for r = 2.
fn e1_constant_work(scale: &Scale) {
    let mut t = Table::new(
        "E1: constant work per update, r=2 (Theorem 1.1 / Corollary 1.2)",
        &[
            "n",
            "m",
            "updates",
            "work/update",
            "us/update",
            "settle-iters",
        ],
    );
    let mut pts = Vec::new();
    for &n in &doubling_sizes(1 << 10, scale.steps(6)) {
        let m = 4 * n;
        let g = gen::erdos_renyi(n, m, 0xE1);
        let w = insert_then_delete(&g, 1024, DeletionOrder::Uniform, 0xAD);
        let mut dm = DynamicMatching::with_seed(1);
        let report = run_workload(&mut dm, &w);
        let wpu = report.work_per_update();
        pts.push((m as f64, wpu));
        t.row(&[
            n.to_string(),
            m.to_string(),
            report.updates.to_string(),
            fmt_f(wpu),
            fmt_f(report.seconds / report.updates as f64 * 1e6),
            dm.stats().settle_rounds.to_string(),
        ]);
    }
    t.print();
    println!(
        "log-log slope of work/update vs m: {:.3} (paper: 0 = constant)",
        loglog_slope(&pts)
    );
}

/// E2 (Thm 1.1): work per update scales as O(r³) in the hypergraph rank.
fn e2_rank_scaling(scale: &Scale) {
    let mut t = Table::new(
        "E2: O(r^3) work per update in hypergraph rank (Theorem 1.1)",
        &["r", "m", "updates", "work/update", "us/update"],
    );
    let mut pts = Vec::new();
    let n = 4000;
    let m = 16_000;
    let ranks: Vec<usize> = if scale.quick {
        vec![2, 3, 4, 6]
    } else {
        vec![2, 3, 4, 5, 6, 8]
    };
    for &r in &ranks {
        let g = gen::random_hypergraph(n, m, r, 0xE2);
        let w = churn(&g, 512, 0xBEEF);
        let mut dm = DynamicMatching::with_seed(2);
        let report = run_workload(&mut dm, &w);
        let wpu = report.work_per_update();
        pts.push((r as f64, wpu));
        t.row(&[
            r.to_string(),
            g.m().to_string(),
            report.updates.to_string(),
            fmt_f(wpu),
            fmt_f(report.seconds / report.updates as f64 * 1e6),
        ]);
    }
    t.print();
    println!(
        "log-log slope of work/update vs r: {:.2} (paper bound: <= 3)",
        loglog_slope(&pts)
    );
}

/// E3 (Lemma 1.3 / Thm 3.2): static matching is O(m') work.
fn e3_static_matching(scale: &Scale) {
    let mut t = Table::new(
        "E3: static greedy matching, O(m') work (Lemma 1.3 / Theorem 3.2)",
        &["graph", "m", "m'", "work/m'", "ms", "rounds"],
    );
    let mut pts = Vec::new();
    for &m in &doubling_sizes(1 << 13, scale.steps(6)) {
        let g = gen::erdos_renyi(m / 4, m, 0xE3);
        let meter = CostMeter::new();
        let mut rng = SplitMix64::new(3);
        let (res, secs) = time(|| parallel_greedy_match(&g.edges, &mut rng, &meter));
        let mprime = g.total_cardinality();
        pts.push((mprime as f64, meter.work() as f64));
        t.row(&[
            "ER".into(),
            g.m().to_string(),
            mprime.to_string(),
            fmt_f(meter.work() as f64 / mprime as f64),
            fmt_f(secs * 1e3),
            res.rounds.to_string(),
        ]);
    }
    // Hypergraph series (rank 5).
    for &m in &doubling_sizes(1 << 12, scale.steps(4)) {
        let g = gen::random_hypergraph(m / 2, m, 5, 0xE3);
        let meter = CostMeter::new();
        let mut rng = SplitMix64::new(4);
        let (res, secs) = time(|| parallel_greedy_match(&g.edges, &mut rng, &meter));
        let mprime = g.total_cardinality();
        t.row(&[
            "H(r=5)".into(),
            g.m().to_string(),
            mprime.to_string(),
            fmt_f(meter.work() as f64 / mprime as f64),
            fmt_f(secs * 1e3),
            res.rounds.to_string(),
        ]);
    }
    t.print();
    println!(
        "log-log slope of work vs m' (ER series): {:.3} (paper: 1 = linear)",
        loglog_slope(&pts)
    );
}

/// E4: greedy parallel rounds are O(log m) whp (Fischer–Noever bound).
fn e4_greedy_rounds(scale: &Scale) {
    let mut t = Table::new(
        "E4: greedy rounds vs lg m (O(log m) whp, used in Theorem 3.2)",
        &["m", "lg m", "rounds", "rounds/lg m"],
    );
    for &m in &doubling_sizes(1 << 12, scale.steps(7)) {
        let g = gen::erdos_renyi(m / 4, m, 0xE4);
        let meter = CostMeter::new();
        let mut rng = SplitMix64::new(5);
        let res = parallel_greedy_match(&g.edges, &mut rng, &meter);
        let lg = (g.m() as f64).log2();
        t.row(&[
            g.m().to_string(),
            fmt_f(lg),
            res.rounds.to_string(),
            fmt_f(res.rounds as f64 / lg),
        ]);
    }
    t.print();
}

/// E5 (Lemma 5.11): per-batch depth proxies — settle-loop iterations (bound
/// O(log m)) times greedy rounds (O(log² m)) stays polylog.
fn e5_batch_depth(scale: &Scale) {
    let mut t = Table::new(
        "E5: per-batch depth proxies (Lemma 5.11: O(log^3 m) whp)",
        &[
            "m",
            "lg m",
            "max settle iters",
            "mean settle iters",
            "batches",
        ],
    );
    for &n in &doubling_sizes(1 << 10, scale.steps(5)) {
        let m = 4 * n;
        let g = gen::erdos_renyi(n, m, 0xE5);
        let w = insert_then_delete(&g, m / 8, DeletionOrder::Uniform, 0xE5E5);
        let mut dm = DynamicMatching::with_seed(6);
        let mut max_iters = 0u64;
        let mut sum_iters = 0u64;
        let mut batches = 0u64;
        pbdmm_matching::driver::run_workload_with(&mut dm, &w, |m| {
            let r = m.last_batch();
            max_iters = max_iters.max(r.settle_iterations);
            sum_iters += r.settle_iterations;
            batches += 1;
        });
        t.row(&[
            m.to_string(),
            fmt_f((m as f64).log2()),
            max_iters.to_string(),
            fmt_f(sum_iters as f64 / batches as f64),
            batches.to_string(),
        ]);
    }
    t.print();
}

/// E6 (Lemma 3.3 / 5.8): the expected payment per user deletion is ≤ 2,
/// for any oblivious deletion order.
fn e6_payment(scale: &Scale) {
    let mut t = Table::new(
        "E6: mean payment per user delete (Lemmas 3.3/5.8: E[phi] <= 2)",
        &["order", "m", "deletes", "mean phi"],
    );
    let n = if scale.quick { 1 << 11 } else { 1 << 13 };
    let g = gen::erdos_renyi(n, 4 * n, 0xE6);
    for (name, order) in [
        ("uniform", DeletionOrder::Uniform),
        ("fifo", DeletionOrder::Fifo),
        ("lifo", DeletionOrder::Lifo),
        ("clustered", DeletionOrder::VertexClustered),
        ("degree-biased", DeletionOrder::DegreeBiased),
    ] {
        let w = insert_then_delete(&g, 512, order, 0xF00D);
        let mut dm = DynamicMatching::with_seed(7);
        run_workload(&mut dm, &w);
        t.row(&[
            name.into(),
            g.m().to_string(),
            dm.stats().user_deletions.to_string(),
            fmt_f(dm.stats().mean_payment()),
        ]);
    }
    t.print();
}

/// E7 (Lemmas 5.6/5.7): per-settle-round added vs deleted sample mass, and
/// natural vs induced sample mass over empty-to-empty runs.
fn e7_sample_ledger(scale: &Scale) {
    let mut t = Table::new(
        "E7: sample-mass ledger (Lemma 5.6: S_a >= 2 S_d per round; Lemma 5.7: S_n > S_i/3)",
        &[
            "graph",
            "settle rounds",
            "min S_a/S_d",
            "S_n",
            "S_i",
            "S_n/S_i",
        ],
    );
    let n = if scale.quick { 1 << 11 } else { 1 << 13 };
    for (name, g) in [
        ("ER", gen::erdos_renyi(n, 4 * n, 0xE7)),
        ("powerlaw", gen::preferential_attachment(n, 4, 0xE7)),
        ("H(r=4)", gen::random_hypergraph(n, 3 * n, 4, 0xE7)),
    ] {
        let w = churn(&g, 256, 0xCAFE);
        let mut dm = DynamicMatching::with_seed(8);
        run_workload(&mut dm, &w);
        let s = dm.stats();
        let min_ratio = s.min_round_sample_ratio();
        t.row(&[
            name.into(),
            s.settle_rounds.to_string(),
            if min_ratio.is_finite() {
                fmt_f(min_ratio)
            } else {
                "inf".into()
            },
            s.natural_sample_mass.to_string(),
            s.induced_sample_mass().to_string(),
            fmt_f(s.natural_to_induced_ratio()),
        ]);
    }
    t.print();
}

/// E8 (motivation §1): batch-dynamic vs recompute-from-scratch; where the
/// dynamic structure wins and where recompute catches up.
fn e8_vs_recompute(scale: &Scale) {
    let mut t = Table::new(
        "E8: dynamic vs static recompute per batch (crossover)",
        &[
            "batch",
            "dyn us/upd",
            "dyn work/upd",
            "recomp us/upd",
            "recomp work/upd",
            "work ratio",
        ],
    );
    let n = if scale.quick { 1 << 12 } else { 1 << 13 };
    let g = gen::erdos_renyi(n, 4 * n, 0xE8);
    // Keep the live-graph size fixed (~n edges) across batch sizes so the
    // recompute baseline pays the same per-recompute cost everywhere and
    // only the *frequency* of recomputes varies with the batch size.
    let window_edges = n;
    let batches: Vec<usize> = if scale.quick {
        vec![64, 1024]
    } else {
        vec![16, 128, 1024, 8192]
    };
    for &b in &batches {
        let w = sliding_window(
            &g,
            b,
            (window_edges / b).max(1),
            DeletionOrder::Fifo,
            0xE8E8,
        );
        let mut dm = DynamicMatching::with_seed(9);
        let rd = run_workload(&mut dm, &w);
        let mut rc = RecomputeMatching::with_seed(9);
        let rr = run_workload(&mut rc, &w);
        t.row(&[
            b.to_string(),
            fmt_f(rd.seconds / rd.updates as f64 * 1e6),
            fmt_f(rd.work_per_update()),
            fmt_f(rr.seconds / rr.updates as f64 * 1e6),
            fmt_f(rr.work_per_update()),
            fmt_f(rr.work_per_update() / rd.work_per_update().max(1e-9)),
        ]);
    }
    t.print();
}

/// E9: self-relative parallel speedup of the static matcher across thread
/// counts (degenerate on single-core hosts, reported as-is).
fn e9_speedup(scale: &Scale) {
    let mut t = Table::new(
        "E9: static matcher speedup vs threads (self-relative)",
        &["threads", "ms", "speedup"],
    );
    let m = if scale.quick { 1 << 16 } else { 1 << 18 };
    let g = gen::erdos_renyi(m / 4, m, 0xE9);
    let max_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut base = None;
    let mut threads = 1;
    while threads <= max_threads {
        pbdmm_primitives::par::set_num_threads(threads);
        let secs = {
            let meter = CostMeter::new();
            let mut rng = SplitMix64::new(10);
            let (_, s) = time(|| parallel_greedy_match(&g.edges, &mut rng, &meter));
            s
        };
        let base_secs = *base.get_or_insert(secs);
        t.row(&[
            threads.to_string(),
            fmt_f(secs * 1e3),
            fmt_f(base_secs / secs),
        ]);
        threads *= 2;
    }
    pbdmm_primitives::par::set_num_threads(0);
    t.print();
    if max_threads == 1 {
        println!("(single-core host: speedup sweep is a single point)");
    }
}

/// E10 (Cor. 1.4/1.5): set cover quality and dynamic update cost.
fn e10_set_cover(scale: &Scale) {
    let mut t = Table::new(
        "E10: r-approximate set cover (Corollaries 1.4/1.5)",
        &[
            "sets",
            "elements",
            "r",
            "matching LB",
            "our cover",
            "greedy cover",
            "ratio vs LB",
        ],
    );
    // Sparse (elements ≈ 2–3× sets: nontrivial covers) and dense
    // (elements ≫ sets: covers saturate) regimes.
    let els_scale = if scale.quick { 1 } else { 4 };
    for (s, e, r) in [
        (200, 500, 3usize),
        (1000, 3000, 4),
        (400, 8000 * els_scale, 4),
        (1000, 20_000 * els_scale, 5),
    ] {
        let inst = gen::set_cover_instance(s, e, r, 0xE10);
        let (cover, lb) = static_cover(&inst.edges, 11);
        let gc = greedy_cover(&inst.edges);
        t.row(&[
            s.to_string(),
            e.to_string(),
            r.to_string(),
            lb.to_string(),
            cover.len().to_string(),
            gc.len().to_string(),
            fmt_f(cover.len() as f64 / lb.max(1) as f64),
        ]);
    }
    t.print();

    let mut t2 = Table::new(
        "E10b: batch-dynamic set cover update cost",
        &["elements", "r", "updates", "work/update", "us/update"],
    );
    let inst = gen::set_cover_instance(500, if scale.quick { 10_000 } else { 40_000 }, 4, 0xE10B);
    let mut dc = DynamicSetCover::with_seed(12);
    let w = churn(&inst, 512, 0xD00D);
    let start = std::time::Instant::now();
    let mut assigned: Vec<Option<pbdmm_graph::EdgeId>> = vec![None; inst.m()];
    let mut updates = 0u64;
    for step in &w.steps {
        let ins: Vec<_> = step.insert.iter().map(|&i| inst.edges[i].clone()).collect();
        let ids = dc.insert_elements(&ins);
        for (&ui, &id) in step.insert.iter().zip(&ids) {
            assigned[ui] = Some(id);
        }
        let dels: Vec<_> = step.delete.iter().map(|&i| assigned[i].unwrap()).collect();
        dc.delete_elements(&dels);
        updates += (ins.len() + dels.len()) as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    t2.row(&[
        inst.m().to_string(),
        "4".into(),
        updates.to_string(),
        fmt_f(dc.matching().meter().work() as f64 / updates as f64),
        fmt_f(secs / updates as f64 * 1e6),
    ]);
    t2.print();
}

/// E11: adversarial deletion patterns — leveled algorithm vs the naive
/// neighbor-rescan baseline.
fn e11_adversarial(scale: &Scale) {
    let mut t = Table::new(
        "E11: adversarial deletes, leveled vs naive rescan (work per update)",
        &["graph", "order", "leveled", "naive", "naive/leveled"],
    );
    let n = if scale.quick { 1 << 11 } else { 1 << 13 };
    let cases: Vec<(&str, Hypergraph)> = vec![
        ("star", gen::star(n)),
        ("powerlaw", gen::preferential_attachment(n, 4, 0xE11)),
        ("ER", gen::erdos_renyi(n, 4 * n, 0xE11)),
    ];
    for (name, g) in &cases {
        for (oname, order) in [
            ("clustered", DeletionOrder::VertexClustered),
            ("uniform", DeletionOrder::Uniform),
        ] {
            let w = insert_then_delete(g, 64, order, 0x11AD);
            let mut smart = DynamicMatching::with_seed(13);
            let rs = run_workload(&mut smart, &w);
            let mut naive = NaiveDynamic::new();
            let rn = run_workload(&mut naive, &w);
            t.row(&[
                (*name).into(),
                oname.into(),
                fmt_f(rs.work_per_update()),
                fmt_f(rn.work_per_update()),
                fmt_f(rn.work_per_update() / rs.work_per_update().max(1e-9)),
            ]);
        }
    }
    t.print();
}

/// E12 (Thm 1.1): per-update cost is insensitive to batch size.
fn e12_batch_robustness(scale: &Scale) {
    let mut t = Table::new(
        "E12: per-update cost vs batch size (Theorem 1.1: batch size can vary)",
        &["batch", "updates", "work/update", "us/update"],
    );
    let n = if scale.quick { 1 << 11 } else { 1 << 13 };
    let g = gen::erdos_renyi(n, 4 * n, 0xE12);
    let batches: Vec<usize> = if scale.quick {
        vec![4, 64, 1024]
    } else {
        vec![1, 4, 64, 1024, 8192]
    };
    let mut pts = Vec::new();
    for &b in &batches {
        let w = insert_then_delete(&g, b, DeletionOrder::Uniform, 0x12AD);
        let mut dm = DynamicMatching::with_seed(14);
        let r = run_workload(&mut dm, &w);
        pts.push((b as f64, r.work_per_update()));
        t.row(&[
            b.to_string(),
            r.updates.to_string(),
            fmt_f(r.work_per_update()),
            fmt_f(r.seconds / r.updates as f64 * 1e6),
        ]);
    }
    t.print();
    println!(
        "log-log slope of work/update vs batch size: {:.3} (paper: ~0)",
        loglog_slope(&pts)
    );
}
