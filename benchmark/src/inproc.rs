//! The three in-process workloads: `eval_positive`, `eval_negation`
//! (batch evaluation from source text) and `maintain_churn` (bare
//! incremental repair). Store and server are bypassed.

use crate::api::{self, Database, EngineKind, Model};
use crate::gen::{self, Dataset, WritePair};
use crate::oracle::{self, rows2, Graph, Rows};
use crate::stats::{quantile, tail};
use crate::wire::peak_rss_mb;
use crate::{Metric, Outcome, Params};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// One evaluation case: program text, engine, input.
pub struct Case {
    pub name: &'static str,
    pub src: String,
    pub kind: EngineKind,
    pub data: Dataset,
    pub db: Database,
}

fn case(
    name: &'static str,
    src: &str,
    kind: EngineKind,
    relation: &'static str,
    data: Dataset,
) -> Case {
    Case {
        name,
        src: src.to_string(),
        kind,
        db: api::graph_db(relation, data.n, &data.edges),
        data,
    }
}

/// `eval_positive`: `tc_path` (599 rounds of tiny deltas — driver and
/// round overhead) and `tc_gnp` (few rounds, 40 K tuples — join + dedup).
fn positive_cases(seed: u64) -> Vec<Case> {
    vec![
        case(
            "tc_path",
            gen::TC,
            EngineKind::Seminaive,
            "E",
            gen::path600(),
        ),
        case(
            "tc_gnp",
            gen::TC,
            EngineKind::Seminaive,
            "E",
            gen::gnp200(seed),
        ),
    ]
}

/// `eval_negation`: the paper's §4 distance program under inflationary
/// and stratified semantics — Proposition 2's separation, two different
/// answers from one program — and a win/reach game under the well-founded
/// semantics (three-valued).
fn negation_cases(seed: u64) -> Vec<Case> {
    let distance = api::distance_program_text();
    let g20 = gen::gnp20(seed);
    vec![
        case(
            "infl_distance",
            &distance,
            EngineKind::Inflationary,
            "E",
            g20.clone(),
        ),
        case(
            "strat_distance",
            &distance,
            EngineKind::Stratified,
            "E",
            g20,
        ),
        case(
            "wf_win_reach",
            gen::WIN_REACH,
            EngineKind::WellFounded,
            "Move",
            gen::gnp96(seed),
        ),
    ]
}

/// One case from source text to model — what `eval_pass` times.
pub fn evaluate(case: &Case) -> Model {
    let program = api::parse_program(&case.src);
    api::run_engine(case.kind, &program, &case.db)
}

fn quads_of(set: &api::Quads) -> BTreeSet<Vec<u32>> {
    set.iter().map(|&(a, b, c, d)| vec![a, b, c, d]).collect()
}

/// Whether `model` is exactly what the case's independent oracle says.
pub fn model_is_correct(case: &Case, model: &Model) -> bool {
    let program = api::parse_program(&case.src);
    let cp = api::compile(&program, &case.db);
    let truths = |pred: &str| api::idb_tuples(&cp, &model.truths, pred);
    let undefined = |pred: &str| match &model.undefined {
        Some(u) => api::idb_tuples(&cp, u, pred),
        None => Rows::new(),
    };
    let g = case.data.graph();
    match case.name {
        "tc_path" | "tc_gnp" => {
            truths("S") == rows2(&api::transitive_closure(case.data.n, &case.data.edges))
        }
        "infl_distance" | "strat_distance" => {
            let (infl, strat) = api::distance_baselines(case.data.n, &case.data.edges);
            let closure = rows2(&oracle::tc_cut_answer(&g, oracle::TcGoal::SAll));
            let s3 = if case.name == "infl_distance" {
                infl
            } else {
                strat
            };
            truths("S1") == closure && truths("S2") == closure && truths("S3") == quads_of(&s3)
        }
        "wf_win_reach" => oracle::win_reach_model(&g).matches(
            &(truths("Win"), undefined("Win")),
            &(truths("Safe"), undefined("Safe")),
        ),
        other => unreachable!("unknown case {other}"),
    }
}

pub fn eval_cases(workload: &str, seed: u64) -> (Vec<Case>, &'static str) {
    match workload {
        "eval_positive" => (positive_cases(seed), "tc_path"),
        "eval_negation" => (negation_cases(seed), "wf_win_reach"),
        other => unreachable!("not an evaluation workload: {other}"),
    }
}

const WARM_PASSES: usize = 2;

/// One fresh repetition of an evaluation workload, untraced. `ops_s`
/// counts passes; `p50_us`/`tail_us` are one pass (every case, source text
/// to model); `alt_p50_us` is the case least like the others.
pub fn run_eval(p: &Params) -> Outcome {
    let t0 = Instant::now();
    let (cases, alt_case) = eval_cases(p.workload, p.seed);
    for _ in 0..WARM_PASSES {
        for c in &cases {
            std::hint::black_box(evaluate(c));
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let alt_idx = cases
        .iter()
        .position(|c| c.name == alt_case)
        .expect("alt case");

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut sizes: Vec<Option<usize>> = vec![None; cases.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let start = Instant::now();
    let (mut pass_us, mut alt_us) = (Vec::new(), Vec::new());
    let mut last: Vec<Model> = Vec::new();
    while pass_us.is_empty() || Instant::now() < deadline {
        let t_pass = Instant::now();
        last.clear();
        for (i, c) in cases.iter().enumerate() {
            let t0 = Instant::now();
            let model = evaluate(c);
            if i == alt_idx {
                alt_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            attempted += 1;
            // Every pass must reproduce the size the checked model has.
            if *sizes[i].get_or_insert(model.tuples()) != model.tuples() {
                failed += 1;
            }
            last.push(model);
        }
        pass_us.push(t_pass.elapsed().as_secs_f64() * 1e6);
    }
    let wall = start.elapsed().as_secs_f64();
    // Before the oracle comparisons below allocate their own sets.
    let peak = peak_rss_mb("/proc/self/status");
    for (c, model) in cases.iter().zip(&last) {
        failed += u64::from(!model_is_correct(c, model));
    }
    let passes = pass_us.len() as u64;
    Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::one("setup_s", setup_s, 1),
            Metric::one("ops_s", passes as f64 / wall, passes),
            Metric::one("p50_us", quantile(&mut pass_us, 0.5), passes),
            Metric::one("tail_us", tail(&mut pass_us), passes),
            Metric::one("alt_p50_us", quantile(&mut alt_us, 0.5), passes),
            Metric::one("peak_rss_mb", peak, 1),
        ],
    }
}

/// `maintain_churn`'s handle and write sequence: `tc_cut` (stratified)
/// over `gnp160`, bare `Materialized` — no store, no server.
pub struct Churn {
    pub data: Dataset,
    pub db: Database,
    pub program: api::Program,
    pub pairs: Vec<WritePair>,
}

pub fn churn_inputs(seed: u64) -> Churn {
    let data = gen::gnp160(seed);
    Churn {
        db: api::graph_db("E", data.n, &data.edges),
        program: api::parse_program(gen::TC_CUT),
        pairs: gen::wseq_any(seed, &data, 2000),
        data,
    }
}

/// Whether a `tc_cut` handle holds exactly the oracle's `S` and `Cut` for
/// `g`, nothing undefined. (On `gnp160`, strongly connected, that is every
/// pair in `S` and nothing in `Cut`: every edge lies on a cycle.)
pub fn tc_cut_model_ok(m: &api::Materialized, g: &Graph) -> bool {
    let (s, s_undef) = api::mat_tuples(m, "S");
    let (cut, cut_undef) = api::mat_tuples(m, "Cut");
    oracle::tc_cut_matches(g, &s, &cut) && s_undef.is_empty() && cut_undef.is_empty()
}

const WARM_PAIRS: usize = 2;

/// One fresh repetition of `maintain_churn`, untraced: `ops_s` counts
/// updates; `p50_us`/`tail_us` are INSERT, `alt_p50_us` is RETRACT.
pub fn run_churn(p: &Params) -> Outcome {
    let t0 = Instant::now();
    let churn = churn_inputs(p.seed);
    let mut m = api::mat_new(&churn.program, &churn.db, EngineKind::Stratified);
    for pair in &churn.pairs[..WARM_PAIRS] {
        api::mat_insert(&mut m, "E", pair.u, pair.v);
        api::mat_retract(&mut m, "E", pair.u, pair.v);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let full = api::mat_total_tuples(&m);

    let mut failed = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let start = Instant::now();
    let (mut ins_us, mut ret_us) = (Vec::new(), Vec::new());
    for pair in churn.pairs.iter().cycle() {
        if !ins_us.is_empty() && Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        let added = api::mat_insert(&mut m, "E", pair.u, pair.v);
        ins_us.push(t0.elapsed().as_secs_f64() * 1e6);
        // Strongly connected already: the closure must not move.
        failed += u64::from(added != 1 || api::mat_total_tuples(&m) != full);
        let t0 = Instant::now();
        let removed = api::mat_retract(&mut m, "E", pair.u, pair.v);
        ret_us.push(t0.elapsed().as_secs_f64() * 1e6);
        failed += u64::from(removed != 1 || api::mat_total_tuples(&m) != full);
    }
    let wall = start.elapsed().as_secs_f64();
    let peak = peak_rss_mb("/proc/self/status");
    failed += u64::from(!tc_cut_model_ok(&m, &churn.data.graph()));
    let pairs = ins_us.len() as u64;
    Outcome {
        attempted: 2 * pairs,
        failed,
        metrics: vec![
            Metric::one("setup_s", setup_s, 1),
            Metric::one("ops_s", 2.0 * pairs as f64 / wall, 2 * pairs),
            Metric::one("p50_us", quantile(&mut ins_us, 0.5), pairs),
            Metric::one("tail_us", tail(&mut ins_us), pairs),
            Metric::one("alt_p50_us", quantile(&mut ret_us, 0.5), pairs),
            Metric::one("peak_rss_mb", peak, 1),
        ],
    }
}
