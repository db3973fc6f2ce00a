//! Seeded input generators: datasets, programs, the read mix and the write
//! sequence. The program under test only ever receives what is generated
//! here (a facts file, program text, request lines).
//!
//! Random graphs of one `G(n, p)` family differ a lot in the sizes that
//! decide cost — closure pairs, strongly-connectedness, how many game
//! positions are drawn — so a different seed would otherwise be a
//! different-sized problem (measured over 24 seeds: `random_gnp(20, 0.12)`
//! gives 0 to 40 K tuples under the stratified distance program). Every
//! dataset is therefore drawn by **rejection into a size window**: the
//! seed picks the instance, the window fixes the problem size, and runs
//! with different seeds stay comparable.

use crate::api::{self, Rng};
use crate::oracle::{self, Graph, TcGoal};
use rand::seq::SliceRandom;
use rand::Rng as _;

pub const TC: &str = "S(x,y) :- E(x,y).\nS(x,y) :- S(x,z), E(z,y).\n";
pub const TC_CUT: &str =
    "S(x,y) :- E(x,y).\nS(x,y) :- S(x,z), E(z,y).\nCut(x,y) :- E(x,y), !S(y,x).\n";
pub const WIN_REACH: &str = "Win(x) :- Move(x,y), !Win(y).\n\
     Safe(x,y) :- Move(x,y), !Win(x).\n\
     Safe(x,y) :- Safe(x,z), Move(z,y), !Win(y).\n";

/// A graph dataset: `n` vertices named `v0..`, one binary relation.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub n: usize,
    pub edges: Vec<(u32, u32)>,
}

impl Dataset {
    pub fn graph(&self) -> Graph {
        Graph::from_edges(self.n, &self.edges)
    }
}

/// Draws until `accept` holds. The windows below accept between 1 in 10
/// and 1 in 100 draws; the cap only guards against a window edited into
/// impossibility.
fn draw_until(
    what: &str,
    rng: &mut Rng,
    mut draw: impl FnMut(&mut Rng) -> Vec<(u32, u32)>,
    accept: impl Fn(&[(u32, u32)]) -> bool,
) -> Vec<(u32, u32)> {
    for _ in 0..200_000 {
        let edges = draw(rng);
        if accept(&edges) {
            return edges;
        }
    }
    panic!("{what}: no draw fell inside the size window");
}

fn within(x: usize, lo: usize, hi: usize) -> bool {
    (lo..=hi).contains(&x)
}

pub const COMMUNITIES: usize = 8;
pub const COMMUNITY_SIZE: usize = 128;

/// `dagc8x128`: 8 disjoint communities, each a `random_dag(128, 0.05)`
/// with 398–414 edges and 2 380–2 460 closure pairs: 1 024 vertices,
/// ≈3.2 K edges, ≈19.4 K closure pairs.
pub fn dagc8x128(seed: u64) -> Dataset {
    let mut rng = api::rng(seed ^ 0xDA6C);
    let mut edges = Vec::new();
    for c in 0..COMMUNITIES {
        let community = draw_until(
            "dagc8x128",
            &mut rng,
            |r| api::random_dag(COMMUNITY_SIZE, 0.05, r),
            |e| {
                within(e.len(), 398, 414)
                    && within(
                        Graph::from_edges(COMMUNITY_SIZE, e).closure_pairs(),
                        2380,
                        2460,
                    )
            },
        );
        let off = (c * COMMUNITY_SIZE) as u32;
        edges.extend(community.into_iter().map(|(u, v)| (u + off, v + off)));
    }
    Dataset {
        n: COMMUNITIES * COMMUNITY_SIZE,
        edges,
    }
}

/// A strongly connected `random_gnp(n, p)` with an edge count inside
/// `[lo, hi]`: the closure is all `n²` pairs for every seed.
fn strongly_connected_gnp(
    what: &str,
    seed: u64,
    n: usize,
    p: f64,
    lo: usize,
    hi: usize,
) -> Dataset {
    let mut rng = api::rng(seed);
    let edges = draw_until(
        what,
        &mut rng,
        |r| api::random_gnp(n, p, r),
        |e| within(e.len(), lo, hi) && Graph::from_edges(n, e).is_strongly_connected(),
    );
    Dataset { n, edges }
}

/// `gnp160`: strongly connected `random_gnp(160, 0.03)`, 752–774 edges,
/// closure = all 25 600 pairs.
pub fn gnp160(seed: u64) -> Dataset {
    strongly_connected_gnp("gnp160", seed ^ 0x160, 160, 0.03, 752, 774)
}

/// `tc_gnp`'s input: strongly connected `random_gnp(200, 0.03)`,
/// 1 182–1 206 edges, closure = all 40 000 pairs.
pub fn gnp200(seed: u64) -> Dataset {
    strongly_connected_gnp("gnp200", seed ^ 0x200, 200, 0.03, 1182, 1206)
}

/// `tc_path`'s input: the path `v0 -> v1 -> … -> v599` (599 rounds of
/// one-tuple-wide deltas; the same for every seed by construction).
pub fn path600() -> Dataset {
    Dataset {
        n: 600,
        edges: (0..599).map(|u| (u, u + 1)).collect(),
    }
}

/// Tuple counts the §4 distance program has over `g` under its two
/// readings, from the distance histogram alone: (inflationary, stratified).
pub fn distance_sizes(g: &Graph) -> (usize, usize) {
    let n = g.n();
    let mut hist = vec![0usize; n + 1];
    for u in 0..n as u32 {
        for d in g.distances(u).into_iter().flatten() {
            hist[d] += 1;
        }
    }
    let reachable: usize = hist.iter().sum();
    let unreachable = n * n - reachable;
    let mut at_least = 0; // pairs at distance >= d, accumulated from the far end
    let mut infl = 0;
    for d in (1..=n).rev() {
        at_least += hist[d];
        infl += hist[d] * (unreachable + at_least);
    }
    (infl, reachable * unreachable)
}

/// The seed of the two shapes that are drawn once (see [`relabel`]).
const SHAPE: u64 = 1988;

/// The same graph with its vertices renamed by a seeded permutation and
/// its facts in a seeded order.
///
/// `eval_negation`'s two inputs are this: one shape, drawn from a
/// constant, relabelled by the seed. At 20 and 96 vertices the cost of
/// those programs follows the graph's *shape* — how many rounds the
/// distances take, how the game's draws chain — far more than any size we
/// can put a window on (measured over 16 draws that all pass the windows
/// below: 19–35 ms for `wf_win_reach`, 20–26 ms for `infl_distance`), so a
/// seeded shape would make every seed a different problem. The four
/// larger datasets are drawn from the seed itself.
pub fn relabel(data: &Dataset, seed: u64) -> Dataset {
    let mut rng = api::rng(seed ^ 0x4E1A);
    let mut name: Vec<u32> = (0..data.n as u32).collect();
    name.shuffle(&mut rng);
    let mut edges: Vec<(u32, u32)> = data
        .edges
        .iter()
        .map(|&(u, v)| (name[u as usize], name[v as usize]))
        .collect();
    edges.shuffle(&mut rng);
    Dataset { n: data.n, edges }
}

/// The distance cases' input: a `random_gnp(20, 0.12)` with 264–274
/// closure pairs and 78–80 K tuples under the inflationary reading (≈35 K
/// under the stratified one) — Proposition 2's separation at one fixed
/// size — relabelled by the seed.
pub fn gnp20(seed: u64) -> Dataset {
    relabel(&gnp20_shape(), seed)
}

fn gnp20_shape() -> Dataset {
    let seed = SHAPE;
    let mut rng = api::rng(seed ^ 0x20);
    let edges = draw_until(
        "gnp20",
        &mut rng,
        |r| api::random_gnp(20, 0.12, r),
        |e| {
            let g = Graph::from_edges(20, e);
            within(g.closure_pairs(), 264, 274) && within(distance_sizes(&g).0, 78_000, 80_000)
        },
    );
    Dataset { n: 20, edges }
}

/// `wf_win_reach`'s input: a `random_gnp(96, 0.04)` whose game has 17–23
/// won and 66–74 drawn positions and 4 750–5 050 `Safe` facts (true or
/// undefined), relabelled by the seed.
pub fn gnp96(seed: u64) -> Dataset {
    relabel(&gnp96_shape(), seed)
}

fn gnp96_shape() -> Dataset {
    let seed = SHAPE;
    let mut rng = api::rng(seed ^ 0x96);
    let edges = draw_until(
        "gnp96",
        &mut rng,
        |r| api::random_gnp(96, 0.04, r),
        |e| {
            let m = oracle::win_reach_model(&Graph::from_edges(96, e));
            within(m.win_true.len(), 17, 23)
                && within(m.win_undef.len(), 66, 74)
                && within(m.safe_true.len() + m.safe_undef.len(), 4750, 5050)
        },
    );
    Dataset { n: 96, edges }
}

// ----- requests -------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadClass {
    Point,
    Prefix,
    Cut,
    Open,
}

pub const READ_CLASSES: [ReadClass; 4] = [
    ReadClass::Point,
    ReadClass::Prefix,
    ReadClass::Cut,
    ReadClass::Open,
];

#[derive(Debug, Clone)]
pub struct ReadReq {
    pub class: ReadClass,
    pub goal: TcGoal,
    /// The protocol line, newline included.
    pub line: String,
}

fn q(v: u32) -> String {
    format!("'{}'", api::vertex_name(v))
}

pub fn goal_text(goal: TcGoal) -> String {
    match goal {
        TcGoal::Point(a, b) => format!("S({}, {})", q(a), q(b)),
        TcGoal::Prefix(a) => format!("S({}, y)", q(a)),
        TcGoal::CutFrom(a) => format!("Cut({}, y)", q(a)),
        TcGoal::CutAll => "Cut(x, y)".to_string(),
        TcGoal::SAll => "S(x, y)".to_string(),
    }
}

pub fn read_req(class: ReadClass, goal: TcGoal) -> ReadReq {
    ReadReq {
        class,
        goal,
        line: format!("QUERY {}\n", goal_text(goal)),
    }
}

/// `rmix`: a shuffled pool with exact class shares — 60 % `point`
/// `S('a','b')` with `b` in `a`'s community, 30 % `prefix` `S('a', y)`,
/// 9 % `Cut('a', y)`, 1 % `open` `Cut(x, y)`. Exact shares rather than
/// per-request coin flips: one `open` reply is ≈3.2 K lines, so a pool
/// that drew 70 of them instead of 80 would be a lighter workload.
pub fn rmix(seed: u64, stream: u64, len: usize) -> Vec<ReadReq> {
    let mut rng = api::rng(seed ^ 0x7E4D ^ (stream << 32));
    let n = (COMMUNITIES * COMMUNITY_SIZE) as u32;
    let mut pool = Vec::with_capacity(len);
    for i in 0..len {
        let a = rng.gen_range(0..n);
        let base = a - a % COMMUNITY_SIZE as u32;
        let slot = i * 100 / len;
        pool.push(match slot {
            0..=59 => read_req(
                ReadClass::Point,
                TcGoal::Point(a, base + rng.gen_range(0..COMMUNITY_SIZE as u32)),
            ),
            60..=89 => read_req(ReadClass::Prefix, TcGoal::Prefix(a)),
            90..=98 => read_req(ReadClass::Cut, TcGoal::CutFrom(a)),
            _ => read_req(ReadClass::Open, TcGoal::CutAll),
        });
    }
    pool.shuffle(&mut rng);
    pool
}

/// One insert-then-retract pair of `wseq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritePair {
    pub u: u32,
    pub v: u32,
}

pub fn write_line(insert: bool, pair: WritePair) -> String {
    format!(
        "{} E({}, {})\n",
        if insert { "INSERT" } else { "RETRACT" },
        q(pair.u),
        q(pair.v)
    )
}

/// `wseq` over a community DAG: seeded non-edges inside one community, in
/// a fixed rhythm of three forward pairs (`u < v`: stays acyclic, small
/// delta) and one backward pair (`u > v`, with `v` reaching `u`: closes a
/// cycle, so `S` gains a block and `Cut` loses tuples through the
/// negation). Each pair is retracted again, so the EDB is the base set
/// between pairs.
pub fn wseq_dag(seed: u64, data: &Dataset, len: usize) -> Vec<WritePair> {
    let mut rng = api::rng(seed ^ 0x5E9);
    let g = data.graph();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let backward = out.len() % 4 == 3;
        let a = rng.gen_range(0..data.n as u32);
        let base = a - a % COMMUNITY_SIZE as u32;
        let b = base + rng.gen_range(0..COMMUNITY_SIZE as u32);
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi {
            continue;
        }
        let pair = if backward {
            WritePair { u: hi, v: lo }
        } else {
            WritePair { u: lo, v: hi }
        };
        if g.has_edge(pair.u, pair.v) || (backward && !g.reach(lo)[hi as usize]) {
            continue;
        }
        out.push(pair);
    }
    out
}

/// `wseq` over a strongly connected graph: seeded non-edges, any
/// direction (the closure is already complete, so an insert derives
/// nothing new and the retract that follows must prove that nothing is
/// lost — the bad case for delete-and-rederive).
pub fn wseq_any(seed: u64, data: &Dataset, len: usize) -> Vec<WritePair> {
    let mut rng = api::rng(seed ^ 0x5E9);
    let g = data.graph();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let u = rng.gen_range(0..data.n as u32);
        let v = rng.gen_range(0..data.n as u32);
        if u != v && !g.has_edge(u, v) {
            out.push(WritePair { u, v });
        }
    }
    out
}

/// Facts file for `serve --create`: one `E('vA', 'vB')` per line.
pub fn facts_text(data: &Dataset) -> String {
    let mut s = String::new();
    for &(u, v) in &data.edges {
        s.push_str(&format!("E({}, {})\n", q(u), q(v)));
    }
    s
}

/// `--universe` argument: every vertex, so isolated vertices can be named
/// in writes.
pub fn universe_arg(data: &Dataset) -> String {
    (0..data.n as u32)
        .map(api::vertex_name)
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_windows_hold_on_other_seeds() {
        for seed in [1, 2, 77] {
            let d = dagc8x128(seed);
            assert_eq!(d.edges, dagc8x128(seed).edges);
            assert_eq!(d.n, 1024);
            assert!(within(d.graph().closure_pairs(), 8 * 2380, 8 * 2460));
            assert!(gnp160(seed).graph().is_strongly_connected());
            let (infl, strat) = distance_sizes(&gnp20(seed).graph());
            assert!(within(infl, 78_000, 80_000) && within(strat, 34_000, 36_000));
        }
        assert_ne!(dagc8x128(1).edges, dagc8x128(2).edges);
    }

    #[test]
    fn relabelling_keeps_the_shape_and_changes_the_names() {
        let (a, b) = (gnp96(1), gnp96(2));
        assert_ne!(a.edges, b.edges);
        let sizes = |d: &Dataset| {
            let m = oracle::win_reach_model(&d.graph());
            (
                d.edges.len(),
                m.win_true.len(),
                m.win_undef.len(),
                m.safe_true.len(),
                m.safe_undef.len(),
            )
        };
        assert_eq!(sizes(&a), sizes(&b));
        assert_eq!(
            distance_sizes(&gnp20(1).graph()),
            distance_sizes(&gnp20(2).graph())
        );
    }

    #[test]
    fn distance_sizes_agree_with_the_library_baselines() {
        let path = Dataset {
            n: 3,
            edges: vec![(0, 1), (1, 2)],
        };
        // Reachable: (0,1) and (1,2) at distance 1, (0,2) at 2; six pairs
        // unreachable. Inflationary: 2 * (6 + 3) + 1 * (6 + 1); stratified:
        // 3 reachable * 6 unreachable.
        assert_eq!(distance_sizes(&path.graph()), (25, 18));
        let cycle = Dataset {
            n: 3,
            edges: vec![(0, 1), (1, 2), (2, 0)],
        };
        // Everything reaches everything: nothing is left for `!S2`.
        assert_eq!(distance_sizes(&cycle.graph()), (54, 0));
        for d in [path, cycle, gnp20(5)] {
            let (infl, strat) = api::distance_baselines(d.n, &d.edges);
            assert_eq!(distance_sizes(&d.graph()), (infl.len(), strat.len()));
        }
    }

    #[test]
    fn rmix_has_exact_class_shares() {
        let pool = rmix(3, 0, 1000);
        let count = |c| pool.iter().filter(|r| r.class == c).count();
        assert_eq!(
            READ_CLASSES.map(count),
            [600, 300, 90, 10],
            "point/prefix/cut/open"
        );
        assert_ne!(rmix(3, 0, 1000)[0].line, rmix(3, 1, 1000)[0].line);
    }

    #[test]
    fn wseq_pairs_are_non_edges_and_every_fourth_closes_a_cycle() {
        let d = dagc8x128(4);
        let g = d.graph();
        for (i, p) in wseq_dag(4, &d, 40).iter().enumerate() {
            assert!(!g.has_edge(p.u, p.v));
            assert_eq!(p.u / 128, p.v / 128, "inside one community");
            assert_eq!(p.u > p.v, i % 4 == 3);
            if p.u > p.v {
                assert!(g.reach(p.v)[p.u as usize], "backward edge closes a cycle");
            }
        }
    }
}
