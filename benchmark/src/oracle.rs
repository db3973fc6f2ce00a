//! Independent oracles: every answer the benchmark accepts is recomputed
//! here from the benchmark's own copy of the edge set, with breadth-first
//! search and retrograde game analysis — no code shared with `inflog-eval`.
//!
//! The paper's point makes this possible: each DATALOG¬ semantics is a
//! deterministic function of the EDB, so "the right answer at epoch n" is
//! well defined and cheap to compute for the graph programs we serve.

use std::collections::{BTreeSet, VecDeque};

/// The benchmark's own directed graph (adjacency lists, vertices `0..n`).
#[derive(Debug, Clone)]
pub struct Graph {
    succ: Vec<Vec<u32>>,
}

impl Graph {
    pub fn new(n: usize) -> Graph {
        Graph {
            succ: vec![Vec::new(); n],
        }
    }

    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    pub fn n(&self) -> usize {
        self.succ.len()
    }

    pub fn add_edge(&mut self, u: u32, v: u32) {
        if !self.has_edge(u, v) {
            self.succ[u as usize].push(v);
        }
    }

    pub fn remove_edge(&mut self, u: u32, v: u32) {
        self.succ[u as usize].retain(|&w| w != v);
    }

    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.succ[u as usize].contains(&v)
    }

    pub fn successors(&self, u: u32) -> &[u32] {
        &self.succ[u as usize]
    }

    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as u32, v)))
    }

    /// Vertices reachable from `u` by a path of at least one edge —
    /// `S(u, ·)` of the transitive-closure program.
    pub fn reach(&self, u: u32) -> Vec<bool> {
        self.reach_where(u, |_| true)
    }

    /// Like [`Graph::reach`], but a step *into* `y` beyond the first edge
    /// is taken only when `step_ok(y)`: the shape of
    /// `Safe(x,y) :- Safe(x,z), Move(z,y), !Win(y)`.
    fn reach_where(&self, u: u32, step_ok: impl Fn(u32) -> bool) -> Vec<bool> {
        let mut seen = vec![false; self.n()];
        let mut queue = VecDeque::new();
        for &v in self.successors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v);
            }
        }
        while let Some(z) = queue.pop_front() {
            for &y in self.successors(z) {
                if !seen[y as usize] && step_ok(y) {
                    seen[y as usize] = true;
                    queue.push_back(y);
                }
            }
        }
        seen
    }

    /// Length of the shortest nonempty path from `u` to each vertex.
    pub fn distances(&self, u: u32) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.n()];
        let mut queue = VecDeque::new();
        for &v in self.successors(u) {
            if dist[v as usize].is_none() {
                dist[v as usize] = Some(1);
                queue.push_back(v);
            }
        }
        while let Some(z) = queue.pop_front() {
            let d = dist[z as usize].expect("queued vertices have a distance");
            for &y in self.successors(z) {
                if dist[y as usize].is_none() {
                    dist[y as usize] = Some(d + 1);
                    queue.push_back(y);
                }
            }
        }
        dist
    }

    /// Number of `(u, v)` pairs joined by a nonempty path.
    pub fn closure_pairs(&self) -> usize {
        (0..self.n() as u32)
            .map(|u| self.reach(u).iter().filter(|&&b| b).count())
            .sum()
    }

    pub fn is_strongly_connected(&self) -> bool {
        let n = self.n();
        (0..n as u32).all(|u| self.reach(u).iter().filter(|&&b| b).count() == n)
    }
}

/// A goal of the `tc_cut` program, in vertex ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcGoal {
    /// `S(a, b)`
    Point(u32, u32),
    /// `S(a, y)`
    Prefix(u32),
    /// `Cut(a, y)`
    CutFrom(u32),
    /// `Cut(x, y)`
    CutAll,
    /// `S(x, y)` — the whole closure, used for the final-model check.
    SAll,
}

/// The answer to `goal` over `g` under the stratified semantics of
/// `S = TC(E)`, `Cut(x,y) :- E(x,y), !S(y,x)`, as a set of vertex pairs.
pub fn tc_cut_answer(g: &Graph, goal: TcGoal) -> BTreeSet<(u32, u32)> {
    let cut_from = |x: u32, out: &mut BTreeSet<(u32, u32)>| {
        for &y in g.successors(x) {
            if !g.reach(y)[x as usize] {
                out.insert((x, y));
            }
        }
    };
    let mut out = BTreeSet::new();
    match goal {
        TcGoal::Point(a, b) => {
            if g.reach(a)[b as usize] {
                out.insert((a, b));
            }
        }
        TcGoal::Prefix(a) => {
            for (y, &hit) in g.reach(a).iter().enumerate() {
                if hit {
                    out.insert((a, y as u32));
                }
            }
        }
        TcGoal::CutFrom(a) => cut_from(a, &mut out),
        TcGoal::CutAll => {
            for x in 0..g.n() as u32 {
                cut_from(x, &mut out);
            }
        }
        TcGoal::SAll => {
            for x in 0..g.n() as u32 {
                for (y, &hit) in g.reach(x).iter().enumerate() {
                    if hit {
                        out.insert((x, y as u32));
                    }
                }
            }
        }
    }
    out
}

/// A relation as the engines hand it over: one `Vec` of vertex ids per tuple.
pub type Rows = BTreeSet<Vec<u32>>;

fn rows1(set: &BTreeSet<u32>) -> Rows {
    set.iter().map(|&v| vec![v]).collect()
}

pub fn rows2(set: &BTreeSet<(u32, u32)>) -> Rows {
    set.iter().map(|&(a, b)| vec![a, b]).collect()
}

/// Whether `s` and `cut` are the whole `S` and `Cut` of `tc_cut` over `g`.
pub fn tc_cut_matches(g: &Graph, s: &Rows, cut: &Rows) -> bool {
    *s == rows2(&tc_cut_answer(g, TcGoal::SAll)) && *cut == rows2(&tc_cut_answer(g, TcGoal::CutAll))
}

/// Game value of a position for the player to move, in the game
/// `Win(x) :- Move(x,y), !Win(y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `Win(x)` is true: some move reaches a lost position.
    Won,
    /// `Win(x)` is false: every move (possibly none) reaches a won one.
    Lost,
    /// `Win(x)` is undefined in the well-founded model.
    Drawn,
}

/// Retrograde analysis: positions without moves are lost; a position with
/// a move into a lost one is won; a position whose moves all lead to won
/// ones is lost; whatever is never labelled is drawn.
pub fn solve_game(moves: &Graph) -> Vec<Outcome> {
    let n = moves.n();
    let mut pred: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, v) in moves.edges() {
        pred[v as usize].push(u);
    }
    let mut open_moves: Vec<usize> = (0..n as u32).map(|u| moves.successors(u).len()).collect();
    let mut value = vec![Outcome::Drawn; n];
    let mut queue: VecDeque<u32> = VecDeque::new();
    for u in 0..n {
        if open_moves[u] == 0 {
            value[u] = Outcome::Lost;
            queue.push_back(u as u32);
        }
    }
    while let Some(v) = queue.pop_front() {
        for &u in &pred[v as usize] {
            if value[u as usize] != Outcome::Drawn {
                continue;
            }
            match value[v as usize] {
                Outcome::Lost => {
                    value[u as usize] = Outcome::Won;
                    queue.push_back(u);
                }
                Outcome::Won => {
                    open_moves[u as usize] -= 1;
                    if open_moves[u as usize] == 0 {
                        value[u as usize] = Outcome::Lost;
                        queue.push_back(u);
                    }
                }
                Outcome::Drawn => unreachable!("only labelled positions are queued"),
            }
        }
    }
    value
}

/// The three-valued model of `wf_win_reach` over `moves`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WinReachModel {
    pub win_true: BTreeSet<u32>,
    pub win_undef: BTreeSet<u32>,
    pub safe_true: BTreeSet<(u32, u32)>,
    pub safe_undef: BTreeSet<(u32, u32)>,
}

impl WinReachModel {
    /// Whether (true, undefined) `win` and `safe` are exactly this model.
    pub fn matches(&self, win: &(Rows, Rows), safe: &(Rows, Rows)) -> bool {
        win.0 == rows1(&self.win_true)
            && win.1 == rows1(&self.win_undef)
            && safe.0 == rows2(&self.safe_true)
            && safe.1 == rows2(&self.safe_undef)
    }
}

/// `Win` by retrograde analysis; `Safe` by two constrained searches — one
/// that uses a negative literal only when it is certainly true (`Win`
/// false), one that also uses it when it is merely not false (`Win` not
/// true). The first gives the true facts, the difference the undefined.
pub fn win_reach_model(moves: &Graph) -> WinReachModel {
    let value = solve_game(moves);
    let mut m = WinReachModel::default();
    for (u, v) in value.iter().enumerate() {
        match v {
            Outcome::Won => {
                m.win_true.insert(u as u32);
            }
            Outcome::Drawn => {
                m.win_undef.insert(u as u32);
            }
            Outcome::Lost => {}
        }
    }
    for x in 0..moves.n() as u32 {
        let certainly = |v: u32| value[v as usize] == Outcome::Lost;
        let possibly = |v: u32| value[v as usize] != Outcome::Won;
        let sure = if certainly(x) {
            moves.reach_where(x, certainly)
        } else {
            vec![false; moves.n()]
        };
        let maybe = if possibly(x) {
            moves.reach_where(x, possibly)
        } else {
            vec![false; moves.n()]
        };
        for y in 0..moves.n() {
            if sure[y] {
                m.safe_true.insert((x, y as u32));
            } else if maybe[y] {
                m.safe_undef.insert((x, y as u32));
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|u| (u, u + 1)).collect();
        Graph::from_edges(n as usize, &edges)
    }

    fn cycle(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        Graph::from_edges(n as usize, &edges)
    }

    fn pairs(v: &[(u32, u32)]) -> BTreeSet<(u32, u32)> {
        v.iter().copied().collect()
    }

    #[test]
    fn tc_cut_on_a_path() {
        let g = path(4);
        assert_eq!(g.closure_pairs(), 6);
        assert_eq!(tc_cut_answer(&g, TcGoal::Point(0, 3)), pairs(&[(0, 3)]));
        assert!(tc_cut_answer(&g, TcGoal::Point(3, 0)).is_empty());
        assert_eq!(
            tc_cut_answer(&g, TcGoal::Prefix(1)),
            pairs(&[(1, 2), (1, 3)])
        );
        // No edge lies on a cycle, so every edge is a cut edge.
        assert_eq!(
            tc_cut_answer(&g, TcGoal::CutAll),
            pairs(&[(0, 1), (1, 2), (2, 3)])
        );
        assert_eq!(tc_cut_answer(&g, TcGoal::CutFrom(2)), pairs(&[(2, 3)]));
    }

    #[test]
    fn tc_cut_on_a_cycle() {
        let g = cycle(3);
        assert!(g.is_strongly_connected());
        assert_eq!(tc_cut_answer(&g, TcGoal::SAll).len(), 9);
        assert_eq!(tc_cut_answer(&g, TcGoal::Point(1, 1)), pairs(&[(1, 1)]));
        // Every edge lies on the cycle: negation removes all of Cut.
        assert!(tc_cut_answer(&g, TcGoal::CutAll).is_empty());
    }

    #[test]
    fn closing_a_cycle_removes_cut_edges_and_reopening_restores_them() {
        let mut g = path(3);
        assert_eq!(tc_cut_answer(&g, TcGoal::CutAll).len(), 2);
        g.add_edge(2, 0);
        assert!(tc_cut_answer(&g, TcGoal::CutAll).is_empty());
        assert_eq!(g.closure_pairs(), 9);
        g.remove_edge(2, 0);
        assert_eq!(tc_cut_answer(&g, TcGoal::CutAll).len(), 2);
        assert_eq!(g.closure_pairs(), 3);
    }

    #[test]
    fn game_on_a_path_alternates_from_the_sink() {
        // v3 has no move: lost. v2 moves into it: won. v1: lost. v0: won.
        let value = solve_game(&path(4));
        assert_eq!(
            value,
            vec![Outcome::Won, Outcome::Lost, Outcome::Won, Outcome::Lost]
        );
        let m = win_reach_model(&path(4));
        assert_eq!(m.win_true, [0, 2].into_iter().collect());
        assert!(m.win_undef.is_empty() && m.safe_undef.is_empty());
        // Safe starts only at lost positions (v1, v3) and continues only
        // into lost ones: v1 -> v2 by the base rule, then v3 (lost).
        assert_eq!(m.safe_true, pairs(&[(1, 2), (1, 3)]));
    }

    #[test]
    fn odd_cycle_and_two_cycle_are_drawn_and_undefined() {
        for g in [cycle(3), cycle(2)] {
            let m = win_reach_model(&g);
            assert!(m.win_true.is_empty());
            assert_eq!(m.win_undef.len(), g.n());
            assert!(m.safe_true.is_empty());
            // From a drawn position every vertex of the cycle is possibly
            // safe-reachable, itself included.
            assert_eq!(m.safe_undef.len(), g.n() * g.n());
        }
    }

    #[test]
    fn a_draw_with_an_exit_mixes_all_three_values() {
        // 0 <-> 1 is a 2-cycle; 1 -> 2 -> 3, 3 is a sink.
        // 3 lost, 2 won, so 1's exit reaches a won position: 1 is not
        // rescued by it and stays drawn with 0.
        let g = Graph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3)]);
        let value = solve_game(&g);
        assert_eq!(
            value,
            vec![Outcome::Drawn, Outcome::Drawn, Outcome::Won, Outcome::Lost]
        );
        let m = win_reach_model(&g);
        assert_eq!(m.win_true, [2].into_iter().collect());
        assert_eq!(m.win_undef, [0, 1].into_iter().collect());
        assert!(m.safe_true.is_empty(), "no lost position has a move");
        // From 1 (drawn): base rule gives 0 and 2; the step 2 -> 3 needs
        // !Win(3), which is true, so 3 is possibly reachable too.
        assert!(m.safe_undef.contains(&(1, 2)) && m.safe_undef.contains(&(1, 3)));
        // From 0: 0 -> 1 by the base rule, 1 -> 2 needs !Win(2): false.
        assert!(m.safe_undef.contains(&(0, 1)) && !m.safe_undef.contains(&(0, 2)));
    }
}
