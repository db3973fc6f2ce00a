//! The signed predicate dependency graph of a program, and its condensation.
//!
//! The nodes are the IDB predicates (those heading some rule), numbered
//! densely in sorted-name order — the ids the evaluator's compiled program
//! gives them. A rule `P(..) :- .., Q(..), .., !R(..)` adds the edges
//! `P --> Q` (positive) and `P -!-> R` (negative) for every body atom over an
//! IDB predicate. Extensional predicates are fixed input: they add no node
//! and no edge.
//!
//! `condense` is Tarjan's strongly-connected-components algorithm over
//! dense ids and `(from, to, sign)` edges; it knows nothing about predicates,
//! so it serves any signed graph. Its components come in dependency order,
//! each flagged `recursive` and `has_negative_cycle`. A program is
//! stratifiable exactly when no component has a negative cycle, and then
//! [`DepGraph::strata`] is the longest path of negative edges over the
//! condensation.

use crate::ast::{Literal, Program};

/// The sign of a dependency edge: the body atom occurs positively or under
/// negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Sign {
    /// `P --> Q`: `P` depends on `Q` positively.
    Pos,
    /// `P -!-> Q`: `P` depends on `Q` through negation.
    Neg,
}

impl Sign {
    /// The arrow a witness cycle draws for this sign.
    fn arrow(self) -> &'static str {
        match self {
            Sign::Pos => "-->",
            Sign::Neg => "-!->",
        }
    }
}

/// A strongly connected component of a signed graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Member node ids, ascending.
    pub nodes: Vec<usize>,
    /// Whether an edge stays inside the component (a self-loop counts): its
    /// members depend on themselves.
    pub recursive: bool,
    /// Whether a negative edge stays inside the component: recursion
    /// through negation.
    pub has_negative_cycle: bool,
}

/// Tarjan's condensation of the graph on nodes `0..n`, where an edge
/// `(from, to, sign)` says `from` depends on `to`. Returns the components
/// in **dependency order** — every edge ends in its own component or an
/// earlier one — and each node's component index.
///
/// The order is deterministic for a given edge list. The traversal keeps an
/// explicit stack, so deep graphs cannot overflow the call stack.
pub(crate) fn condense(n: usize, edges: &[(usize, usize, Sign)]) -> (Vec<Component>, Vec<usize>) {
    let adj = adjacency(n, edges);
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut component_of = vec![UNSEEN; n];
    let mut components: Vec<Component> = Vec::new();
    let mut next = 0;
    // (node, position of the next out-edge to visit)
    let mut calls: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        calls.push((root, 0));
        while let Some(&(v, pos)) = calls.last() {
            if pos == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&(w, _)) = adj[v].get(pos) {
                calls.last_mut().expect("v is on the call stack").1 += 1;
                if index[w] == UNSEEN {
                    calls.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(parent, _)) = calls.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let c = components.len();
                let mut nodes = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    component_of[w] = c;
                    nodes.push(w);
                    if w == v {
                        break;
                    }
                }
                nodes.sort_unstable();
                components.push(Component {
                    nodes,
                    recursive: false,
                    has_negative_cycle: false,
                });
            }
        }
    }
    for &(from, to, sign) in edges {
        let c = component_of[from];
        if c == component_of[to] {
            components[c].recursive = true;
            components[c].has_negative_cycle |= sign == Sign::Neg;
        }
    }
    (components, component_of)
}

/// Per-node out-edges `(to, sign)`, in edge-list order.
fn adjacency(n: usize, edges: &[(usize, usize, Sign)]) -> Vec<Vec<(usize, Sign)>> {
    let mut adj = vec![Vec::new(); n];
    for &(from, to, sign) in edges {
        adj[from].push((to, sign));
    }
    adj
}

/// The signed dependency graph of a program's IDB predicates, with its
/// condensation.
#[derive(Debug, Clone)]
pub struct DepGraph {
    names: Vec<String>,
    /// `(head, body, sign)`, sorted and without duplicates.
    edges: Vec<(usize, usize, Sign)>,
    components: Vec<Component>,
    component_of: Vec<usize>,
}

impl DepGraph {
    /// Builds the graph of `program` and condenses it.
    pub fn new(program: &Program) -> Self {
        let names: Vec<String> = program.idb_predicates().into_iter().collect();
        let id = |p: &str| names.binary_search_by(|n| n.as_str().cmp(p)).ok();
        let mut edges = Vec::new();
        for rule in &program.rules {
            let head = id(&rule.head.predicate).expect("a rule head is an IDB predicate");
            for lit in &rule.body {
                let sign = match lit {
                    Literal::Pos(_) => Sign::Pos,
                    Literal::Neg(_) => Sign::Neg,
                    Literal::Eq(..) | Literal::Neq(..) => continue,
                };
                if let Some(body) = lit.atom().and_then(|a| id(&a.predicate)) {
                    edges.push((head, body, sign));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let (components, component_of) = condense(names.len(), &edges);
        DepGraph {
            names,
            edges,
            components,
            component_of,
        }
    }

    /// The IDB predicate names, by id (sorted).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The components, dependencies first.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Each predicate's stratum: the largest number of negative edges on a
    /// dependency path out of it. `None` when a component has a negative
    /// cycle (no stratification exists; see
    /// [`negative_cycle`](Self::negative_cycle)).
    ///
    /// This is the least labelling with `stratum(P) ≥ stratum(Q)` for
    /// every `P --> Q` and `stratum(P) > stratum(Q)` for every `P -!-> Q`:
    /// members of one component are equal, and a component sits on the
    /// highest of its dependencies, one higher across a negative edge.
    pub fn strata(&self) -> Option<Vec<usize>> {
        if self.components.iter().any(|c| c.has_negative_cycle) {
            return None;
        }
        let adj = adjacency(self.names.len(), &self.edges);
        let mut stratum = vec![0; self.names.len()];
        for (c, comp) in self.components.iter().enumerate() {
            let level = comp
                .nodes
                .iter()
                .flat_map(|&v| &adj[v])
                .filter(|&&(w, _)| self.component_of[w] != c)
                .map(|&(w, sign)| stratum[w] + usize::from(sign == Sign::Neg))
                .max()
                .unwrap_or(0);
            for &v in &comp.nodes {
                stratum[v] = level;
            }
        }
        Some(stratum)
    }

    /// A cycle through a negative edge, drawn as `P -!-> Q --> P`; `None`
    /// when the program is stratifiable.
    ///
    /// The witness is deterministic: the first negative edge inside the
    /// first component (in dependency order) that has one, closed by a
    /// shortest path back inside that component.
    pub fn negative_cycle(&self) -> Option<String> {
        let c = self.components.iter().position(|c| c.has_negative_cycle)?;
        let inside = |v: usize| self.component_of[v] == c;
        let &(from, to, _) = self
            .edges
            .iter()
            .find(|&&(f, t, s)| s == Sign::Neg && inside(f) && inside(t))?;
        // Breadth-first from `to` back to `from`, inside the component.
        let adj = adjacency(self.names.len(), &self.edges);
        let mut parent: Vec<Option<(usize, Sign)>> = vec![None; self.names.len()];
        let mut queue = std::collections::VecDeque::from([to]);
        let mut seen = vec![false; self.names.len()];
        seen[to] = true;
        while let Some(v) = queue.pop_front() {
            if v == from {
                break;
            }
            for &(w, sign) in &adj[v] {
                if inside(w) && !seen[w] {
                    seen[w] = true;
                    parent[w] = Some((v, sign));
                    queue.push_back(w);
                }
            }
        }
        let mut path = Vec::new();
        let mut v = from;
        while v != to {
            let (p, sign) = parent[v].expect("a component is strongly connected");
            path.push((p, sign));
            v = p;
        }
        path.push((from, Sign::Neg));
        let mut out = String::new();
        for &(v, sign) in path.iter().rev() {
            out.push_str(&format!("{} {} ", self.names[v], sign.arrow()));
        }
        out.push_str(&self.names[from]);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn graph(src: &str) -> DepGraph {
        DepGraph::new(&parse_program(src).unwrap())
    }

    #[test]
    fn ids_are_sorted_names_and_edges_are_signed() {
        let g = graph("B(x) :- E(x, y), !A(y). A(x) :- E(x, y), A(y). A(x) :- E(x, x).");
        assert_eq!(g.names(), ["A", "B"]);
        assert_eq!(g.edges, [(0, 0, Sign::Pos), (1, 0, Sign::Neg)]);
    }

    #[test]
    fn components_come_dependencies_first_with_flags() {
        let g = graph(
            "
            W(x) :- Move(x, y), !W(y).
            Safe(x, y) :- Move(x, y), !W(x).
            Safe(x, y) :- Safe(x, z), Move(z, y), !W(y).
            Top(x) :- Safe(x, x).
            ",
        );
        let order: Vec<&str> = g
            .components()
            .iter()
            .map(|c| g.names()[c.nodes[0]].as_str())
            .collect();
        assert_eq!(order, ["W", "Safe", "Top"]);
        let flags: Vec<(bool, bool)> = g
            .components()
            .iter()
            .map(|c| (c.recursive, c.has_negative_cycle))
            .collect();
        assert_eq!(flags, [(true, true), (true, false), (false, false)]);
        assert!(g.strata().is_none());
    }

    #[test]
    fn mutual_recursion_is_one_component() {
        let g = graph("P(x) :- E(x, y), Q(y). Q(x) :- E(x, y), !P(y). R(x) :- !Q(x), V(x).");
        assert_eq!(g.components().len(), 2);
        assert_eq!(g.components()[0].nodes, [0, 1]);
        assert!(g.components()[0].has_negative_cycle);
        assert_eq!(g.components()[1].nodes, [2]);
    }

    #[test]
    fn strata_are_longest_negative_paths() {
        let g = graph(
            "
            A(x) :- V(x).
            B(x) :- V(x), !A(x).
            C(x) :- V(x), !B(x).
            D(x) :- C(x), A(x).
            S(x, y) :- E(x, y).
            S(x, y) :- E(x, z), S(z, y).
            ",
        );
        assert_eq!(g.strata().unwrap(), [0, 1, 2, 2, 0]);
    }

    #[test]
    fn condense_handles_a_long_chain_without_recursion() {
        let n = 100_000;
        let edges: Vec<(usize, usize, Sign)> = (1..n).map(|v| (v, v - 1, Sign::Pos)).collect();
        let (components, component_of) = condense(n, &edges);
        assert_eq!(components.len(), n);
        assert!(component_of.iter().enumerate().all(|(v, &c)| v == c));
    }
}
