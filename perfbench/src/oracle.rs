//! Plain-Rust reference implementations. Nothing here touches `gbtl`
//! or the DSL: each oracle works on the raw edge list, so a defect in
//! any layer under test shows up as a mismatch instead of being shared
//! by the reference.

use std::collections::VecDeque;

/// Directed edges `(src, dst, weight)` over `n` vertices.
pub struct Graph {
    /// Vertex count.
    pub n: usize,
    /// Out-neighbours with weights, per vertex, in edge-list order.
    pub out: Vec<Vec<(usize, f64)>>,
}

impl Graph {
    /// Adjacency lists of an edge list; a repeated `(src, dst)` pair
    /// keeps the last weight, as the container builders do.
    pub fn new(n: usize, edges: &[(usize, usize, f64)]) -> Graph {
        let mut out: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(s, d, w) in edges {
            match out[s].iter_mut().find(|(x, _)| *x == d) {
                Some(slot) => slot.1 = w,
                None => out[s].push((d, w)),
            }
        }
        for row in &mut out {
            row.sort_by_key(|&(d, _)| d);
        }
        Graph { n, out }
    }

    /// Number of stored edges.
    pub fn nnz(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }
}

/// Queue BFS along out-edges. Levels are 1-based (the source is level
/// 1), as the DSL and native BFS report them; unreached vertices are
/// absent.
pub fn bfs_levels(g: &Graph, source: usize) -> Vec<(usize, u64)> {
    let mut level = vec![0u64; g.n];
    level[source] = 1;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for &(v, _) in &g.out[u] {
            if level[v] == 0 {
                level[v] = level[u] + 1;
                queue.push_back(v);
            }
        }
    }
    present(&level, |&l| l > 0)
}

/// Bellman-Ford relaxation to a fixpoint from `source` (distance 0).
/// Returns the distances of reached vertices and the number of rounds
/// until nothing changed. Edge weights are positive, so the fixpoint is
/// the minimum over paths of the left-to-right float path sum, which
/// any relaxation order reaches: the result is exact, not approximate.
pub fn sssp(g: &Graph, source: usize) -> (Vec<(usize, f64)>, usize) {
    let mut dist = vec![f64::INFINITY; g.n];
    dist[source] = 0.0;
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut changed = false;
        for u in 0..g.n {
            if dist[u].is_infinite() {
                continue;
            }
            for &(v, w) in &g.out[u] {
                let cand = dist[u] + w;
                if cand < dist[v] {
                    dist[v] = cand;
                    changed = true;
                }
            }
        }
        if !changed {
            return (present(&dist, |d| d.is_finite()), rounds);
        }
    }
}

/// Absolute tolerance on each PageRank entry. The oracle performs the
/// same arithmetic as the paper's Fig. 7 listing, but sums each
/// vector-matrix product in its own order, so entries agree to rounding
/// (about 1e-16 relative) rather than bit for bit.
pub const PAGERANK_TOL: f64 = 1e-9;

/// PageRank by power iteration, step for step as the paper's Fig. 7
/// writes it: rows normalized and damped, `new += rank @ m` under the
/// `Second` accumulator, teleport added to stored entries, convergence
/// when the mean squared change drops below `threshold` (returning
/// before that iteration's fix-up), and the teleport fix-up of absent
/// ranks through a complemented mask. Stored-ness is tracked with
/// `Option` because the listing's sparse semantics depend on it.
pub fn pagerank(
    g: &Graph,
    damping: f64,
    threshold: f64,
    max_iters: usize,
) -> (Vec<(usize, f64)>, usize) {
    let n = g.n;
    let nf = n as f64;
    let m: Vec<Vec<(usize, f64)>> = g
        .out
        .iter()
        .map(|row| {
            let sum: f64 = row.iter().map(|&(_, w)| w).sum();
            row.iter()
                .map(|&(j, w)| {
                    let w = if sum != 0.0 { w / sum } else { w };
                    (j, w * damping)
                })
                .collect()
        })
        .collect();
    let teleport = (1.0 - damping) / nf;
    let mut rank: Vec<Option<f64>> = vec![Some(1.0 / nf); n];
    let mut new: Vec<Option<f64>> = vec![None; n];
    for iter in 0..max_iters {
        // new[None] += rank @ m   (Second accumulator)
        let mut t: Vec<Option<f64>> = vec![None; n];
        for (i, row) in m.iter().enumerate() {
            let Some(r) = rank[i] else { continue };
            for &(j, w) in row {
                *t[j].get_or_insert(0.0) += r * w;
            }
        }
        for j in 0..n {
            if t[j].is_some() {
                new[j] = t[j];
            }
        }
        // new = apply(+teleport)
        for x in new.iter_mut().flatten() {
            *x += teleport;
        }
        // delta = rank (Minus) new over the union; squared; reduced
        let mut squared_error = 0.0;
        for j in 0..n {
            let d = match (rank[j], new[j]) {
                (Some(a), Some(b)) => Some(a - b),
                (Some(a), None) => Some(a),
                (None, Some(b)) => Some(b),
                (None, None) => None,
            };
            if let Some(d) = d {
                squared_error += d * d;
            }
        }
        // rank[:] = new
        rank.clone_from(&new);
        if squared_error / nf < threshold {
            return (present_opt(&rank), iter + 1);
        }
        // new[:] = teleport;  rank[~rank] = rank + new
        new = vec![Some(teleport); n];
        for x in rank.iter_mut() {
            match x {
                Some(v) if *v != 0.0 => {}
                Some(v) => *v += teleport,
                None => *x = Some(teleport),
            }
        }
    }
    (present_opt(&rank), max_iters)
}

/// Triangles of the undirected graph whose strictly-lower half is
/// `lower` (`lower[i]` holds neighbours `j < i`), as the weighted sum
/// the masked product `B⟨L⟩ = L·Lᵀ` reduces to: each triangle
/// `k < j < i` contributes `L[i][k]·L[j][k]`. With unit weights this is
/// the triangle count.
pub fn triangles(lower: &[Vec<(usize, f64)>]) -> f64 {
    let mut total = 0.0;
    for (i, row_i) in lower.iter().enumerate() {
        for &(j, _) in row_i {
            debug_assert!(j < i);
            // Merge-join the sorted rows i and j over k < j.
            let row_j = &lower[j];
            let (mut p, mut q) = (0, 0);
            while p < row_i.len() && q < row_j.len() {
                let (ki, wi) = row_i[p];
                let (kj, wj) = row_j[q];
                match ki.cmp(&kj) {
                    std::cmp::Ordering::Equal => {
                        total += wi * wj;
                        p += 1;
                        q += 1;
                    }
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                }
            }
        }
    }
    total
}

/// Strictly-lower half of `g` (`j < i`), rows sorted.
pub fn lower_half(g: &Graph) -> Vec<Vec<(usize, f64)>> {
    g.out
        .iter()
        .enumerate()
        .map(|(i, row)| row.iter().copied().filter(|&(j, _)| j < i).collect())
        .collect()
}

/// Weakly connected components by union-find. Each vertex is labelled
/// with the 1-based smallest vertex id of its component, the labelling
/// min-label propagation converges to.
pub fn components(g: &Graph) -> Vec<(usize, u64)> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..g.n).collect();
    for (u, row) in g.out.iter().enumerate() {
        for &(v, _) in row {
            let (a, b) = (find(&mut parent, u), find(&mut parent, v));
            // Keep the smaller id as the root, so roots are minima.
            if a < b {
                parent[b] = a;
            } else if b < a {
                parent[a] = b;
            }
        }
    }
    (0..g.n)
        .map(|v| (v, find(&mut parent, v) as u64 + 1))
        .collect()
}

fn present<T: Copy>(v: &[T], keep: impl Fn(&T) -> bool) -> Vec<(usize, T)> {
    v.iter()
        .enumerate()
        .filter(|(_, x)| keep(x))
        .map(|(i, &x)| (i, x))
        .collect()
}

fn present_opt(v: &[Option<f64>]) -> Vec<(usize, f64)> {
    v.iter()
        .enumerate()
        .filter_map(|(i, x)| x.map(|x| (i, x)))
        .collect()
}

/// Whether two rank vectors have the same pattern and agree entry by
/// entry within [`PAGERANK_TOL`].
pub fn ranks_match(a: &[(usize, f64)], b: &[(usize, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&(i, x), &(j, y))| i == j && (x - y).abs() <= PAGERANK_TOL)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::new(4, &[(0, 1, 0.5), (1, 2, 0.25), (0, 2, 1.0)])
    }

    #[test]
    fn bfs_and_sssp_on_a_small_graph() {
        let g = path3();
        assert_eq!(bfs_levels(&g, 0), vec![(0, 1), (1, 2), (2, 2)]);
        let (dist, rounds) = sssp(&g, 0);
        assert_eq!(dist, vec![(0, 0.0), (1, 0.5), (2, 0.75)]);
        assert!(rounds >= 2);
    }

    #[test]
    fn triangles_and_components() {
        // K3 on {0,1,2} plus an isolated vertex 3.
        let mut edges = Vec::new();
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            edges.push((a, b, 1.0));
            edges.push((b, a, 1.0));
        }
        let g = Graph::new(4, &edges);
        assert_eq!(triangles(&lower_half(&g)), 1.0);
        assert_eq!(components(&g), vec![(0, 1), (1, 1), (2, 1), (3, 4)]);
    }

    #[test]
    fn pagerank_of_a_cycle_is_uniform() {
        let g = Graph::new(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        let (ranks, iters) = pagerank(&g, 0.85, 1e-5, 50);
        assert_eq!(iters, 1);
        for (_, r) in ranks {
            assert!((r - 1.0 / 3.0).abs() < 1e-12);
        }
    }
}
