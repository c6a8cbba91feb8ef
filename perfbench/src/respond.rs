//! Checks of `pygb-serve` responses: exact comparison with the oracles
//! for a graph that is never written, invariants for one that is.
//! Result collections longer than the server's cap arrive truncated to
//! their first entries; the checks compare what was sent.

use std::collections::HashMap;

use pygb_serve::query::MAX_RESULT_ENTRIES;

use crate::oracle::{self, Graph};

/// Query verbs of the read mix, in mix order.
pub const VERBS: [&str; 6] = ["bfs", "sssp", "pagerank", "tricount", "cc", "expr"];

/// PageRank iteration cap of the mix's `PAGERANK` requests.
pub const PAGERANK_ITERS: usize = 20;

/// The request line for `verb` on graph `g`.
pub fn read_line(verb: &str, g: &str) -> String {
    match verb {
        "bfs" => format!("QUERY {g} BFS 0"),
        "sssp" => format!("QUERY {g} SSSP 0"),
        "pagerank" => format!("QUERY {g} PAGERANK {PAGERANK_ITERS}"),
        "tricount" => format!("QUERY {g} TRICOUNT"),
        "cc" => format!("QUERY {g} CC"),
        "expr" => format!("EXPR {g} EWMULT {g} BINOP Times"),
        _ => unreachable!("unknown verb {verb}"),
    }
}

/// The numbers of the JSON array that follows `"key":` in `body`, as
/// rows (`[[a,b],[c,d]]` gives two rows, `[a,b]` one).
fn rows(body: &str, key: &str) -> Option<Vec<Vec<f64>>> {
    let start = body.find(&format!("\"{key}\":["))? + key.len() + 4;
    let bytes = body.as_bytes();
    let mut depth = 1;
    let mut out = Vec::new();
    let mut row = Vec::new();
    let mut tok = String::new();
    for &b in &bytes[start..] {
        match b {
            b'[' => depth += 1,
            b']' | b',' => {
                if !tok.is_empty() {
                    row.push(tok.parse().ok()?);
                    tok.clear();
                }
                if b == b']' {
                    depth -= 1;
                    if depth == 0 {
                        if !row.is_empty() {
                            out.push(row);
                        }
                        return Some(out);
                    }
                    out.push(std::mem::take(&mut row));
                }
            }
            _ => tok.push(b as char),
        }
    }
    None
}

/// The number after `"key":` in `body`.
pub fn number(body: &str, key: &str) -> Option<f64> {
    let start = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn pairs(body: &str, key: &str) -> Option<Vec<(usize, f64)>> {
    rows(body, key)?
        .into_iter()
        .map(|r| (r.len() == 2).then(|| (r[0] as usize, r[1])))
        .collect()
}

/// The oracle's answers for a graph that is never written.
pub struct ExactGraph {
    levels: Vec<(usize, f64)>,
    dist: Vec<(usize, f64)>,
    ranks: Vec<(usize, f64)>,
    iters: usize,
    triangles: f64,
    labels: Vec<(usize, f64)>,
    components: usize,
    squares: Vec<Vec<f64>>,
    /// The first response that passed the full check, per verb. An
    /// identical later response needs no second parse.
    verified: HashMap<&'static str, String>,
}

impl ExactGraph {
    /// Run every oracle on `g`.
    pub fn new(g: &Graph) -> ExactGraph {
        let labels = oracle::components(g);
        let mut ids: Vec<u64> = labels.iter().map(|&(_, l)| l).collect();
        ids.sort_unstable();
        ids.dedup();
        let (ranks, iters) = oracle::pagerank(g, 0.85, 1e-5, PAGERANK_ITERS);
        let mut squares = Vec::with_capacity(g.nnz());
        for (i, row) in g.out.iter().enumerate() {
            for &(j, w) in row {
                squares.push(vec![i as f64, j as f64, w * w]);
            }
        }
        ExactGraph {
            levels: as_f64(oracle::bfs_levels(g, 0)),
            dist: oracle::sssp(g, 0).0,
            ranks,
            iters,
            triangles: oracle::triangles(&oracle::lower_half(g)),
            labels: as_f64(labels),
            components: ids.len(),
            squares,
            verified: HashMap::new(),
        }
    }

    /// Whether `body` is exactly the right answer to `verb`.
    pub fn check(&mut self, verb: &'static str, body: &str) -> bool {
        if self.verified.get(verb).is_some_and(|v| v == body) {
            return true;
        }
        let ok = self.full_check(verb, body).unwrap_or(false);
        if ok {
            self.verified
                .entry(verb)
                .or_insert_with(|| body.to_string());
        }
        ok
    }

    fn full_check(&self, verb: &str, body: &str) -> Option<bool> {
        Some(match verb {
            "bfs" => pairs(body, "levels")? == self.levels,
            "sssp" => pairs(body, "dist")? == self.dist,
            "pagerank" => {
                number(body, "iters")? as usize == self.iters
                    && oracle::ranks_match(&pairs(body, "ranks")?, &self.ranks)
            }
            "tricount" => {
                // The server reduces the weighted masked product and
                // truncates to an integer; summation order may differ,
                // so a sum within 1e-6 of an integer may land either side.
                let got = number(body, "triangles")?;
                let t = self.triangles;
                got == t.trunc() || ((t - t.round()).abs() < 1e-6 && (got - t).abs() < 1.0)
            }
            "cc" => {
                number(body, "components")? as usize == self.components
                    && pairs(body, "labels")? == self.labels
            }
            "expr" => {
                let shown = self.squares.len().min(MAX_RESULT_ENTRIES);
                number(body, "nvals")? as usize == self.squares.len()
                    && rows(body, "triples")? == self.squares[..shown]
            }
            _ => false,
        })
    }
}

fn as_f64(v: Vec<(usize, u64)>) -> Vec<(usize, f64)> {
    v.into_iter().map(|(i, x)| (i, x as f64)).collect()
}

/// Invariants of a response from a graph of `n` vertices whose edge
/// count lies in `nnz_range` and whose weights lie in `(0, 1]`.
pub fn check_invariants(verb: &str, body: &str, n: usize, nnz_range: (usize, usize)) -> bool {
    let ok = || -> Option<bool> {
        Some(match verb {
            "bfs" => {
                let l = pairs(body, "levels")?;
                l.contains(&(0, 1.0))
                    && l.len() == number(body, "nvals")? as usize
                    && l.iter().all(|&(i, v)| i < n && v >= 1.0 && v <= n as f64)
            }
            "sssp" => {
                let d = pairs(body, "dist")?;
                d.contains(&(0, 0.0)) && d.iter().all(|&(i, v)| i < n && v.is_finite() && v >= 0.0)
            }
            "pagerank" => {
                let r = pairs(body, "ranks")?;
                let iters = number(body, "iters")? as usize;
                !r.is_empty()
                    && (1..=PAGERANK_ITERS).contains(&iters)
                    && r.iter().all(|&(i, v)| i < n && v.is_finite() && v > 0.0)
            }
            "tricount" => number(body, "triangles")? >= 0.0,
            "cc" => {
                let c = number(body, "components")? as usize;
                let l = pairs(body, "labels")?;
                (1..=n).contains(&c)
                    && l.len() == n
                    && l.iter().all(|&(i, v)| v >= 1.0 && v <= (i + 1) as f64)
            }
            "expr" => {
                let nvals = number(body, "nvals")? as usize;
                let t = rows(body, "triples")?;
                (nnz_range.0..=nnz_range.1).contains(&nvals)
                    && t.len() == nvals.min(MAX_RESULT_ENTRIES)
                    && t.iter().all(|r| r.len() == 3 && r[2] > 0.0 && r[2] <= 1.0)
            }
            _ => false,
        })
    };
    ok().unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_and_flat_arrays() {
        let body = r#"{"levels":[[0,1],[2,2]],"nvals":2,"triples":[[0,1,0.25]]}"#;
        assert_eq!(pairs(body, "levels"), Some(vec![(0, 1.0), (2, 2.0)]));
        assert_eq!(number(body, "nvals"), Some(2.0));
        assert_eq!(rows(body, "triples"), Some(vec![vec![0.0, 1.0, 0.25]]));
        assert_eq!(rows(r#"{"levels":[]}"#, "levels"), Some(vec![]));
    }
}
