//! The Fig. 10 suite as the benchmark drives it: the twelve
//! `(algorithm, variant)` cells over a [`Workload`], each call's output
//! converted to plain values and checked against the oracles.
//!
//! `pygb_bench::fig10::run_once` discards the algorithm's output, so
//! the checked timed calls go through [`call`] below, which builds the
//! same arguments (source vertex 0, PageRank capped at 50 iterations)
//! and times only the algorithm call. `run_once` itself drives the
//! warm-up, where nothing needs checking.

use std::time::{Duration, Instant};

use pygb::{DType, Vector};
use pygb_algorithms as algos;
use pygb_algorithms::Variant;
use pygb_bench::fig10::Algorithm;
use pygb_bench::workloads::Workload;

use crate::oracle::{self, Graph};

/// The three variants of the paper's Fig. 10.
pub const VARIANTS: [Variant; 3] = [Variant::DslLoops, Variant::Nonblocking, Variant::Native];

/// Metric-name stem of a variant.
pub fn variant_name(v: Variant) -> &'static str {
    match v {
        Variant::DslLoops => "loops",
        Variant::Nonblocking => "nonblocking",
        Variant::DslFused => "fused",
        Variant::Native => "native",
    }
}

/// Every cell, algorithm-major.
pub fn cells() -> Vec<(Algorithm, Variant)> {
    Algorithm::ALL
        .iter()
        .flat_map(|&a| VARIANTS.iter().map(move |&v| (a, v)))
        .collect()
}

/// PageRank options of the Fig. 10 runners.
pub fn pagerank_opts() -> algos::PageRankOptions {
    algos::PageRankOptions {
        max_iters: 50,
        ..Default::default()
    }
}

/// One algorithm result as plain values.
#[derive(Debug, PartialEq)]
pub enum Output {
    /// BFS levels, 1-based.
    Levels(Vec<(usize, u64)>),
    /// SSSP distances.
    Dist(Vec<(usize, f64)>),
    /// PageRank ranks and iterations run.
    Ranks(Vec<(usize, f64)>, usize),
    /// Triangle count.
    Count(f64),
}

/// The oracle's answers for one workload.
pub struct Expected {
    levels: Vec<(usize, u64)>,
    dist: Vec<(usize, f64)>,
    /// Bellman-Ford rounds to the fixpoint.
    pub sssp_rounds: usize,
    ranks: Vec<(usize, f64)>,
    /// PageRank iterations.
    pub pagerank_iters: usize,
    triangles: f64,
}

impl Expected {
    /// Run every oracle on the workload's edge list.
    pub fn new(w: &Workload) -> Expected {
        let g = Graph::new(w.n, &w.edges.edges);
        let sym = w.edges.clone().symmetrize();
        let sym_g = Graph::new(w.n, &sym.edges);
        let lower_edges = sym.lower_triangular().unweighted();
        let lower = Graph::new(w.n, &lower_edges.edges);
        let opts = pagerank_opts();
        let (dist, sssp_rounds) = oracle::sssp(&g, 0);
        let (ranks, pagerank_iters) =
            oracle::pagerank(&sym_g, opts.damping_factor, opts.threshold, opts.max_iters);
        Expected {
            levels: oracle::bfs_levels(&g, 0),
            dist,
            sssp_rounds,
            ranks,
            pagerank_iters,
            triangles: oracle::triangles(&lower.out),
        }
    }

    /// Whether `out` is the right answer for `algo`.
    pub fn matches(&self, algo: Algorithm, out: &Output) -> bool {
        match (algo, out) {
            (Algorithm::Bfs, Output::Levels(l)) => *l == self.levels,
            (Algorithm::Sssp, Output::Dist(d)) => *d == self.dist,
            (Algorithm::PageRank, Output::Ranks(r, iters)) => {
                *iters == self.pagerank_iters && oracle::ranks_match(r, &self.ranks)
            }
            (Algorithm::TriangleCount, Output::Count(c)) => *c == self.triangles,
            _ => false,
        }
    }
}

fn levels(v: &Vector) -> Vec<(usize, u64)> {
    v.extract_pairs()
        .into_iter()
        .map(|(i, x)| (i, x.as_i64() as u64))
        .collect()
}

fn floats(v: &Vector) -> Vec<(usize, f64)> {
    v.extract_pairs()
        .into_iter()
        .map(|(i, x)| (i, x.as_f64()))
        .collect()
}

/// Run one cell once: the wall time of the algorithm call alone, and
/// its output (converted after the clock stops).
pub fn call(algo: Algorithm, variant: Variant, w: &Workload) -> (Duration, pygb::Result<Output>) {
    let start;
    let out = match (algo, variant) {
        (Algorithm::Bfs, Variant::Native) => {
            start = Instant::now();
            let r = algos::bfs_native(&w.gbtl, 0);
            let dt = start.elapsed();
            return (
                dt,
                r.map(|v| Output::Levels(v.iter().collect()))
                    .map_err(pygb::PygbError::from),
            );
        }
        (Algorithm::Bfs, v) => {
            start = Instant::now();
            let r = if v == Variant::Nonblocking {
                algos::bfs_nonblocking(&w.pygb, 0)
            } else {
                algos::bfs_dsl_loops(&w.pygb, 0)
            };
            (start.elapsed(), r.map(|l| Output::Levels(levels(&l))))
        }
        (Algorithm::Sssp, Variant::Native) => {
            let mut path = gbtl::Vector::<f64>::new(w.n);
            path.set(0, 0.0).expect("source 0 is in range");
            start = Instant::now();
            let r = algos::sssp_native(&w.gbtl, &mut path);
            let dt = start.elapsed();
            return (
                dt,
                r.map(|()| Output::Dist(path.iter().collect()))
                    .map_err(pygb::PygbError::from),
            );
        }
        (Algorithm::Sssp, v) => {
            let mut path = Vector::new(w.n, DType::Fp64);
            path.set(0, 0.0f64).expect("source 0 is in range");
            start = Instant::now();
            let r = if v == Variant::Nonblocking {
                algos::sssp_nonblocking(&w.pygb, &mut path)
            } else {
                algos::sssp_dsl_loops(&w.pygb, &mut path)
            };
            (start.elapsed(), r.map(|()| Output::Dist(floats(&path))))
        }
        (Algorithm::PageRank, Variant::Native) => {
            start = Instant::now();
            let r = algos::pagerank_native(&w.sym_gbtl, pagerank_opts());
            let dt = start.elapsed();
            return (
                dt,
                r.map(|(ranks, iters)| Output::Ranks(ranks.iter().collect(), iters))
                    .map_err(pygb::PygbError::from),
            );
        }
        (Algorithm::PageRank, v) => {
            start = Instant::now();
            let r = if v == Variant::Nonblocking {
                algos::pagerank_nonblocking(&w.sym_pygb, pagerank_opts())
            } else {
                algos::pagerank_dsl_loops(&w.sym_pygb, pagerank_opts())
            };
            (
                start.elapsed(),
                r.map(|(ranks, iters)| Output::Ranks(floats(&ranks), iters)),
            )
        }
        (Algorithm::TriangleCount, Variant::Native) => {
            start = Instant::now();
            let r = algos::tricount_native(&w.lower_gbtl);
            let dt = start.elapsed();
            return (dt, r.map(Output::Count).map_err(pygb::PygbError::from));
        }
        (Algorithm::TriangleCount, v) => {
            start = Instant::now();
            let r = if v == Variant::Nonblocking {
                algos::tricount_nonblocking(&w.lower_pygb)
            } else {
                algos::tricount_dsl_loops(&w.lower_pygb)
            };
            (start.elapsed(), r.map(|c| Output::Count(c.as_f64())))
        }
    };
    out
}
