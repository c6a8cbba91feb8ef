//! The DSL loop: the Fig. 10 cells called round-robin from one thread,
//! each cell given a time slice per round.

use std::time::{Duration, Instant};

use pygb_algorithms::Variant;
use pygb_bench::fig10::{run_once, Algorithm};
use pygb_bench::workloads::Workload;
use pygb_jit::stats::StatsSnapshot;

use crate::fig10::{call, cells, Expected};
use crate::report::{geomean, quantile, Metrics, Tally};

/// Time each cell gets per round before the loop moves on. Fast cells are called many times per slice, slow
/// cells once.
pub const SLICE: Duration = Duration::from_millis(20);

/// A cell whose first call takes at least this long is long. After the
/// first round, long cells take turns, one per round, so a round stays
/// short and every other cell is sampled at many moments of the run: at
/// |V| = 2048 an SSSP call takes about a second, and with all three
/// SSSP cells in every round the other cells saw ten moments a run.
pub const LONG_CALL: Duration = Duration::from_millis(250);

/// Percentile of a cell's per-call times that stands for the cell. On a
/// machine shared with other tenants, neighbours slow down whole seconds
/// of a run by up to a third; the cells are interleaved in short slices,
/// so each cell's low percentile comes from the quiet seconds and reads
/// the program's speed rather than the neighbours'. The run-to-run
/// spread of the median was several times that of this percentile.
pub const CELL_Q: f64 = 0.05;

/// Differences of the process-global JIT counters across an interval
/// in which the benchmark's thread was the only dispatcher.
#[derive(Default, Clone, Copy, Debug)]
pub struct JitDelta {
    /// Kernel invocations.
    pub invocations: u64,
    /// Dispatches that consulted the module cache.
    pub dispatches: u64,
    /// Of those, served without a compile.
    pub hits: u64,
    /// Cold instantiations.
    pub compiles: u64,
    /// Nanoseconds spent instantiating.
    pub compile_ns: u64,
    /// Nanoseconds spent in key hashing and cache lookup.
    pub lookup_ns: u64,
    /// Ops deferred into the op-DAG.
    pub deferred: u64,
    /// DAG nodes fused away.
    pub fused: u64,
    /// DAG nodes elided as dead.
    pub elided: u64,
    /// Fusions refused by the aliasing analysis.
    pub refused: u64,
    /// Kernel selections: push, pull, masked push, masked pull, dot,
    /// Gustavson (masked and unmasked together).
    pub sel: [u64; 6],
}

/// Names of [`JitDelta::sel`], in order.
pub const SEL_NAMES: [&str; 6] = [
    "push",
    "pull",
    "masked_push",
    "masked_pull",
    "dot",
    "gustavson",
];

/// The global JIT counters now.
pub fn jit_now() -> StatsSnapshot {
    pygb::runtime().cache().stats().snapshot()
}

impl JitDelta {
    /// Counters of `after` minus `before`.
    pub fn between(before: &StatsSnapshot, after: &StatsSnapshot) -> JitDelta {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        JitDelta {
            invocations: d(after.invocations, before.invocations),
            dispatches: d(after.total_dispatches(), before.total_dispatches()),
            hits: d(
                after.memory_hits + after.disk_hits,
                before.memory_hits + before.disk_hits,
            ),
            compiles: d(after.compiles, before.compiles),
            compile_ns: d(after.compile_ns_total, before.compile_ns_total),
            lookup_ns: d(after.lookup_ns_total, before.lookup_ns_total),
            deferred: d(after.deferred_ops, before.deferred_ops),
            fused: d(after.fused_ops, before.fused_ops),
            elided: d(after.elided_ops, before.elided_ops),
            refused: d(after.refused_fusions, before.refused_fusions),
            sel: [
                d(after.sel_push, before.sel_push),
                d(after.sel_pull, before.sel_pull),
                d(after.sel_masked_push, before.sel_masked_push),
                d(after.sel_masked_pull, before.sel_masked_pull),
                d(after.sel_dot_spgemm, before.sel_dot_spgemm),
                d(
                    after.sel_spgemm + after.sel_masked_spgemm,
                    before.sel_spgemm + before.sel_masked_spgemm,
                ),
            ],
        }
    }

    /// Fold another delta into this one.
    pub fn add(&mut self, o: &JitDelta) {
        self.invocations += o.invocations;
        self.dispatches += o.dispatches;
        self.hits += o.hits;
        self.compiles += o.compiles;
        self.compile_ns += o.compile_ns;
        self.lookup_ns += o.lookup_ns;
        self.deferred += o.deferred;
        self.fused += o.fused;
        self.elided += o.elided;
        self.refused += o.refused;
        for (a, b) in self.sel.iter_mut().zip(o.sel) {
            *a += b;
        }
    }
}

/// What one DSL loop measured, per cell in [`cells`] order.
pub struct DslSamples {
    /// Per-call wall times, ms.
    pub cell_ms: Vec<Vec<f64>>,
    /// JIT counter deltas summed over each cell's calls.
    pub cell_jit: Vec<JitDelta>,
    /// Calls attempted, failed and mismatched.
    pub tally: Tally,
}

impl DslSamples {
    /// Per-call time of a cell at [`CELL_Q`], ms; NaN when no call of
    /// the cell succeeded (the run has then failed).
    pub fn cell_time(&self, algo: Algorithm, variant: Variant) -> f64 {
        let ms = &self.cell_ms[cell_index(algo, variant)];
        if ms.is_empty() {
            f64::NAN
        } else {
            quantile(ms, CELL_Q)
        }
    }

    /// Geometric mean over the four algorithms of the per-call time of
    /// `variant`, ms.
    pub fn variant_geomean(&self, variant: Variant) -> f64 {
        let t: Vec<f64> = Algorithm::ALL
            .iter()
            .map(|&a| self.cell_time(a, variant))
            .collect();
        geomean(&t)
    }

    /// Record the three variant geomeans.
    pub fn variant_metrics(&self, m: &mut Metrics) {
        for v in crate::fig10::VARIANTS {
            m.set(
                format!("{}_ms", crate::fig10::variant_name(v)),
                self.variant_geomean(v),
                "ms",
            );
        }
    }
}

/// Position of a cell in [`cells`].
pub fn cell_index(algo: Algorithm, variant: Variant) -> usize {
    cells()
        .iter()
        .position(|&c| c == (algo, variant))
        .expect("every Fig. 10 cell is listed")
}

/// Call every cell once through `pygb_bench::fig10::run_once`: the
/// warm-up that pays each cold JIT instantiation.
pub fn warm_up(w: &Workload) {
    for (a, v) in cells() {
        run_once(a, v, w);
    }
}

/// Run rounds over the cells until `deadline`; the first round always
/// completes and runs every cell, later rounds run one long cell each
/// (see [`LONG_CALL`]). `between_rounds` is called before every later
/// round. Every output is checked against `exp`.
pub fn run_loop(
    w: &Workload,
    exp: &Expected,
    deadline: Instant,
    between_rounds: &mut dyn FnMut(),
) -> DslSamples {
    let cells = cells();
    let mut s = DslSamples {
        cell_ms: vec![Vec::new(); cells.len()],
        cell_jit: vec![JitDelta::default(); cells.len()],
        tally: Tally::default(),
    };
    let mut long = Vec::new();
    let mut round = 0;
    while round == 0 || Instant::now() < deadline {
        if round > 0 {
            between_rounds();
        }
        for (k, &(algo, variant)) in cells.iter().enumerate() {
            if round > 0 && long.contains(&k) && long[(round - 1) % long.len()] != k {
                continue;
            }
            let slice_start = Instant::now();
            loop {
                let before = jit_now();
                let (dt, out) = call(algo, variant, w);
                let after = jit_now();
                if round == 0 && dt >= LONG_CALL {
                    long.push(k);
                }
                s.cell_jit[k].add(&JitDelta::between(&before, &after));
                s.tally.attempted += 1;
                match out {
                    Ok(out) if exp.matches(algo, &out) => s.cell_ms[k].push(dt.as_secs_f64() * 1e3),
                    Ok(_) => {
                        s.tally.mismatches += 1;
                        eprintln!("perfbench: {algo:?}/{variant:?} output differs from the oracle");
                    }
                    Err(e) => {
                        s.tally.errors += 1;
                        eprintln!("perfbench: {algo:?}/{variant:?} failed: {e}");
                    }
                }
                if slice_start.elapsed() >= SLICE {
                    break;
                }
            }
        }
        round += 1;
    }
    s
}
