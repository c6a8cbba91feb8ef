//! The workloads. Each sets up, runs its timed rounds (an untraced run
//! sets up again between rounds, for `setup_s`), checks every output,
//! and in a traced run adds the per-layer probes.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pygb::DType;
use pygb_bench::workloads::Workload;
use pygb_io::{generators, EdgeList};

use crate::dsl::{self, jit_now, JitDelta};
use crate::fig10::Expected;
use crate::load::{self, Checks};
use crate::oracle::Graph;
use crate::probes;
use crate::report::{median_of_fastest, Metrics, Tally};
use crate::respond::ExactGraph;
use crate::window::{SlidingWindow, BATCH, WINDOW};

/// An untraced run sets up at least this many times.
const MIN_SETUPS: usize = 3;
/// `setup_s` is the median over this many consecutive stretches of the
/// run's set-ups of the fastest set-up in each (see
/// [`median_of_fastest`]).
const SETUP_STRETCHES: usize = 5;
/// Share of an untraced run spent setting up. Set-ups are interleaved
/// with the timed rounds, not made all at the start: on a shared host
/// the speed of the machine changes from one second to the next by up
/// to half, so set-ups made in one stretch read that stretch, while
/// set-ups spread over the run see the same mix of stretches as the
/// timed calls.
const SETUP_SHARE: f64 = 0.25;

/// One benchmark invocation.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Length of the run, set-ups included.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Shrink every input (smoke test).
    pub tiny: bool,
}

/// What a run reports.
pub struct Outcome {
    /// Checked operations.
    pub tally: Tally,
    /// End-to-end or per-layer metrics.
    pub metrics: Metrics,
    /// Chrome trace of the traced run.
    pub chrome_trace: Option<String>,
}

fn edge_set(edges: &EdgeList) -> HashSet<(usize, usize)> {
    edges.edges.iter().map(|&(s, d, _)| (s, d)).collect()
}

/// `dsl-small` / `dsl-large`: the Fig. 10 suite on an Erdős–Rényi graph
/// with `n` vertices and `n^1.5` edges.
pub fn dsl(n: usize, run: &Run) -> Result<Outcome, String> {
    let n = if run.tiny { 32 } else { n };
    let started = Instant::now();
    let (first, w, cold) = set_up(n, run.seed);
    let exp = Expected::new(&w);
    let mut setups = vec![first];
    let mut set_up_again = || {
        let spent: f64 = setups.iter().sum();
        if !run.trace
            && (setups.len() < MIN_SETUPS || spent < SETUP_SHARE * started.elapsed().as_secs_f64())
        {
            setups.push(set_up(n, run.seed).0);
        }
    };
    let deadline = started + Duration::from_secs_f64(run.seconds);
    let s = dsl::run_loop(&w, &exp, deadline, &mut set_up_again);
    let mut tally = s.tally;

    let mut m = Metrics::default();
    if !run.trace {
        while setups.len() < MIN_SETUPS {
            setups.push(set_up(n, run.seed).0);
        }
        m.set("setup_s", median_of_fastest(&setups, SETUP_STRETCHES), "s");
        s.variant_metrics(&mut m);
        m.set("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
        return Ok(Outcome {
            tally,
            metrics: m,
            chrome_trace: None,
        });
    }

    let reps = if n > 1024 { 1 } else { 3 };
    probes::fig10_layers(&mut m, &s, &exp, &cold);
    probes::io_layers(
        &mut m,
        reps,
        || {
            let e = generators::erdos_renyi_power(n, run.seed);
            let sym = e.clone().symmetrize();
            let lower = sym.lower_triangular().unweighted();
            (e, sym, lower)
        },
        |(e, sym, lower)| {
            std::hint::black_box((
                e.to_pygb(DType::Fp64),
                e.to_gbtl::<f64>(),
                sym.to_pygb(DType::Fp64),
                sym.to_gbtl::<f64>(),
                lower.to_pygb(DType::Fp64),
                lower.to_gbtl::<f64>(),
            ));
        },
    );
    probes::op_layers(&mut m, &w.pygb, reps + 2).map_err(|e| e.to_string())?;

    // The serve layers on this workload's graph: `web` is the directed
    // graph, which the write stream changes; `social` is its symmetric
    // closure, never written, so its answers are checked exactly.
    let existing = edge_set(&w.edges);
    let solo = probes::serve_layers(
        &mut m,
        &*probes::catalog(w.pygb.clone(), w.sym_pygb.clone())?,
        &existing,
        run.seed ^ 0xBEEF,
        reps,
    )?;
    let catalog = probes::catalog(w.pygb.clone(), w.sym_pygb.clone())?;
    let server = load::start_server(catalog).map_err(|e| e.to_string())?;
    let mix = load::read_mix(&["web", "social"]);
    let sym = w.edges.clone().symmetrize();
    let checks = Checks {
        social: Mutex::new(ExactGraph::new(&Graph::new(n, &sym.edges))),
        written_n: n,
        written_nnz: (existing.len(), existing.len() + WINDOW * BATCH),
    };
    let window = Mutex::new(SlidingWindow::new(
        n,
        &existing,
        BATCH,
        WINDOW,
        run.seed ^ 0x5EED,
    ));
    let (qw0, races0) = (probes::queue_wait(), probes::update_races());
    let rep = load::run(
        server.local_addr(),
        &mix,
        &checks,
        &window,
        Instant::now() + Duration::from_secs_f64((run.seconds / 5.0).min(3.0)),
    )
    .map_err(|e| e.to_string())?;
    tally.add(rep.tally);
    let (qw1, races) = (probes::queue_wait(), probes::update_races() - races0);
    let web_nnz = server
        .catalog()
        .get("web")
        .ok_or("web vanished from the catalog")?
        .graph
        .nvals();
    // The write stream keeps `web` in a fixed band of edge counts, so
    // read cost cannot drift with how many writes a run completes.
    let (lo, hi) = window.lock().expect("load finished").band();
    if !(lo..=hi).contains(&web_nnz) {
        tally.mismatches += 1;
        eprintln!("perfbench: web has {web_nnz} edges, outside the band {lo}..={hi}");
    }
    probes::load_layers(&mut m, &rep, &mix, &solo, (&qw0, &qw1), races);
    m.set(
        "serve.ping_us",
        probes::ping_us(server.local_addr(), 200).map_err(|e| e.to_string())?,
        "us",
    );
    server.shutdown();

    let chrome_trace = Some(probes::traced_pass(&mut m, &w, reps));
    m.set("fail_ratio", tally.fail_ratio(), "ratio");
    Ok(Outcome {
        tally,
        metrics: m,
        chrome_trace,
    })
}

/// Set up the workload once from a cold JIT cache: generate the graph,
/// build its containers, and warm every cell. Returns the set-up time
/// (s), the workload, and the JIT counters of the set-up.
fn set_up(n: usize, seed: u64) -> (f64, Workload, JitDelta) {
    pygb::runtime().cache().evict_memory();
    let before = jit_now();
    let t0 = Instant::now();
    let w = Workload::erdos_renyi(n, seed);
    dsl::warm_up(&w);
    let t = t0.elapsed().as_secs_f64();
    (t, w, JitDelta::between(&before, &jit_now()))
}
