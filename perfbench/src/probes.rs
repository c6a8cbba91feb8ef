//! Per-layer measurements for the traced run. Each probe calls one
//! layer's public functions from outside the program: timings are taken
//! with tracing off, then the call is repeated once with tracing on
//! inside a benchmark span, so the exported trace shows where its time
//! went without the tracing cost leaking into the numbers.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use gbtl::mask::NoMask;
use gbtl::ops::accum::NoAccumulate;
use gbtl::ops::binary::Times;
use gbtl::ops::semiring::ArithmeticSemiring as GbArith;
use gbtl::{transpose, Replace};
use pygb::{ArithmeticSemiring, BinaryOp, DType, Matrix, Vector};
use pygb_algorithms::Variant;
use pygb_bench::fig10::{run_once, Algorithm};
use pygb_bench::workloads::Workload;
use pygb_jit::Stage;
use pygb_obs::Cat;
use pygb_serve::{query, Catalog};

use crate::dsl::{DslSamples, JitDelta, SEL_NAMES};
use crate::fig10::{cells, variant_name, Expected};
use crate::load::{LoadReport, ReadKind};
use crate::report::{median, ratio, Metrics};
use crate::respond::{read_line, VERBS};
use crate::spans;
use crate::window::{edge_updates, SlidingWindow, BATCH, WINDOW};

/// Time `f` `reps` times with tracing off (ms per call), then once more
/// traced inside the benchmark span `name`.
pub fn measure<R>(cat: Cat, name: &str, reps: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    let times = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    pygb_obs::enable();
    {
        let _sp = spans::open(cat, name);
        std::hint::black_box(f());
    }
    pygb_obs::disable();
    times
}

/// Per-call counters, ratios and per-cell times of the untraced DSL
/// loop, plus the JIT's cold instantiations during set-up.
pub fn fig10_layers(m: &mut Metrics, s: &DslSamples, exp: &Expected, cold: &JitDelta) {
    let per_call = |a: Algorithm, v: Variant| -> (JitDelta, f64) {
        let k = crate::dsl::cell_index(a, v);
        (s.cell_jit[k], s.cell_ms[k].len().max(1) as f64)
    };
    for (a, v) in cells() {
        m.set(
            format!("{}.{}_ms", a.label(), variant_name(v)),
            s.cell_time(a, v),
            "ms",
        );
    }
    m.set("sssp.rounds", exp.sssp_rounds as f64, "count");
    m.set("pagerank.iters", exp.pagerank_iters as f64, "count");

    // Mean over the four algorithms of the per-call count.
    let mean_per_call = |v: Variant, f: &dyn Fn(&JitDelta) -> u64| -> f64 {
        Algorithm::ALL
            .iter()
            .map(|&a| {
                let (d, calls) = per_call(a, v);
                f(&d) as f64 / calls
            })
            .sum::<f64>()
            / 4.0
    };
    let nb = Variant::Nonblocking;
    m.set(
        "runtime.deferred_per_call",
        mean_per_call(nb, &|d| d.deferred),
        "count",
    );
    m.set(
        "runtime.fused_per_call",
        mean_per_call(nb, &|d| d.fused),
        "count",
    );
    m.set(
        "runtime.elided_per_call",
        mean_per_call(nb, &|d| d.elided),
        "count",
    );
    m.set(
        "runtime.refused_per_call",
        mean_per_call(nb, &|d| d.refused),
        "count",
    );
    let launches = |v: Variant| -> f64 {
        Algorithm::ALL
            .iter()
            .map(|&a| {
                let (d, calls) = per_call(a, v);
                d.invocations as f64 / calls
            })
            .sum()
    };
    m.set(
        "runtime.launch_ratio",
        ratio(launches(nb), launches(Variant::DslLoops)),
        "ratio",
    );
    for a in Algorithm::ALL {
        m.set(
            format!("runtime.overhead_ratio.{}", a.label()),
            s.cell_time(a, nb) / s.cell_time(a, Variant::DslLoops),
            "ratio",
        );
    }
    for (i, name) in SEL_NAMES.iter().enumerate() {
        let per = (mean_per_call(Variant::DslLoops, &|d| d.sel[i])
            + mean_per_call(nb, &|d| d.sel[i]))
            / 2.0;
        m.set(format!("gbtl.sel.{name}_per_call"), per, "count");
    }

    let mut warm = JitDelta::default();
    for d in &s.cell_jit {
        warm.add(d);
    }
    m.set("jit.compiles", cold.compiles as f64, "count");
    m.set(
        "jit.compile_us",
        ratio(cold.compile_ns as f64, cold.compiles as f64) / 1e3,
        "us",
    );
    m.set(
        "jit.lookup_ns",
        ratio(warm.lookup_ns as f64, warm.dispatches as f64),
        "ns",
    );
    m.set(
        "jit.hit_ratio",
        ratio(warm.hits as f64, warm.dispatches as f64),
        "ratio",
    );
    m.set(
        "jit.dispatches_per_call",
        mean_per_call(Variant::DslLoops, &|d| d.dispatches),
        "count",
    );
}

/// A fixed-count pass over the cells through `run_once`, first with
/// tracing off and then with `pygb_obs` spans and JIT stage traces on.
/// Gives the Fig. 9 stage times, the self time of the runtime's phases
/// per nonblocking call, and the tracing overhead. Returns the Chrome
/// trace of the traced half.
pub fn traced_pass(m: &mut Metrics, w: &Workload, reps: usize) -> String {
    let mut untraced = 0.0;
    for (a, v) in cells() {
        for _ in 0..reps {
            untraced += run_once(a, v, w).as_secs_f64();
        }
    }
    let rt = pygb::runtime();
    rt.take_traces();
    pygb_obs::clear_events();
    let mut stages: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut traced = 0.0;
    pygb_obs::enable();
    rt.set_tracing(true);
    for (a, v) in cells() {
        for _ in 0..reps {
            let _sp = spans::open(
                Cat::Exec,
                &format!("algorithms.{}.{}", a.label(), variant_name(v)),
            );
            traced += run_once(a, v, w).as_secs_f64();
            // The JIT keeps a bounded ring of traces; drain it per call.
            for t in rt.take_traces() {
                for (stage, key) in [
                    (Stage::ExpressionConstruction, "expr"),
                    (Stage::TypeInference, "typeinf"),
                ] {
                    if let Some(ns) = t.stage_ns(stage) {
                        let e = stages.entry(key).or_insert((0, 0));
                        e.0 += ns;
                        e.1 += 1;
                    }
                }
            }
        }
    }
    rt.set_tracing(false);
    pygb_obs::disable();
    // The program records no separate context-resolution stage: it is
    // timed inside type inference.
    for key in ["expr", "typeinf"] {
        let (ns, n) = stages.get(key).copied().unwrap_or((0, 0));
        m.set(
            format!("core.stage_ns.{key}"),
            ratio(ns as f64, n as f64),
            "ns",
        );
    }
    let events = pygb_obs::events();
    let self_ns = spans::program_self_ns(&events);
    let nb_calls = (reps * Algorithm::ALL.len()) as f64;
    for (cat, key) in [
        ("enqueue", "enqueue"),
        ("opt", "passes"),
        ("fuse", "fuse"),
        ("wave", "wave"),
        ("flush", "flush"),
    ] {
        let ns = self_ns.get(cat).copied().unwrap_or(0) as f64;
        m.set(format!("runtime.self_us.{key}"), ns / nb_calls / 1e3, "us");
    }
    m.set("obs.trace_overhead_ratio", ratio(traced, untraced), "ratio");
    pygb_obs::chrome_trace_json()
}

/// Graph generation and container build, as `Workload::erdos_renyi`
/// and `REGISTER` do them: `generate` makes the edge lists, `build`
/// turns them into containers.
pub fn io_layers<E>(m: &mut Metrics, reps: usize, generate: impl Fn() -> E, build: impl Fn(&E)) {
    let gen = measure(Cat::Build, "io.generate", reps, &generate);
    let edges = generate();
    let built = measure(Cat::Build, "io.build", reps, || build(&edges));
    m.set("io.generate_ms", median(&gen), "ms");
    m.set("io.build_ms", median(&built), "ms");
}

/// Single GraphBLAS operations on graph `a`, through the DSL
/// (`from_expr` / masked assign) and directly through `gbtl`.
pub fn op_layers(m: &mut Metrics, a: &Matrix, reps: usize) -> pygb::Result<()> {
    let n = a.nrows();
    let g: gbtl::Matrix<f64> = a
        .to_typed()
        .ok_or_else(|| pygb::PygbError::invalid("probe", "graph is not fp64", "to_typed"))?;
    let u = Vector::from_dense(&vec![1.0f64; n]);
    let gu = gbtl::Vector::from_dense(&vec![1.0f64; n]);

    let core_mxv = measure(Cat::Dispatch, "core.mxv", reps, || {
        let _sr = ArithmeticSemiring.enter();
        Vector::from_expr(a.mxv(&u)).expect("mxv of a square graph")
    });
    let core_mxm = measure(Cat::Dispatch, "core.mxm_masked", reps, || {
        let _sr = ArithmeticSemiring.enter();
        let mut c = Matrix::new(n, n, DType::Fp64);
        c.masked(a)
            .assign(a.matmul(a.t()))
            .expect("masked mxm of a square graph");
        c
    });
    let times = BinaryOp::new("Times")?;
    let core_ewise = measure(Cat::Dispatch, "core.ewise", reps, || {
        let _op = times.enter();
        Matrix::from_expr(a.ewise_mult(a)).expect("ewise of equal shapes")
    });

    let sr = GbArith::<f64>::new();
    let gb_mxv = measure(Cat::Kernel, "gbtl.mxv", reps, || {
        let mut w = gbtl::Vector::<f64>::new(n);
        gbtl::operations::mxv(&mut w, &NoMask, NoAccumulate, &sr, &g, &gu, Replace(false))
            .expect("mxv of a square graph");
        w
    });
    let gb_mxm = measure(Cat::Kernel, "gbtl.mxm_masked", reps, || {
        let mut c = gbtl::Matrix::<f64>::new(n, n);
        gbtl::operations::mxm(
            &mut c,
            &g,
            NoAccumulate,
            &sr,
            &g,
            transpose(&g),
            Replace(false),
        )
        .expect("masked mxm of a square graph");
        c
    });
    let gb_ewise = measure(Cat::Kernel, "gbtl.ewise", reps, || {
        let mut c = gbtl::Matrix::<f64>::new(n, n);
        gbtl::operations::e_wise_mult_matrix(
            &mut c,
            &NoMask,
            NoAccumulate,
            Times::<f64>::new(),
            &g,
            &g,
            Replace(false),
        )
        .expect("ewise of equal shapes");
        c
    });

    for (op, core, gb) in [
        ("mxv", &core_mxv, &gb_mxv),
        ("mxm_masked", &core_mxm, &gb_mxm),
        ("ewise", &core_ewise, &gb_ewise),
    ] {
        let (c, d) = (median(core) * 1e3, median(gb) * 1e3);
        m.set(format!("core.{op}_us"), c, "us");
        m.set(format!("gbtl.{op}_us"), d, "us");
        m.set(format!("core.penalty.{op}"), c / d, "ratio");
    }
    // Bytes a pull SpMV over CSR must move at least: each stored entry's
    // value and column index plus the gathered input value, the row
    // pointers, and the output. Computed from nnz and n, not measured.
    let nnz = g.nvals() as f64;
    let bytes = nnz * 24.0 + (n as f64 + 1.0) * 8.0 + n as f64 * 8.0;
    m.set(
        "gbtl.mxv_gbps",
        bytes / (median(&gb_mxv) / 1e3) / 1e9,
        "GB/s",
    );
    Ok(())
}

/// The serve layers called directly on an idle catalog holding `web`
/// and `social` (see [`catalog`]): request parsing, solo execution of
/// each verb on `web`, response sizes, and streamed updates of `web`.
/// Returns the solo execution time of each verb, ms.
pub fn serve_layers(
    m: &mut Metrics,
    catalog: &Catalog,
    web_edges: &HashSet<(usize, usize)>,
    seed: u64,
    reps: usize,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let n = catalog
        .get("web")
        .ok_or("web is not registered")?
        .graph
        .nrows();
    let mut window = SlidingWindow::new(n, web_edges, BATCH, WINDOW, seed);

    let mut lines: Vec<String> = crate::load::read_mix(&["web", "social"])
        .into_iter()
        .map(|k| k.line)
        .collect();
    lines.push(crate::window::update_line("web", &window.next_write()));
    let parse_reps = 200;
    let parse = measure(Cat::Serve, "serve.parse", reps, || {
        for _ in 0..parse_reps {
            for l in &lines {
                std::hint::black_box(query::parse(l).expect("mix lines parse"));
            }
        }
    });
    m.set(
        "serve.parse_us",
        median(&parse) * 1e3 / (parse_reps * lines.len()) as f64,
        "us",
    );

    let exec = |line: &str| -> Result<String, String> {
        let req = query::parse(line).map_err(|e| e.1)?;
        query::execute(catalog, &req).map_err(|e| e.1)
    };
    let mut solo = BTreeMap::new();
    for verb in VERBS {
        let line = read_line(verb, "web");
        let body = exec(&line)?;
        m.set(
            format!("serve.resp_bytes.{verb}"),
            body.len() as f64,
            "bytes",
        );
        let t = measure(Cat::Serve, &format!("serve.exec.{verb}"), reps, || {
            exec(&line).expect("solo request succeeds")
        });
        solo.insert(verb, median(&t));
        m.set(format!("serve.exec_ms.{verb}"), median(&t), "ms");
    }

    // Streamed writes through the catalog, and what each write leaves
    // for the merge: the delta a StreamingMatrix over the same snapshot
    // holds before it settles. The last write is the traced one.
    let writes = reps.max(8);
    let (mut update, mut pending) = (Vec::new(), Vec::new());
    for i in 0..=writes {
        let batch = edge_updates(&window.next_write());
        let snap = catalog.get("web").ok_or("web is not registered")?;
        let mut s = pygb::StreamingMatrix::from_matrix(&snap.graph).map_err(|e| e.to_string())?;
        s.update_edges(&batch).map_err(|e| e.to_string())?;
        pending.push(s.pending_ops() as f64);
        let traced = i == writes;
        if traced {
            pygb_obs::enable();
        }
        let sp = spans::open(Cat::Serve, "stream.update");
        let t0 = Instant::now();
        catalog
            .update_edges("web", &batch)
            .map_err(|e| e.to_string())?
            .ok_or("web is not registered")?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(sp);
        if traced {
            pygb_obs::disable();
        } else {
            update.push(ms);
        }
    }
    m.set("stream.update_ms", median(&update), "ms");
    m.set(
        "stream.pending_edges",
        pending.iter().sum::<f64>() / pending.len() as f64,
        "count",
    );
    let line = read_line("bfs", "web");
    let t = measure(Cat::Serve, "serve.exec.bfs_delta", reps, || {
        exec(&line).expect("solo request succeeds")
    });
    m.set("serve.exec_ms.bfs_delta", median(&t), "ms");
    Ok(solo)
}

/// Layer numbers of a load phase: per-verb contention on `web` against
/// the solo times, queue wait from the server's own histogram (as the
/// difference across the phase), update races, and the failure ratio.
pub fn load_layers(
    m: &mut Metrics,
    load: &LoadReport,
    mix: &[ReadKind],
    solo: &BTreeMap<&'static str, f64>,
    queue_wait: (&pygb_obs::HistogramSnapshot, &pygb_obs::HistogramSnapshot),
    races: u64,
) {
    for verb in VERBS {
        let lat = load.verb_reads(mix, verb, "web");
        let p50 = if lat.is_empty() { 0.0 } else { median(&lat) };
        m.set(
            format!("serve.contention.{verb}"),
            ratio(p50, solo.get(verb).copied().unwrap_or(0.0)),
            "ratio",
        );
    }
    m.set(
        "serve.queue_wait_ms",
        histogram_p50_delta(queue_wait.0, queue_wait.1) / 1e6,
        "ms",
    );
    m.set("stream.update_races", races as f64, "count");
}

/// Median of the observations recorded between two snapshots of one
/// log-bucketed histogram (ns), interpolated linearly inside the bucket
/// that holds it, as Prometheus' `histogram_quantile` does.
fn histogram_p50_delta(
    before: &pygb_obs::HistogramSnapshot,
    after: &pygb_obs::HistogramSnapshot,
) -> f64 {
    let prior: BTreeMap<u64, u64> = before.buckets.iter().copied().collect();
    let delta: Vec<(u64, u64)> = after
        .buckets
        .iter()
        .map(|&(b, n)| (b, n - prior.get(&b).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect();
    let half = delta.iter().map(|&(_, n)| n).sum::<u64>() as f64 / 2.0;
    let mut seen = 0.0;
    for (bound, n) in delta {
        let n = n as f64;
        if seen + n >= half {
            // Bucket `bound` covers (bound / 2, bound].
            let lo = (bound / 2) as f64;
            return lo + (bound as f64 - lo) * (half - seen) / n;
        }
        seen += n;
    }
    0.0
}

/// Idle round-trip time of `PING`, µs.
pub fn ping_us(addr: std::net::SocketAddr, reps: usize) -> std::io::Result<f64> {
    let mut c = pygb_serve::Client::connect(addr)?;
    c.hello("ping")?;
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        c.ping()?;
        t.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    pygb_obs::enable();
    {
        let _sp = spans::open(Cat::Serve, "serve.ping");
        c.ping()?;
    }
    pygb_obs::disable();
    Ok(median(&t))
}

/// The `serve/catalog_update_races` counter now.
pub fn update_races() -> u64 {
    pygb_obs::registry()
        .counter("serve/catalog_update_races")
        .get()
}

/// The server's queue-wait histogram now.
pub fn queue_wait() -> pygb_obs::HistogramSnapshot {
    pygb_obs::registry()
        .histogram("serve/queue_wait_ns")
        .snapshot()
}

/// A catalog with `web` and `social` registered.
pub fn catalog(web: Matrix, social: Matrix) -> Result<Arc<Catalog>, String> {
    let c = Catalog::new();
    c.register("web", web).map_err(|e| e.to_string())?;
    c.register("social", social).map_err(|e| e.to_string())?;
    Ok(Arc::new(c))
}
