//! Closed-loop load against an in-process `pygb-serve`: each client
//! connection sends its next request only after the previous reply.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pygb_serve::{AdmissionConfig, Catalog, Client, Frame, Server, ServerConfig};

use crate::report::Tally;
use crate::respond::{check_invariants, read_line, ExactGraph, VERBS};
use crate::window::{update_line, SlidingWindow};

/// Worker threads of the server under test.
pub const WORKERS: usize = 2;

/// Start a server with [`WORKERS`] workers that admits every request
/// of a small closed loop.
pub fn start_server(catalog: Arc<Catalog>) -> std::io::Result<Server> {
    Server::start(
        catalog,
        ServerConfig {
            workers: WORKERS,
            admission: AdmissionConfig {
                max_inflight: 64,
                per_tenant: 64,
                queue_timeout: Duration::from_secs(60),
            },
            ..ServerConfig::default()
        },
    )
}

/// One read request of the mix.
#[derive(Clone)]
pub struct ReadKind {
    /// Query verb (one of [`VERBS`]).
    pub verb: &'static str,
    /// Graph name.
    pub graph: &'static str,
    /// The request line.
    pub line: String,
}

/// Every verb on each of `graphs`, graph-major.
pub fn read_mix(graphs: &[&'static str]) -> Vec<ReadKind> {
    graphs
        .iter()
        .flat_map(|&g| {
            VERBS.iter().map(move |&verb| ReadKind {
                verb,
                graph: g,
                line: read_line(verb, g),
            })
        })
        .collect()
}

/// How responses are checked.
pub struct Checks {
    /// Oracle answers for `social`, which is never written.
    pub social: Mutex<ExactGraph>,
    /// Vertex count of `web`, the written graph.
    pub written_n: usize,
    /// Edge-count range `web` can be in.
    pub written_nnz: (usize, usize),
}

impl Checks {
    fn check(&self, kind: &ReadKind, body: &str) -> bool {
        if kind.graph == "social" {
            self.social
                .lock()
                .expect("a checker thread panicked")
                .check(kind.verb, body)
        } else {
            check_invariants(kind.verb, body, self.written_n, self.written_nnz)
        }
    }
}

/// What one load phase observed.
#[derive(Default)]
pub struct LoadReport {
    /// Latency of each OK read, ms, with its mix index.
    pub reads: Vec<(usize, f64)>,
    /// Requests attempted, failed and mismatched.
    pub tally: Tally,
}

impl LoadReport {
    /// Read latencies of one verb, ms.
    pub fn verb_reads(&self, mix: &[ReadKind], verb: &str, graph: &str) -> Vec<f64> {
        self.reads
            .iter()
            .filter(|(k, _)| mix[*k].verb == verb && mix[*k].graph == graph)
            .map(|&(_, ms)| ms)
            .collect()
    }
}

fn send(c: &mut Client, line: &str, tally: &mut Tally) -> std::io::Result<(f64, Option<String>)> {
    tally.attempted += 1;
    let t0 = Instant::now();
    let frame = c.request(line)?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(match frame {
        Frame::Ok(body) | Frame::OkWarn(body, _) => (ms, Some(body)),
        Frame::Err(code, msg) => {
            tally.errors += 1;
            eprintln!("perfbench: `{line}` failed: {code:?} {msg}");
            (ms, None)
        }
    })
}

/// Connections of the closed loop; at most `nproc` on the 2-vCPU
/// machine the benchmark was sized for.
pub const CLIENTS: usize = 2;

/// Drive [`CLIENTS`] closed-loop connections until `deadline`, each
/// cycling through `mix` from a staggered start and completing at least
/// one pass. Connection 0 also sends the next write of `writer` to
/// `web` after every read.
pub fn run(
    addr: std::net::SocketAddr,
    mix: &[ReadKind],
    checks: &Checks,
    writer: &Mutex<SlidingWindow>,
    deadline: Instant,
) -> std::io::Result<LoadReport> {
    let results: Vec<std::io::Result<LoadReport>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                s.spawn(move || -> std::io::Result<LoadReport> {
                    let mut c = Client::connect(addr)?;
                    c.hello(&format!("client-{id}"))?;
                    let mut rep = LoadReport::default();
                    let mut i = 0;
                    while Instant::now() < deadline || i < mix.len() {
                        let k = (i + id * mix.len() / CLIENTS) % mix.len();
                        let (ms, body) = send(&mut c, &mix[k].line, &mut rep.tally)?;
                        if let Some(body) = body {
                            if checks.check(&mix[k], &body) {
                                rep.reads.push((k, ms));
                            } else {
                                rep.tally.mismatches += 1;
                                eprintln!(
                                    "perfbench: wrong answer to `{}`: {}",
                                    mix[k].line,
                                    &body[..body.len().min(300)]
                                );
                            }
                        }
                        i += 1;
                        if id == 0 {
                            let mut w = writer.lock().expect("a client thread panicked");
                            let line = update_line("web", &w.next_write());
                            let (_, body) = send(&mut c, &line, &mut rep.tally)?;
                            if let Some(body) = body {
                                let nvals = crate::respond::number(&body, "nvals");
                                if nvals != Some(w.expected_nnz() as f64) {
                                    rep.tally.mismatches += 1;
                                    eprintln!(
                                        "perfbench: write left nvals {nvals:?}, expected {}",
                                        w.expected_nnz()
                                    );
                                }
                            }
                        }
                    }
                    Ok(rep)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let mut total = LoadReport::default();
    for r in results {
        let r = r?;
        total.reads.extend(r.reads);
        total.tally.add(r.tally);
    }
    Ok(total)
}
