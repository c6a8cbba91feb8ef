//! A steady write stream: edge batches inserted and later deleted as a
//! sliding window, so the written graph's edge count stays in a fixed
//! band however many writes a run completes.

use std::collections::HashSet;

/// SplitMix64: a small seeded generator for the benchmark's own inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One write of the stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Write {
    /// Insert these edges (all absent before).
    Add(Vec<(usize, usize)>),
    /// Delete these edges (all inserted by an earlier `Add`).
    Del(Vec<(usize, usize)>),
}

/// Weight given to inserted edges.
pub const ADD_WEIGHT: f64 = 0.5;

/// Edges per batch.
pub const BATCH: usize = 16;
/// Batches present at once.
pub const WINDOW: usize = 4;

/// Batches of `batch` edges that are absent from the base graph. At
/// most `window` batches are present at once: when the window is full
/// the next write deletes the oldest batch, otherwise it inserts the
/// next one. Batch `k` uses pool slot `k mod (window + 1)`, so the
/// batches present together never share an edge.
pub struct SlidingWindow {
    pool: Vec<Vec<(usize, usize)>>,
    window: usize,
    base_nnz: usize,
    next_add: usize,
    next_del: usize,
}

impl SlidingWindow {
    /// A stream over a graph of `n` vertices whose present edges are
    /// `existing`.
    pub fn new(
        n: usize,
        existing: &HashSet<(usize, usize)>,
        batch: usize,
        window: usize,
        seed: u64,
    ) -> SlidingWindow {
        let mut rng = Rng::new(seed);
        let mut taken = HashSet::new();
        let pool = (0..=window)
            .map(|_| {
                let mut b = Vec::with_capacity(batch);
                while b.len() < batch {
                    let e = (rng.below(n), rng.below(n));
                    if e.0 != e.1 && !existing.contains(&e) && taken.insert(e) {
                        b.push(e);
                    }
                }
                b.sort_unstable();
                b
            })
            .collect();
        SlidingWindow {
            pool,
            window,
            base_nnz: existing.len(),
            next_add: 0,
            next_del: 0,
        }
    }

    /// The next write, advancing the stream.
    pub fn next_write(&mut self) -> Write {
        let slots = self.pool.len();
        if self.next_add - self.next_del < self.window {
            self.next_add += 1;
            Write::Add(self.pool[(self.next_add - 1) % slots].clone())
        } else {
            self.next_del += 1;
            Write::Del(self.pool[(self.next_del - 1) % slots].clone())
        }
    }

    /// Edge count the graph must have after the writes issued so far.
    pub fn expected_nnz(&self) -> usize {
        self.base_nnz + (self.next_add - self.next_del) * self.pool[0].len()
    }

    /// The band the edge count stays in once the window has filled:
    /// between `window - 1` and `window` batches above the base.
    pub fn band(&self) -> (usize, usize) {
        let b = self.pool[0].len();
        (
            self.base_nnz + (self.window - 1) * b,
            self.base_nnz + self.window * b,
        )
    }
}

/// The `pygb-wire/1` request line for a write to `graph`.
pub fn update_line(graph: &str, w: &Write) -> String {
    match w {
        Write::Add(edges) => {
            let items: Vec<String> = edges
                .iter()
                .map(|(i, j)| format!("{i}:{j}:{ADD_WEIGHT}"))
                .collect();
            format!("UPDATE {graph} ADD {}", items.join(","))
        }
        Write::Del(edges) => {
            let items: Vec<String> = edges.iter().map(|(i, j)| format!("{i}:{j}")).collect();
            format!("UPDATE {graph} DEL {}", items.join(","))
        }
    }
}

/// The DSL edge updates for a write.
pub fn edge_updates(w: &Write) -> Vec<pygb::EdgeUpdate> {
    match w {
        Write::Add(edges) => edges
            .iter()
            .map(|&(i, j)| pygb::EdgeUpdate::add(i, j, ADD_WEIGHT))
            .collect(),
        Write::Del(edges) => edges
            .iter()
            .map(|&(i, j)| pygb::EdgeUpdate::del(i, j))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_stays_in_the_band() {
        let existing: HashSet<(usize, usize)> = [(0, 1), (1, 2)].into_iter().collect();
        let mut s = SlidingWindow::new(50, &existing, 3, 4, 7);
        let mut present: HashSet<(usize, usize)> = existing.clone();
        for step in 0..40 {
            match s.next_write() {
                Write::Add(b) => {
                    for e in b {
                        assert!(present.insert(e), "added edge already present");
                    }
                }
                Write::Del(b) => {
                    for e in b {
                        assert!(present.remove(&e), "deleted edge absent");
                    }
                }
            }
            assert_eq!(present.len(), s.expected_nnz());
            if step >= 4 {
                let (lo, hi) = s.band();
                assert!((lo..=hi).contains(&present.len()));
            }
        }
    }
}
