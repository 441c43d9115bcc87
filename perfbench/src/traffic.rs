//! Closed-loop reader and writer connections, and the benchmark's own
//! copy of the data that every answer is checked against.

use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

use irs_core::{Interval64, ItemId, Mutation, UpdateOutput};
use irs_engine::{Query, QueryOutput};
use irs_wire::RemoteClient;

use crate::trace::Tracer;

/// The benchmark's copy of what the server should hold.
pub struct Truth {
    pub base: Vec<Interval64>,
    pub weights: Vec<f64>,
    /// Live intervals the writer inserted, by the id the server gave.
    pub inserted: BTreeMap<ItemId, (Interval64, f64)>,
}

impl Truth {
    pub fn live_len(&self) -> usize {
        self.base.len() + self.inserted.len()
    }

    /// Live ids overlapping `q`, with their weights, by brute force.
    pub fn members(&self, q: Interval64) -> Vec<(ItemId, f64)> {
        let base = self
            .base
            .iter()
            .zip(&self.weights)
            .enumerate()
            .filter(|(_, (iv, _))| iv.overlaps(&q))
            .map(|(i, (_, &w))| (i as ItemId, w));
        let fresh = self
            .inserted
            .iter()
            .filter(|(_, (iv, _))| iv.overlaps(&q))
            .map(|(&id, &(_, w))| (id, w));
        base.chain(fresh).collect()
    }

    pub fn count(&self, q: Interval64) -> usize {
        self.base.iter().filter(|iv| iv.overlaps(&q)).count()
            + self
                .inserted
                .values()
                .filter(|(iv, _)| iv.overlaps(&q))
                .count()
    }
}

/// Checks one sample answer against the base data, which is all a
/// reader can see: fresh intervals lie past the base domain and the
/// read queries inside it.
fn check_sample(
    base: &[Interval64],
    q: Interval64,
    s: usize,
    ids: &[ItemId],
) -> Result<(), String> {
    if ids.is_empty() {
        let n = base.iter().filter(|iv| iv.overlaps(&q)).count();
        return if n == 0 {
            Ok(())
        } else {
            Err(format!(
                "empty sample for {q:?}, which {n} live intervals overlap"
            ))
        };
    }
    if ids.len() != s {
        return Err(format!("{} ids for s = {s}", ids.len()));
    }
    match ids
        .iter()
        .find(|&&id| base.get(id as usize).is_none_or(|iv| !iv.overlaps(&q)))
    {
        Some(id) => Err(format!("sampled id {id} is not live or misses {q:?}")),
        None => Ok(()),
    }
}

/// What one connection did.
#[derive(Default)]
pub struct ConnOut {
    /// Round trip of every successful request, ns.
    pub lat_ns: Vec<u64>,
    /// In a traced run, round trips of the requests that recorded a
    /// span and of those that did not, to measure the tracing cost.
    pub traced_ns: Vec<u64>,
    pub untraced_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub spans: Option<Tracer>,
}

impl ConnOut {
    /// Folds a later block of the same connection into this one.
    pub fn merge(&mut self, mut other: ConnOut) {
        self.lat_ns.append(&mut other.lat_ns);
        self.traced_ns.append(&mut other.traced_ns);
        self.untraced_ns.append(&mut other.untraced_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.append(&mut other.problems);
        match (&mut self.spans, other.spans) {
            (Some(t), Some(o)) => t.absorb(o),
            (None, o) => self.spans = o,
            _ => {}
        }
    }
}

/// In a traced run every other request records a span, so the tracing
/// overhead is measured inside the run against the untraced half.
fn timed<T>(out: &mut ConnOut, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let traced = req.is_multiple_of(2);
    let span = match &mut out.spans {
        Some(t) if traced => Some(t.begin(name, req, None)),
        _ => None,
    };
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    if let (Some(t), Some(s)) = (&mut out.spans, span) {
        t.end(s);
    }
    if out.spans.is_some() {
        if traced {
            out.traced_ns.push(ns);
        } else {
            out.untraced_ns.push(ns);
        }
    }
    (r, ns)
}

/// How a reader paces its requests.
pub enum Pace {
    /// Back to back, this many requests.
    Count(usize),
    /// One request `READ_DELAY` after each write the writer sends, until
    /// the writer hangs up: every read lands while a write is in flight.
    BesideWrites(Receiver<()>),
}

/// How long after a write is sent its paired read goes out: past the
/// write's log fsync (~0.1 ms on the README's reference host), inside
/// its index update.
const READ_DELAY: Duration = Duration::from_millis(1);

/// One closed-loop reader: sends `queries` in order (cycling), each as
/// a one-query `Run`, paced by `pace`, and checks every answer.
pub fn read_loop(
    remote: &mut RemoteClient<i64>,
    base: &[Interval64],
    queries: &[Query<i64>],
    pace: Pace,
    req_base: u64,
    tracer: Option<Tracer>,
) -> ConnOut {
    let mut out = ConnOut {
        spans: tracer,
        ..ConnOut::default()
    };
    let mut i = 0usize;
    loop {
        match pace {
            Pace::Count(n) if i >= n => break,
            Pace::Count(_) => {}
            Pace::BesideWrites(ref sent) => match sent.recv() {
                Ok(()) => std::thread::sleep(READ_DELAY),
                Err(_) => break,
            },
        }
        let query = queries[i % queries.len()];
        let req = req_base + i as u64;
        i += 1;
        out.attempted += 1;
        let (result, ns) = timed(&mut out, "remote.sample", req, || {
            remote.run(std::slice::from_ref(&query))
        });
        let (q, s) = match query {
            Query::Sample { q, s } | Query::SampleWeighted { q, s } => (q, s),
            _ => unreachable!("readers send sample queries only"),
        };
        match result.map(|mut r| r.pop()) {
            Ok(Some(Ok(QueryOutput::Samples(ids)))) => {
                out.lat_ns.push(ns);
                if let Err(e) = check_sample(base, q, s, &ids) {
                    out.problems.push(format!("request {req}: {e}"));
                }
            }
            other => {
                out.failed += 1;
                if out.failed <= 3 {
                    eprintln!("sample request {req} failed: {other:?}");
                }
            }
        }
    }
    out
}

/// Requests per second of one connection's busy time: completed
/// requests over the sum of their round trips, every request counted.
/// The client's own answer checks and pacing are not counted. `None`
/// when the connection completed nothing.
pub fn busy_rate(lat_ns: &[u64]) -> Option<f64> {
    let busy: u64 = lat_ns.iter().sum();
    (busy > 0).then(|| lat_ns.len() as f64 * 1e9 / busy as f64)
}

/// One step of a writer's fixed sequence.
#[derive(Clone, Copy, Debug)]
pub enum WriteOp {
    Insert {
        iv: Interval64,
        weight: f64,
    },
    /// Deletes the interval the `of`-th step of the sequence inserted.
    Delete {
        of: usize,
    },
}

/// The write sequence: two inserts then a delete of the first of them,
/// repeated, so the live set grows by one per three steps.
pub fn write_ops(fresh: &[Interval64], weights: &[f64], steps: usize) -> Vec<WriteOp> {
    let mut next = 0;
    (0..steps)
        .map(|j| {
            if j % 3 == 2 {
                WriteOp::Delete { of: j - 2 }
            } else {
                let op = WriteOp::Insert {
                    iv: fresh[next],
                    weight: weights[next],
                };
                next += 1;
                op
            }
        })
        .collect()
}

/// Turns a step into the mutation to send, given the ids earlier steps
/// were acked with. `None` when the insert it deletes was not acked.
pub fn mutation(op: WriteOp, weighted: bool, ids: &[Option<ItemId>]) -> Option<Mutation<i64>> {
    match op {
        WriteOp::Insert { iv, weight } if weighted => Some(Mutation::InsertWeighted { iv, weight }),
        WriteOp::Insert { iv, .. } => Some(Mutation::Insert { iv }),
        WriteOp::Delete { of } => ids[of].map(|id| Mutation::Delete { id }),
    }
}

/// The closed-loop writer: one `Apply` of one mutation per step. It
/// runs its sequence in blocks; `live` holds the inserts acked and not
/// deleted so far.
#[derive(Default)]
pub struct Writer {
    pub conn: ConnOut,
    pub live: BTreeMap<ItemId, (Interval64, f64)>,
    /// The id each step so far was acked with, in step order.
    ids: Vec<Option<ItemId>>,
}

impl Writer {
    /// Runs the next `count` steps of `ops`.
    pub fn run(
        &mut self,
        remote: &mut RemoteClient<i64>,
        ops: &[WriteOp],
        count: usize,
        weighted: bool,
        sent: Option<Sender<()>>,
    ) {
        let from = self.ids.len();
        for (j, &op) in ops.iter().enumerate().skip(from).take(count) {
            let acked = self.step(remote, j, op, weighted, sent.as_ref());
            self.ids.push(acked);
        }
    }

    fn step(
        &mut self,
        remote: &mut RemoteClient<i64>,
        j: usize,
        op: WriteOp,
        weighted: bool,
        sent: Option<&Sender<()>>,
    ) -> Option<ItemId> {
        let conn = &mut self.conn;
        conn.attempted += 1;
        let Some(m) = mutation(op, weighted, &self.ids) else {
            conn.failed += 1;
            return None;
        };
        let req = (1 << 40) + j as u64;
        let (result, ns) = timed(conn, "remote.apply", req, || {
            if let Some(sent) = sent {
                let _ = sent.send(());
            }
            remote.apply(std::slice::from_ref(&m))
        });
        let acked = match (op, result.map(|mut r| r.pop())) {
            (WriteOp::Insert { iv, weight }, Ok(Some(Ok(UpdateOutput::Inserted(id))))) => {
                if self.live.insert(id, (iv, weight)).is_some() {
                    conn.problems
                        .push(format!("insert acked with live id {id}"));
                }
                Some(id)
            }
            (WriteOp::Delete { of }, Ok(Some(Ok(UpdateOutput::Removed)))) => {
                if let Some(id) = self.ids[of] {
                    self.live.remove(&id);
                }
                None
            }
            (_, other) => {
                conn.failed += 1;
                if conn.failed <= 3 {
                    eprintln!("apply request {req} failed: {other:?}");
                }
                return None;
            }
        };
        conn.lat_ns.push(ns);
        acked
    }
}
