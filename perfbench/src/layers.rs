//! The traced run's in-process half: each layer's public call timed on
//! its own, inside a span, on the same inputs the served run used.

use std::collections::BTreeMap;
use std::path::Path;

use irs_ait::{Ait, DynamicAwit};
use irs_client::{Client, Irs};
use irs_core::{
    Interval64, ItemId, PreparedSampler, RangeSampler, WalWriter, WeightedRangeSampler, WireError,
};
use irs_engine::{IndexKind, Query};
use irs_wire::message::{decode_message, encode_message};
use irs_wire::{Request, Response};
use rand::SeedableRng;

use crate::stats::{median_f64, quantile};
use crate::trace::Tracer;
use crate::traffic::{mutation, WriteOp};
use crate::Workload;

/// In-process requests timed per layer; enough for a steady median.
const INPROC_REQUESTS: usize = 2000;
/// WAL appends timed, each with its `sync_data`.
const WAL_APPENDS: usize = 32;

pub struct Inputs<'a> {
    pub csv: &'a Path,
    pub snapshot: &'a Path,
    pub wal: &'a Path,
    pub dir: &'a Path,
    pub queries: &'a [Query<i64>],
    pub writes: &'a [WriteOp],
    pub seed: u64,
}

fn median_us(t: &Tracer, name: &str) -> f64 {
    quantile(&mut t.durations(name), 0.5) / 1e3
}

fn seconds(t: &Tracer, name: &str) -> f64 {
    t.durations(name).iter().sum::<u64>() as f64 / 1e9
}

/// Runs every in-process measurement; returns the per-layer metrics
/// they give, in their units.
pub fn measure(
    w: &Workload,
    inputs: &Inputs,
    t: &mut Tracer,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();
    let (data, weights) = t.span("csv.load", 0, None, || {
        irs_datagen::csv::load_csv(inputs.csv)
    })?;
    m.insert("csv.load_s", seconds(t, "csv.load"));

    let kind = IndexKind::parse(w.kind).expect("workload kinds are valid");
    let mut builder = Irs::builder().kind(kind).shards(w.shards).seed(inputs.seed);
    if w.weighted {
        builder = builder.weights(weights.clone());
    }
    let client = t
        .span("build", 0, None, || builder.build(&data))
        .map_err(|e| format!("in-process build: {e}"))?;
    m.insert("build.s", seconds(t, "build"));
    m.insert("client.heap_mb", client.heap_bytes() as f64 / 1e6);

    // One request through the in-process client plus the four codec
    // steps a remote round trip adds around it.
    let mut response_bytes = Vec::new();
    for (r, &query) in inputs.queries.iter().take(INPROC_REQUESTS).enumerate() {
        let req = r as u64;
        let request_span = t.begin("inproc.request", req, None);
        let parent = Some(request_span);
        let request = Request::Run {
            seed: None,
            queries: vec![query],
        };
        let bytes = t.span("wire.encode_request", req, parent, || {
            encode_message(&request)
        });
        let decoded: Request<i64> = t
            .span("wire.decode_request", req, parent, || {
                decode_message(&bytes)
            })
            .map_err(|e| format!("decode request: {e}"))?;
        let Request::Run { queries, .. } = decoded else {
            return Err("request decoded to another variant".to_string());
        };
        let results = t.span("client.run", req, parent, || client.run(&queries));
        let response = Response::Run(
            results
                .into_iter()
                .map(|r| r.map_err(|e| WireError::from(&e)))
                .collect(),
        );
        let bytes = t.span("wire.encode_response", req, parent, || {
            encode_message(&response)
        });
        response_bytes.push(bytes.len() as u64);
        let back: Response = t
            .span("wire.decode_response", req, parent, || {
                decode_message(&bytes)
            })
            .map_err(|e| format!("decode response: {e}"))?;
        if back != response {
            return Err("response changed across encode and decode".to_string());
        }
        t.end(request_span);
    }
    m.insert("client.run_us", median_us(t, "client.run"));
    let codec_us = |a: &str, b: &str| {
        let mut sums: Vec<u64> = t
            .per_request(a)
            .iter()
            .zip(t.per_request(b))
            .map(|(x, y)| x + y)
            .collect();
        quantile(&mut sums, 0.5) / 1e3
    };
    m.insert(
        "wire.encode_us",
        codec_us("wire.encode_request", "wire.encode_response"),
    );
    m.insert(
        "wire.decode_us",
        codec_us("wire.decode_request", "wire.decode_response"),
    );
    m.insert("wire.response_bytes", quantile(&mut response_bytes, 0.5));

    // One mutation per writer-seat claim, no log: the apply half of the
    // served write chain.
    let mut ids: Vec<Option<ItemId>> = Vec::new();
    for (j, &op) in inputs.writes.iter().enumerate() {
        let Some(mu) = mutation(op, w.weighted, &ids) else {
            return Err(format!(
                "in-process write step {j} has no acked insert to delete"
            ));
        };
        let out = t.span("update.apply", j as u64, None, || {
            client.writer().apply(std::slice::from_ref(&mu))
        });
        match out.first() {
            Some(Ok(irs_core::UpdateOutput::Inserted(id))) => ids.push(Some(*id)),
            Some(Ok(_)) => ids.push(None),
            other => return Err(format!("in-process apply failed: {other:?}")),
        }
    }
    m.insert("update.apply_us", median_us(t, "update.apply"));
    drop(client);

    // Phase 1 and phase 2 on the bare structure over the whole dataset.
    let mut rng = rand::rngs::SmallRng::seed_from_u64(inputs.seed);
    let mut per_id_ns = Vec::new();
    let mut ids = Vec::new();
    if w.weighted {
        let index = DynamicAwit::new(&data, &weights);
        for (r, q) in sample_queries(inputs.queries) {
            let prepared = t.span("index.prepare", r, None, || index.prepare_weighted(q.0));
            if prepared.candidate_count() == 0 {
                continue;
            }
            ids.clear();
            let ns = timed_draw(t, r, || prepared.sample_into(&mut rng, q.1, &mut ids));
            per_id_ns.push(ns / q.1 as f64);
        }
    } else {
        let index = Ait::new(&data);
        for (r, q) in sample_queries(inputs.queries) {
            let prepared = t.span("index.prepare", r, None, || index.prepare(q.0));
            if prepared.candidate_count() == 0 {
                continue;
            }
            ids.clear();
            let ns = timed_draw(t, r, || prepared.sample_into(&mut rng, q.1, &mut ids));
            per_id_ns.push(ns / q.1 as f64);
        }
    }
    m.insert("index.prepare_us", median_us(t, "index.prepare"));
    m.insert("index.draw_ns", median_f64(&per_id_ns));
    drop(data);

    // The durable half of the write chain: append + sync_data on the
    // run's own data directory.
    let probe = inputs.dir.join("append-probe.wal");
    let mut wal = WalWriter::<i64>::create(&probe, 1).map_err(|e| format!("wal create: {e}"))?;
    let muts: Vec<_> = inputs
        .writes
        .iter()
        .filter(|op| matches!(op, WriteOp::Insert { .. }))
        .filter_map(|&op| mutation(op, w.weighted, &[]))
        .collect();
    for j in 0..WAL_APPENDS {
        let mu = muts[j % muts.len()];
        t.span("wal.append", j as u64, None, || {
            wal.append(None, std::slice::from_ref(&mu))
        })
        .map_err(|e| format!("wal append: {e}"))?;
    }
    m.insert("wal.append_us", median_us(t, "wal.append"));
    drop(wal);

    let mut loaded = t
        .span("persist.load", 0, None, || {
            Client::<i64>::load(inputs.snapshot)
        })
        .map_err(|e| format!("Client::load: {e}"))?;
    m.insert("persist.load_s", seconds(t, "persist.load"));
    // The replay half of `Client::recover`, timed by itself: recover's
    // time minus a separate load's is dominated by the load's own
    // run-to-run noise and can come out negative.
    let checkpoint = irs_core::wal::read_checkpoint(inputs.snapshot)
        .map_err(|e| format!("checkpoint: {e}"))?
        .unwrap_or(0);
    let (_wal, replay) =
        WalWriter::<i64>::recover(inputs.wal).map_err(|e| format!("wal recover: {e}"))?;
    let records: Vec<_> = replay
        .records
        .iter()
        .filter(|r| r.seq > checkpoint)
        .collect();
    t.span("wal.replay", 0, None, || {
        for record in &records {
            let _ = loaded.apply(&record.muts);
        }
    });
    let replay_s = seconds(t, "wal.replay");
    m.insert(
        "wal.replay_us",
        replay_s * 1e6 / records.len().max(1) as f64,
    );
    Ok(m)
}

/// The sample queries with their request index, query interval and s.
fn sample_queries(queries: &[Query<i64>]) -> impl Iterator<Item = (u64, (Interval64, usize))> + '_ {
    queries
        .iter()
        .take(INPROC_REQUESTS)
        .enumerate()
        .filter_map(|(r, q)| match *q {
            Query::Sample { q, s } | Query::SampleWeighted { q, s } => Some((r as u64, (q, s))),
            _ => None,
        })
}

/// Runs one phase-2 draw inside an `index.draw` span; returns its ns.
fn timed_draw(t: &mut Tracer, r: u64, f: impl FnOnce()) -> f64 {
    let s = t.begin("index.draw", r, None);
    f();
    t.end(s);
    t.spans[s].dur_ns() as f64
}
