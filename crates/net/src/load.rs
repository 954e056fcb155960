//! The multi-connection load generator behind `pbdmm load`.
//!
//! Drives a running daemon from `connections` concurrent TCP connections
//! with the **same synthetic workload family as the in-process `pbdmm
//! serve`** (windows of random rank-2/3 inserts over a shared vertex
//! universe, then deletes of half the committed ids, identical per-producer
//! seeding), and measures the same things: per-update submit→completion
//! latency, point-query read-your-writes, and snapshot staleness against
//! the highest epoch acknowledged across all connections. The two reports
//! therefore differ only by what the wire adds — framing, syscalls, and a
//! round trip.
//!
//! Updates are **pipelined** in windows: a window of singleton
//! `SubmitBatch` frames is flushed in one burst, then the completions are
//! correlated in order — the over-the-wire analog of `serve` submitting a
//! window of tickets and awaiting them. An `Error{Overloaded}` answer
//! (admission control) is counted and the update retried after the window
//! drains, so a throttled run completes rather than failing.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pbdmm_graph::Update;
use pbdmm_primitives::rng::SplitMix64;

use crate::client::{Client, ClientError};
use crate::proto::{ErrorCode, Request, Response, UpdateResult};

/// Insert/delete window size, matching `pbdmm serve`'s producer loop.
const WINDOW: usize = 64;
/// Vertex universe, matching `pbdmm serve`'s producer loop.
const UNIVERSE: u64 = 4096;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent TCP connections.
    pub connections: usize,
    /// Updates submitted per connection.
    pub per_connection: usize,
    /// Point queries issued per completed window (read-your-writes +
    /// staleness probes).
    pub queries_per_window: usize,
    /// Base seed; connection `p` derives `seed ^ (p * 0x9e37)` exactly like
    /// `serve`'s producers.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 4,
            per_connection: 2_500,
            queries_per_window: 8,
            seed: 42,
        }
    }
}

/// What the load generator observed.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Updates acknowledged (inserts + deletes across all connections).
    pub updates: u64,
    /// Wall-clock seconds from first byte to last completion.
    pub seconds: f64,
    /// Per-update submit→completion latencies in µs, sorted ascending.
    pub latencies_us: Vec<f64>,
    /// Point queries resolved.
    pub reads: u64,
    /// Failed queries: read-your-writes violations (a query observed an
    /// epoch older than a completion this connection already held) plus
    /// rejected updates that should have succeeded. Must stay 0.
    pub failed: u64,
    /// Per-query staleness samples (acknowledged epoch − observed epoch),
    /// sorted ascending.
    pub staleness: Vec<f64>,
    /// Updates the daemon refused with `Overloaded` (each was retried).
    pub overloaded: u64,
    /// Protocol/transport errors observed by any connection. Must stay 0.
    pub protocol_errors: u64,
}

/// One connection's share of the load. Returns (updates, latencies µs,
/// reads, failed, staleness, overloaded) or the error that killed it.
#[allow(clippy::type_complexity)]
fn connection_load(
    addr: SocketAddr,
    per_connection: usize,
    queries_per_window: usize,
    mut rng: SplitMix64,
    acked: &AtomicU64,
) -> Result<(u64, Vec<f64>, u64, u64, Vec<f64>, u64), ClientError> {
    let mut c = Client::connect(addr)?;
    let mut latencies = Vec::with_capacity(per_connection);
    let mut staleness = Vec::new();
    let (mut reads, mut failed, mut overloaded) = (0u64, 0u64, 0u64);
    let mut done = 0usize;
    // Highest visibility epoch among this connection's own completions —
    // the read-your-writes reference point.
    let mut my_epoch = 0u64;

    // Submit `updates` as pipelined singleton frames; retry overloaded ones
    // after the window drains. Returns the per-update results.
    let submit_window = |c: &mut Client,
                         updates: &[Update],
                         latencies: &mut Vec<f64>,
                         my_epoch: &mut u64,
                         overloaded: &mut u64|
     -> Result<Vec<Option<UpdateResult>>, ClientError> {
        let mut results = vec![None; updates.len()];
        let mut pending: Vec<usize> = (0..updates.len()).collect();
        while !pending.is_empty() {
            let mut sent = Vec::with_capacity(pending.len());
            for &i in &pending {
                let req_id = c.next_req_id();
                c.send_buffered(&Request::SubmitBatch {
                    req_id,
                    updates: vec![updates[i].clone()],
                })?;
                sent.push((i, req_id, Instant::now()));
            }
            c.flush()?;
            let mut retry = Vec::new();
            for (i, req_id, t0) in sent {
                match c.recv_for(req_id) {
                    Ok(Response::Completion {
                        epoch, results: r, ..
                    }) => {
                        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                        *my_epoch = (*my_epoch).max(epoch);
                        acked.fetch_max(epoch, Ordering::Relaxed);
                        results[i] = r.into_iter().next();
                    }
                    Ok(r) => return Err(ClientError::Unexpected(format!("{r:?} to SubmitBatch"))),
                    Err(ClientError::Server {
                        code: ErrorCode::Overloaded,
                        ..
                    }) => {
                        *overloaded += 1;
                        retry.push(i);
                    }
                    Err(e) => return Err(e),
                }
            }
            pending = retry;
        }
        Ok(results)
    };

    while done < per_connection {
        let window = WINDOW.min(per_connection - done);
        // Same edge distribution (and same rng consumption order) as
        // `serve`'s producers: mostly rank-2, a quarter rank-3.
        let mut inserts = Vec::with_capacity(window);
        for _ in 0..window {
            let a = rng.bounded(UNIVERSE) as u32;
            let b = a + 1 + rng.bounded(7) as u32;
            let vs = if rng.bounded(4) == 0 {
                vec![a, b, b + 1 + rng.bounded(5) as u32]
            } else {
                vec![a, b]
            };
            inserts.push(Update::Insert(vs));
        }
        let results = submit_window(
            &mut c,
            &inserts,
            &mut latencies,
            &mut my_epoch,
            &mut overloaded,
        )?;
        let mut ids = Vec::with_capacity(window);
        for r in results.into_iter().flatten() {
            match r {
                UpdateResult::Inserted { id, .. } => ids.push(id),
                _ => failed += 1, // an insert of a fresh edge can never fail
            }
        }
        done += window;

        // Read-your-writes + staleness probes against the latest snapshot.
        for _ in 0..queries_per_window {
            let v = rng.bounded(UNIVERSE) as u32;
            let q = c.point_query(v)?;
            reads += 1;
            if q.epoch < my_epoch {
                failed += 1; // the daemon served a snapshot older than our own writes
            }
            staleness.push(acked.load(Ordering::Relaxed).saturating_sub(q.epoch) as f64);
        }

        let deletes = (ids.len() / 2).min(per_connection - done);
        if deletes > 0 {
            let dels: Vec<Update> = ids
                .iter()
                .take(deletes)
                .map(|&id| Update::Delete(pbdmm_graph::EdgeId(id)))
                .collect();
            let results = submit_window(
                &mut c,
                &dels,
                &mut latencies,
                &mut my_epoch,
                &mut overloaded,
            )?;
            for r in results.into_iter().flatten() {
                match r {
                    UpdateResult::Deleted { .. } | UpdateResult::AlreadyDeleted { .. } => {}
                    _ => failed += 1, // deleting our own committed id can never fail
                }
            }
            done += deletes;
        }
    }
    Ok((done as u64, latencies, reads, failed, staleness, overloaded))
}

/// Drive `cfg.connections` concurrent connections against the daemon at
/// `addr` and aggregate what they saw. A connection-level failure (refused
/// admission, transport error) is reported in
/// [`LoadReport::protocol_errors`] with the run otherwise completing; the
/// caller decides whether that fails the command.
pub fn run_load(addr: SocketAddr, cfg: &LoadConfig) -> Result<LoadReport, String> {
    if cfg.connections == 0 {
        return Err("load requires at least one connection".into());
    }
    let acked = AtomicU64::new(0);
    let acc = Mutex::new(LoadReport::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..cfg.connections {
            let (acked, acc) = (&acked, &acc);
            let rng = SplitMix64::new(cfg.seed ^ (p as u64).wrapping_mul(0x9e37));
            let (per_connection, queries) = (cfg.per_connection, cfg.queries_per_window);
            scope.spawn(
                move || match connection_load(addr, per_connection, queries, rng, acked) {
                    Ok((updates, mut lat, reads, failed, mut stale, overloaded)) => {
                        let mut a = acc.lock().unwrap();
                        a.updates += updates;
                        a.latencies_us.append(&mut lat);
                        a.reads += reads;
                        a.failed += failed;
                        a.staleness.append(&mut stale);
                        a.overloaded += overloaded;
                    }
                    Err(e) => {
                        eprintln!("load connection {p}: {e}");
                        acc.lock().unwrap().protocol_errors += 1;
                    }
                },
            );
        }
    });
    let mut report = acc.into_inner().unwrap();
    report.seconds = start.elapsed().as_secs_f64();
    report
        .latencies_us
        .sort_by(|a, b| a.partial_cmp(b).unwrap());
    report.staleness.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Ok(report)
}
