//! Randomized property tests over the wire codec, mirroring the WAL
//! torn-write tests in style and seeding: arbitrary frames of every type
//! must round-trip exactly, and no torn, truncated, oversized, or
//! bit-flipped input may ever panic the decoder — hostile bytes yield a
//! structured [`FrameError`], nothing else. Cases are generated from fixed
//! seeds (deterministic, reproducible).

use pbdmm_graph::{EdgeId, Update};
use pbdmm_matching::snapshot::SnapshotDelta;
use pbdmm_net::proto::{
    self, ErrorCode, FrameError, Request, Response, UpdateResult, WireStats, MAX_FRAME,
};
use pbdmm_primitives::obs::ProfileReport;
use pbdmm_primitives::rng::SplitMix64;

/// Cases per property: 64 by default; the nightly CI job raises it via
/// `PBDMM_PROP_CASES` for deeper sweeps at the same fixed seeds.
fn cases() -> u64 {
    std::env::var("PBDMM_PROP_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

fn arb_update(rng: &mut SplitMix64) -> Update {
    if rng.bounded(3) == 0 {
        Update::Delete(EdgeId(rng.next_u64() >> 8))
    } else {
        let card = 1 + rng.bounded(4) as usize;
        Update::Insert((0..card).map(|_| rng.bounded(1 << 20) as u32).collect())
    }
}

fn arb_request(rng: &mut SplitMix64) -> Request {
    let req_id = rng.next_u64();
    match rng.bounded(5) {
        0 => Request::SubmitBatch {
            req_id,
            updates: (0..rng.bounded(20)).map(|_| arb_update(rng)).collect(),
        },
        1 => Request::PointQuery {
            req_id,
            vertex: rng.next_u64() as u32,
        },
        2 => Request::Stats { req_id },
        3 => Request::SubscribeDeltas {
            req_id,
            from_epoch: rng.next_u64(),
        },
        _ => Request::Shutdown { req_id },
    }
}

fn arb_delta(rng: &mut SplitMix64) -> SnapshotDelta {
    let ids = |rng: &mut SplitMix64, n: u64| -> Vec<EdgeId> {
        (0..rng.bounded(n))
            .map(|_| EdgeId(rng.next_u64() >> 8))
            .collect()
    };
    SnapshotDelta {
        from_epoch: rng.next_u64(),
        to_epoch: rng.next_u64(),
        inserted: ids(rng, 10),
        deleted: ids(rng, 10),
        matched: (0..rng.bounded(8))
            .map(|_| {
                let card = 1 + rng.bounded(4) as usize;
                (
                    EdgeId(rng.next_u64() >> 8),
                    (0..card).map(|_| rng.next_u64() as u32).collect(),
                )
            })
            .collect(),
        unmatched: ids(rng, 10),
    }
}

fn arb_code(rng: &mut SplitMix64) -> ErrorCode {
    ErrorCode::from_u16(1 + rng.bounded(7) as u16).unwrap()
}

fn arb_result(rng: &mut SplitMix64) -> UpdateResult {
    let (id, seq, epoch) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
    match rng.bounded(4) {
        0 => UpdateResult::Inserted { id, seq, epoch },
        1 => UpdateResult::Deleted { id, seq, epoch },
        2 => UpdateResult::AlreadyDeleted { id, seq, epoch },
        _ => UpdateResult::Rejected {
            code: arb_code(rng),
        },
    }
}

/// A report with random counters and a few random histogram buckets per
/// phase (the wire encodes non-zero buckets sparsely).
fn arb_report(rng: &mut SplitMix64) -> ProfileReport {
    let mut report = ProfileReport::empty();
    report.wall_ns = rng.next_u64();
    for p in &mut report.phases {
        p.total_ns = rng.next_u64();
        p.count = rng.next_u64();
        p.max_ns = rng.next_u64();
        for _ in 0..rng.bounded(4) {
            let i = rng.bounded(p.buckets.len() as u64) as usize;
            p.buckets[i] = rng.next_u64();
        }
    }
    for c in &mut report.counters {
        *c = rng.next_u64();
    }
    report
}

fn arb_response(rng: &mut SplitMix64) -> Response {
    let req_id = rng.next_u64();
    match rng.bounded(5) {
        0 => Response::Completion {
            req_id,
            epoch: rng.next_u64(),
            results: (0..rng.bounded(20)).map(|_| arb_result(rng)).collect(),
        },
        1 => Response::QueryResult {
            req_id,
            epoch: rng.next_u64(),
            matched_edge: (rng.bounded(2) == 0).then(|| rng.next_u64()),
            partners: (0..rng.bounded(5)).map(|_| rng.next_u64() as u32).collect(),
        },
        2 => Response::Stats {
            req_id,
            stats: WireStats {
                epoch: rng.next_u64(),
                num_edges: rng.next_u64(),
                matching_size: rng.next_u64(),
                connections: rng.next_u64() as u32,
                draining: rng.bounded(2) as u8,
                report: arb_report(rng),
            },
        },
        3 => Response::DeltaEvent {
            resync: rng.bounded(2) == 0,
            delta: arb_delta(rng),
        },
        _ => Response::Error {
            req_id,
            code: arb_code(rng),
            message: {
                let len = rng.bounded(40) as usize;
                (0..len)
                    .map(|_| char::from(b'a' + rng.bounded(26) as u8))
                    .collect()
            },
        },
    }
}

#[test]
fn requests_round_trip_over_all_frame_types() {
    let mut rng = SplitMix64::new(0xC0DE_C001);
    for _ in 0..cases() {
        let req = arb_request(&mut rng);
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, &req.encode()).unwrap();
        let mut body = Vec::new();
        let mut r = &wire[..];
        assert!(proto::read_frame(&mut r, MAX_FRAME, &mut body)
            .unwrap()
            .is_some());
        assert_eq!(Request::decode(&body).unwrap(), req);
        assert!(r.is_empty(), "frame left trailing bytes on the stream");
    }
}

#[test]
fn responses_round_trip_over_all_frame_types() {
    let mut rng = SplitMix64::new(0xC0DE_C002);
    for _ in 0..cases() {
        let resp = arb_response(&mut rng);
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, &resp.encode()).unwrap();
        let mut body = Vec::new();
        let mut r = &wire[..];
        assert!(proto::read_frame(&mut r, MAX_FRAME, &mut body)
            .unwrap()
            .is_some());
        assert_eq!(Response::decode(&body).unwrap(), resp);
    }
}

#[test]
fn pipelined_frame_streams_round_trip() {
    // Many frames back to back on one stream — the decoder must consume
    // each frame exactly and stop cleanly at the boundary EOF.
    let mut rng = SplitMix64::new(0xC0DE_C003);
    for _ in 0..cases() {
        let reqs: Vec<Request> = (0..1 + rng.bounded(10))
            .map(|_| arb_request(&mut rng))
            .collect();
        let mut wire = Vec::new();
        for req in &reqs {
            proto::write_frame(&mut wire, &req.encode()).unwrap();
        }
        let mut r = &wire[..];
        let mut body = Vec::new();
        let mut decoded = Vec::new();
        while proto::read_frame(&mut r, MAX_FRAME, &mut body)
            .unwrap()
            .is_some()
        {
            decoded.push(Request::decode(&body).unwrap());
        }
        assert_eq!(decoded, reqs);
    }
}

/// Mid-frame disconnects: every prefix of a valid frame stream must decode
/// the complete frames, then report `Torn` — never a panic, and never a
/// phantom frame. (A cut at a frame boundary is a clean EOF instead.)
#[test]
fn every_truncation_is_torn_or_a_clean_boundary() {
    let mut rng = SplitMix64::new(0xC0DE_C004);
    for _ in 0..cases() {
        let mut wire = Vec::new();
        let mut boundaries = vec![0usize];
        for _ in 0..1 + rng.bounded(4) {
            proto::write_frame(&mut wire, &arb_request(&mut rng).encode()).unwrap();
            boundaries.push(wire.len());
        }
        let cut = rng.bounded(wire.len() as u64 + 1) as usize;
        let mut r = &wire[..cut];
        let mut body = Vec::new();
        let result = loop {
            match proto::read_frame(&mut r, MAX_FRAME, &mut body) {
                Ok(Some(())) => {
                    Request::decode(&body).unwrap(); // complete frames stay valid
                }
                other => break other,
            }
        };
        if boundaries.contains(&cut) {
            assert!(matches!(result, Ok(None)), "cut {cut} is a boundary");
        } else {
            assert!(
                matches!(result, Err(FrameError::Torn { .. })),
                "cut {cut}: got {result:?}"
            );
        }
    }
}

/// Torn length prefixes specifically: 1–3 bytes of a 4-byte prefix.
#[test]
fn truncated_length_prefix_is_torn() {
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, &Request::Stats { req_id: 9 }.encode()).unwrap();
    let mut body = Vec::new();
    for cut in 1..4 {
        let mut r = &wire[..cut];
        assert!(matches!(
            proto::read_frame(&mut r, MAX_FRAME, &mut body),
            Err(FrameError::Torn { .. })
        ));
    }
}

/// A declared length beyond the cap is refused before buffering a byte,
/// whatever follows the prefix.
#[test]
fn lengths_beyond_the_cap_are_rejected_unbuffered() {
    let mut rng = SplitMix64::new(0xC0DE_C005);
    for _ in 0..cases() {
        let len = MAX_FRAME as u64 + 1 + rng.bounded(u32::MAX as u64 - MAX_FRAME as u64);
        let wire = (len as u32).to_le_bytes();
        let mut body = Vec::new();
        assert!(matches!(
            proto::read_frame(&mut &wire[..], MAX_FRAME, &mut body),
            Err(FrameError::TooLarge { .. })
        ));
    }
}

/// Bit-flip fuzzing: corrupt one byte of a valid frame body anywhere and
/// decoding must return `Ok` (the flip hit a don't-care bit or produced a
/// different valid frame) or `Malformed` — never panic, never overread.
#[test]
fn bit_flipped_bodies_never_panic_the_decoder() {
    let mut rng = SplitMix64::new(0xC0DE_C006);
    for _ in 0..cases() {
        let mut body = arb_request(&mut rng).encode();
        let pos = rng.bounded(body.len() as u64) as usize;
        body[pos] ^= 1 << rng.bounded(8);
        let _ = Request::decode(&body); // must not panic
        let _ = Response::decode(&body); // wrong opcode space: same rule
    }
}

/// Random garbage bodies: pure noise must decode to an error, not a panic.
#[test]
fn random_garbage_never_panics_the_decoder() {
    let mut rng = SplitMix64::new(0xC0DE_C007);
    for _ in 0..cases() {
        let len = 1 + rng.bounded(256) as usize;
        let body: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = Request::decode(&body);
        let _ = Response::decode(&body);
    }
}

/// Truncated bodies of valid frames: every strict prefix must be rejected
/// as malformed (missing bytes), never accepted or panicked on.
#[test]
fn truncated_bodies_are_malformed() {
    let mut rng = SplitMix64::new(0xC0DE_C008);
    for _ in 0..cases() {
        let req = arb_request(&mut rng);
        let body = req.encode();
        for cut in 0..body.len() {
            assert!(
                matches!(Request::decode(&body[..cut]), Err(FrameError::Malformed(_))),
                "prefix of {cut} bytes accepted"
            );
        }
    }
}
