//! `nwserve-v1` frame bytes, pinned and mutated.
//!
//! The pins are FNV-1a digests of the exact frame
//! `write_request`/`write_response` emit for one instance of every
//! request and response type (and both a fully-set and the default
//! job spec). A round trip passes even when both directions change
//! the same way; these rows fail on any moved byte.
//!
//! The seeded mutation loop, modelled on `nw-workload`'s
//! `trace_fuzz.rs`, damages each of those frames (truncation, bit
//! flips, a random span, or a spliced-in huge varint) and reads it
//! back: every case must end in `Ok` or a `ProtoError` without a
//! panic or an allocation past `MAX_FRAME`, and every `Ok` must
//! re-encode to a frame that reads back to the same value.
//!
//! Print the digests with
//!
//! ```text
//! cargo test -p nw-server --test wire print_digests -- --ignored --nocapture
//! ```

use nw_server::proto::{read_request, read_response, write_request, write_response, CODE_DEADLINE, MAX_FRAME};
use nw_server::{JobKind, JobSpec, ProtoError, Request, Response};
use nw_sim::ckpt::{fnv1a, put_varint};
use nw_sim::Pcg32;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Debug;
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request.
struct Peak;

static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Peak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Peak = Peak;

/// A sweep spec with every optional field set.
fn full_spec() -> JobSpec {
    JobSpec {
        kind: JobKind::Sweep,
        spec: "workload:gen:zipf:0.9,ws=32,acc=300".into(),
        machines: vec!["standard".into(), "nwcache".into()],
        prefetch: "adaptive:16".into(),
        scale: 0.05,
        seed: Some(42),
        topo: Some("mesh=4x4,rings=2".into()),
        warmup_events: 5_000,
        verify_warm: true,
        deadline_ms: 30_000,
        progress_every: 1_000,
        want_trace: true,
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Submit(full_spec()),
        Request::Submit(JobSpec::default()),
        Request::Cancel { job: 7 },
        Request::Metrics,
        Request::Shutdown,
        Request::Ping,
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Accepted { job: 3 },
        Response::Progress { job: 3, cell: 1, cells: 4, events: 10_000, now: 123_456_789 },
        Response::Done { job: 3, warm_hit: true, json: "{\"app\":\"sor\"}".into() },
        Response::JobError { job: 3, code: CODE_DEADLINE, message: "deadline of 5ms expired".into() },
        Response::MetricsText { text: "nwserve_jobs_completed_total 9\n".into() },
        Response::Pong,
        Response::TraceJson { job: 3, json: "{\"traceEvents\":[]}".into() },
        Response::Drained { job: 3, path: "autosave/job-3.nwckpt".into(), events: 40_000 },
        Response::ShuttingDown,
    ]
}

fn request_frame(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(&mut buf, req).expect("a Vec accepts every write");
    buf
}

fn response_frame(rsp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    write_response(&mut buf, rsp).expect("a Vec accepts every write");
    buf
}

/// Digests of `requests()`'s frames, in order, recorded.
const REQUEST_DIGESTS: [u64; 6] = [
    0xcf0c39b81b2a60d3,
    0x00b00ccddfa7c001,
    0xea9ca11875dc4831,
    0x0835ee07b4ee5316,
    0x0824f007b4dfe349,
    0x08218a07b4dd0020,
];

/// Digests of `responses()`'s frames, in order, recorded.
const RESPONSE_DIGESTS: [u64; 9] = [
    0x63e15b18ba8c358b,
    0x6438eff9a58bee41,
    0xdb15667928e00705,
    0x4858c35817eaf3da,
    0xd8ef8e68e5404cc9,
    0x0857ea07b50b32b0,
    0xddf1dde3c1ea7efc,
    0x5e5c87d6c0d09599,
    0x08841807b530bbc5,
];

#[test]
fn frames_match_the_recorded_digests() {
    assert_eq!((requests().len(), responses().len()), (REQUEST_DIGESTS.len(), RESPONSE_DIGESTS.len()));
    for (req, digest) in requests().iter().zip(REQUEST_DIGESTS) {
        assert_eq!(fnv1a(&request_frame(req)), digest, "{req:?}");
    }
    for (rsp, digest) in responses().iter().zip(RESPONSE_DIGESTS) {
        assert_eq!(fnv1a(&response_frame(rsp)), digest, "{rsp:?}");
    }
}

#[test]
#[ignore]
fn print_digests() {
    for req in requests() {
        println!("    0x{:016x},", fnv1a(&request_frame(&req)));
    }
    println!();
    for rsp in responses() {
        println!("    0x{:016x},", fnv1a(&response_frame(&rsp)));
    }
}

/// Mutated inputs per frame.
const CASES: u64 = 400;

/// A varint big enough to overflow a count, a length or a `u32`.
fn huge(rng: &mut Pcg32) -> Vec<u8> {
    let v = [1u64 << 24, 1 << 32, u32::MAX as u64 + 1, u64::MAX][rng.gen_below(4) as usize];
    let mut out = Vec::new();
    put_varint(&mut out, v);
    out
}

/// Mutation `case` of `valid`.
fn mutated(valid: &[u8], case: u64) -> Vec<u8> {
    let mut rng = Pcg32::new(0x5E2F, case);
    let mut p = valid.to_vec();
    let at = rng.gen_below(p.len() as u32) as usize;
    match case % 4 {
        0 => p.truncate(at),
        1 => {
            for _ in 0..1 + rng.gen_below(3) {
                let i = rng.gen_below(p.len() as u32) as usize;
                p[i] ^= 1 << rng.gen_below(8);
            }
        }
        2 => {
            let end = (at + 1 + rng.gen_below(8) as usize).min(p.len());
            for b in &mut p[at..end] {
                *b = rng.next_u32() as u8;
            }
        }
        _ => {
            let end = (at + 1 + rng.gen_below(4) as usize).min(p.len());
            p.splice(at..end, huge(&mut rng));
        }
    }
    p
}

/// Read `CASES` mutations of every frame with `read`; returns the
/// counts of `Ok` and `Err` outcomes.
fn survive<M: Debug>(
    frames: &[Vec<u8>],
    read: impl Fn(&[u8]) -> Result<M, ProtoError>,
    write: impl Fn(&M) -> Vec<u8>,
) -> (u64, u64) {
    let (mut ok, mut err) = (0, 0);
    for valid in frames {
        for case in 0..CASES {
            match read(&mutated(valid, case)) {
                Ok(m) => {
                    // Compared as bytes and as `Debug`, since a flipped
                    // `scale` may decode to a NaN.
                    let frame = write(&m);
                    let again = read(&frame).expect("a re-encoded frame reads back");
                    assert_eq!(format!("{again:?}"), format!("{m:?}"), "case {case} of {valid:?}");
                    assert_eq!(write(&again), frame, "case {case} of {valid:?}");
                    ok += 1;
                }
                Err(ProtoError::Io(_) | ProtoError::Malformed(_)) => err += 1,
                Err(e) => panic!("case {case} of {valid:?}: {e}"),
            }
        }
    }
    (ok, err)
}

#[test]
fn mutated_frames_decode_or_fail_cleanly() {
    let frames: Vec<_> = requests().iter().map(request_frame).collect();
    let requests = survive(&frames, |b| read_request(&mut Cursor::new(b)), request_frame);
    let frames: Vec<_> = responses().iter().map(response_frame).collect();
    let responses = survive(&frames, |b| read_response(&mut Cursor::new(b)), response_frame);
    // The loop must exercise both outcomes in both directions.
    for (what, (ok, err)) in [("requests", requests), ("responses", responses)] {
        assert!(ok > 0 && err > 0, "{what}: ok {ok}, err {err}");
    }
    let peak = PEAK.load(Ordering::Relaxed);
    assert!(peak <= MAX_FRAME as usize, "an allocation of {peak} bytes");
}
