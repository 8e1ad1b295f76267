//! The `nwtrace-v1` trace format: capture, encode, decode, replay.
//!
//! A [`Trace`] is the materialized form of a workload — one ordered
//! record stream per processor, each record a plain
//! [`nw_apps::Action`] (compute burst, cache-line read/write, or
//! barrier). Two interchangeable encodings exist, both implemented
//! here with no external dependencies:
//!
//! * **text** — a line-oriented format (`nwtrace-v1` header, one
//!   record per line) that diffs well and can be written by hand;
//! * **binary** — a compact length-prefixed format roughly 6–10x
//!   smaller than the text form: the `NWTR` magic and a version byte,
//!   then the name, footprint and records as one field list
//!   (`Trace::body`) that the workspace's one binary codec, the
//!   [`nw_sim::ckpt`] visitor in its headerless mode, walks in both
//!   directions. Counts and operands are LEB128 varints; each
//!   record's tag stays one raw byte.
//!
//! [`Trace::decode`] sniffs the encoding from the first bytes, so
//! callers never need to know which one a file uses. The schema is
//! **frozen** (like `nwcache-sweep-v1`): traces recorded today must
//! decode forever; any format evolution bumps the version tag.

use nw_apps::{Action, ActionStream, AppBuild, BLOCK_FILL};
use nw_sim::ckpt::{capped, Ckpt, CkptError, CkptReader, CkptWriter};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

/// Magic prefix of the binary encoding.
const BIN_MAGIC: &[u8; 4] = b"NWTR";
/// Version byte of the binary encoding / tag of the text encoding.
const VERSION: u8 = 1;
/// Text header tag.
const TEXT_MAGIC: &str = "nwtrace-v1";

/// A materialized workload: per-processor ordered action records plus
/// the metadata the simulator needs to address them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Workload name (an app name like `gauss`, or a scenario spec).
    pub name: String,
    /// Shared data footprint in bytes (pages the VM system manages).
    pub data_bytes: u64,
    /// One ordered record stream per processor.
    pub procs: Vec<Vec<Action>>,
}

/// Per-kind record counts of a trace (for `describe`-style output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Read records.
    pub reads: u64,
    /// Write records.
    pub writes: u64,
    /// Compute records.
    pub computes: u64,
    /// Barrier records per processor (all processors agree).
    pub barriers: u64,
    /// Total records across all processors.
    pub records: u64,
}

impl Trace {
    /// Capture a built application's full action stream into a trace.
    /// Streams are drained to completion; the trace replays to the
    /// exact same action sequence the app itself would have produced.
    pub fn capture(build: AppBuild) -> Trace {
        let (name, data_bytes, procs) = build.into_actions();
        Trace {
            name: name.to_string(),
            data_bytes,
            procs,
        }
    }

    /// Present the shared trace as a normal application: the simulator
    /// (and everything layered on it — sweeps, fault plans,
    /// observability) cannot tell a replayed trace from the original
    /// app. Each processor's stream copies its records out of the
    /// `Arc` a block at a time, so the cells of a sweep share one
    /// decoded trace and none holds a copy of it.
    pub fn replay(self: &Arc<Self>) -> AppBuild {
        let streams = (0..self.procs.len())
            .map(|p| {
                let trace = Arc::clone(self);
                let mut done = 0;
                ActionStream::generate(move |out| {
                    let rest = &trace.procs[p][done..];
                    let n = rest.len().min(BLOCK_FILL);
                    out.extend_from_slice(&rest[..n]);
                    done += n;
                    n > 0
                })
            })
            .collect();
        AppBuild {
            name: intern(&self.name),
            data_bytes: self.data_bytes,
            streams,
        }
    }

    /// Structural validation: a decodable trace can still be
    /// unreplayable (empty, out-of-footprint lines, disagreeing
    /// barrier sequences). Run this before handing a trace to the
    /// simulator.
    pub fn validate(&self) -> Result<(), String> {
        if self.procs.is_empty() {
            return Err("trace has no processor streams".into());
        }
        if self.data_bytes == 0 {
            return Err("trace has a zero-byte data footprint".into());
        }
        let max_line = self.data_bytes.div_ceil(nw_apps::LINE_BYTES);
        let mut barrier_seqs: Vec<Vec<u32>> = Vec::with_capacity(self.procs.len());
        for (p, stream) in self.procs.iter().enumerate() {
            let mut barriers = Vec::new();
            for a in stream {
                match *a {
                    Action::Read(l) | Action::Write(l) => {
                        if l >= max_line {
                            return Err(format!(
                                "proc {p}: line {l} outside the {max_line}-line footprint"
                            ));
                        }
                    }
                    Action::Barrier(id) => barriers.push(id),
                    Action::Compute(_) => {}
                }
            }
            if barriers.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("proc {p}: barrier ids not strictly increasing"));
            }
            barrier_seqs.push(barriers);
        }
        for (p, seq) in barrier_seqs.iter().enumerate().skip(1) {
            if seq != &barrier_seqs[0] {
                return Err(format!(
                    "proc {p} disagrees with proc 0 on the barrier sequence \
                     ({} vs {} barriers)",
                    seq.len(),
                    barrier_seqs[0].len()
                ));
            }
        }
        Ok(())
    }

    /// Per-kind record counts.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for stream in &self.procs {
            for a in stream {
                match a {
                    Action::Read(_) => s.reads += 1,
                    Action::Write(_) => s.writes += 1,
                    Action::Compute(_) => s.computes += 1,
                    Action::Barrier(_) => {}
                }
                s.records += 1;
            }
        }
        s.barriers = self
            .procs
            .first()
            .map(|p| {
                p.iter()
                    .filter(|a| matches!(a, Action::Barrier(_)))
                    .count() as u64
            })
            .unwrap_or(0);
        s
    }

    // ---- text encoding -------------------------------------------------

    /// Encode as the line-oriented text form. Newlines in the name are
    /// replaced with spaces so the header stays one line.
    pub fn encode_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.stats().records as usize * 8);
        out.push_str(TEXT_MAGIC);
        out.push('\n');
        out.push_str("name ");
        out.push_str(&self.name.replace(['\n', '\r'], " "));
        out.push('\n');
        out.push_str(&format!("data_bytes {}\n", self.data_bytes));
        out.push_str(&format!("procs {}\n", self.procs.len()));
        for (p, stream) in self.procs.iter().enumerate() {
            out.push_str(&format!("proc {p} {}\n", stream.len()));
            for a in stream {
                match *a {
                    Action::Compute(c) => out.push_str(&format!("c {c}\n")),
                    Action::Read(l) => out.push_str(&format!("r {l}\n")),
                    Action::Write(l) => out.push_str(&format!("w {l}\n")),
                    Action::Barrier(id) => out.push_str(&format!("b {id}\n")),
                }
            }
        }
        out
    }

    fn decode_text(src: &str) -> Result<Trace, String> {
        let mut lines = src.lines().enumerate();
        let mut next = |what: &str| -> Result<(usize, &str), String> {
            lines
                .next()
                .map(|(n, l)| (n + 1, l))
                .ok_or_else(|| format!("unexpected end of trace, wanted {what}"))
        };
        let (_, magic) = next("header")?;
        if magic.trim() != TEXT_MAGIC {
            return Err(format!("not an {TEXT_MAGIC} file (header '{magic}')"));
        }
        let (n, name_line) = next("name")?;
        let name = name_line
            .strip_prefix("name ")
            .ok_or_else(|| format!("line {n}: expected 'name <...>'"))?
            .to_string();
        let (n, db_line) = next("data_bytes")?;
        let data_bytes: u64 = db_line
            .strip_prefix("data_bytes ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("line {n}: expected 'data_bytes <u64>'"))?;
        let (n, procs_line) = next("procs")?;
        let nprocs: usize = procs_line
            .strip_prefix("procs ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("line {n}: expected 'procs <count>'"))?;
        let mut procs = Vec::with_capacity(capped(nprocs, src.len(), MIN_TEXT_PROC));
        for p in 0..nprocs {
            let (n, hdr) = next("proc header")?;
            let rest = hdr
                .strip_prefix("proc ")
                .ok_or_else(|| format!("line {n}: expected 'proc {p} <count>'"))?;
            let mut it = rest.split_whitespace();
            let idx: usize = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("line {n}: bad proc index"))?;
            if idx != p {
                return Err(format!("line {n}: proc {idx} out of order (expected {p})"));
            }
            let count: usize = it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("line {n}: bad record count"))?;
            let mut stream = Vec::with_capacity(capped(count, src.len(), MIN_TEXT_RECORD));
            for _ in 0..count {
                let (n, rec) = next("record")?;
                let (tag, val) = rec
                    .split_once(' ')
                    .ok_or_else(|| format!("line {n}: malformed record '{rec}'"))?;
                let v: u64 = val
                    .trim()
                    .parse()
                    .map_err(|_| format!("line {n}: bad operand '{val}'"))?;
                let to_u32 = |v: u64| -> Result<u32, String> {
                    u32::try_from(v).map_err(|_| format!("line {n}: operand {v} exceeds u32"))
                };
                stream.push(match tag {
                    "c" => Action::Compute(to_u32(v)?),
                    "r" => Action::Read(v),
                    "w" => Action::Write(v),
                    "b" => Action::Barrier(to_u32(v)?),
                    other => return Err(format!("line {n}: unknown record tag '{other}'")),
                });
            }
            procs.push(stream);
        }
        Ok(Trace {
            name,
            data_bytes,
            procs,
        })
    }

    // ---- binary encoding -----------------------------------------------

    /// Encode as the compact length-prefixed binary form.
    pub fn encode_binary(&self) -> Vec<u8> {
        let mut w = CkptWriter::headerless();
        w.raw(BIN_MAGIC);
        w.u8(VERSION);
        // The visitor takes `&mut` in both directions; saving walks a copy.
        self.clone()
            .body(&mut Ckpt::Save(&mut w))
            .expect("saving cannot fail");
        w.finish()
    }

    /// The binary form after its magic and version byte, in either
    /// direction: the name, the footprint, then every processor's
    /// records.
    fn body(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.str(&mut self.name)?;
        c.u64(&mut self.data_bytes)?;
        c.list(&mut self.procs, usize::MAX, 1, "processor streams", |c, stream| {
            c.list(stream, usize::MAX, MIN_BIN_RECORD, "records", nw_apps::action_ckpt)
        })
    }

    fn decode_binary(src: &[u8]) -> Result<Trace, String> {
        Trace::load_binary(src).map_err(|e| match e {
            CkptError::Truncated { wanted, offset } => format!(
                "truncated trace: wanted {wanted} bytes at offset {offset}, have {}",
                src.len() - offset
            ),
            e => format!("binary trace: {e}"),
        })
    }

    fn load_binary(src: &[u8]) -> Result<Trace, CkptError> {
        let mut r = CkptReader::headerless(src);
        r.raw(BIN_MAGIC.len())?; // matched by `decode`
        let version = r.u8()?;
        if version != VERSION {
            return Err(CkptError::Invalid {
                offset: r.offset(),
                what: format!("unsupported nwtrace binary version {version}"),
            });
        }
        let mut trace = Trace::default();
        trace.body(&mut Ckpt::Load(&mut r))?;
        r.finish()?;
        Ok(trace)
    }

    /// Decode either encoding, sniffed from the leading bytes.
    pub fn decode(src: &[u8]) -> Result<Trace, String> {
        if src.starts_with(BIN_MAGIC) {
            return Trace::decode_binary(src);
        }
        let text = std::str::from_utf8(src)
            .map_err(|_| "trace is neither NWTR binary nor UTF-8 text".to_string())?;
        Trace::decode_text(text)
    }
}

/// Fewest input bytes one record takes in the binary encoding (a tag
/// byte and a one-byte varint), and in the text encoding (`c 0`).
const MIN_BIN_RECORD: usize = 2;
const MIN_TEXT_RECORD: usize = 3;
/// Fewest input bytes one text processor header takes (`proc 0 0`).
const MIN_TEXT_PROC: usize = 8;

/// Intern a workload name so replayed and generated builds can carry
/// the `'static` name `AppBuild` requires. Names are deduplicated, so
/// replaying the same trace (or scenario) any number of times leaks
/// its name only once.
pub(crate) fn intern(s: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = NAMES.get_or_init(|| Mutex::new(HashSet::new())).lock().unwrap();
    if let Some(&known) = set.get(s) {
        return known;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_sim::ckpt::put_varint;

    fn sample() -> Trace {
        Trace {
            name: "sample".into(),
            data_bytes: 8192,
            procs: vec![
                vec![
                    Action::Read(0),
                    Action::Compute(40),
                    Action::Write(127),
                    Action::Barrier(0),
                    Action::Read(64),
                    Action::Barrier(1),
                ],
                vec![
                    Action::Write(65),
                    Action::Compute(u32::MAX),
                    Action::Barrier(0),
                    Action::Barrier(1),
                ],
            ],
        }
    }

    #[test]
    fn text_round_trips() {
        let t = sample();
        let enc = t.encode_text();
        assert!(enc.starts_with("nwtrace-v1\n"));
        assert_eq!(Trace::decode(enc.as_bytes()).unwrap(), t);
    }

    #[test]
    fn binary_round_trips() {
        let t = sample();
        let enc = t.encode_binary();
        assert!(enc.starts_with(b"NWTR"));
        assert_eq!(Trace::decode(&enc).unwrap(), t);
    }

    #[test]
    fn binary_bytes_match_the_recorded_digest() {
        // A round trip passes even when both directions change the
        // same way; this fails on any moved byte.
        let enc = sample().encode_binary();
        assert_eq!((nw_sim::ckpt::fnv1a(&enc), enc.len()), (0x8940_0ac4_b8b3_1ef8, 41));
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let t = sample();
        assert!(t.encode_binary().len() < t.encode_text().len());
    }

    #[test]
    fn validate_accepts_sample_and_catches_corruption() {
        let t = sample();
        assert!(t.validate().is_ok());

        let mut bad = t.clone();
        bad.procs[0][0] = Action::Read(1 << 40); // outside footprint
        assert!(bad.validate().unwrap_err().contains("outside"));

        let mut bad = t.clone();
        bad.procs[1].retain(|a| !matches!(a, Action::Barrier(1)));
        assert!(bad.validate().unwrap_err().contains("barrier"));

        let mut bad = t.clone();
        bad.procs[0][3] = Action::Barrier(2);
        assert!(bad.validate().is_err()); // 2 then 1 not increasing... across procs

        let empty = Trace {
            name: "x".into(),
            data_bytes: 0,
            procs: vec![],
        };
        assert!(empty.validate().is_err());
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(Trace::decode(b"hello world").is_err());
        assert!(Trace::decode(&[0xff, 0xfe, 0x00]).is_err());
        let enc = sample().encode_binary();
        assert!(Trace::decode(&enc[..enc.len() - 2]).is_err());
        let mut trailing = enc.clone();
        trailing.push(0);
        assert!(Trace::decode(&trailing).is_err());
        let text = sample().encode_text();
        let cut: String = text.lines().take(7).collect::<Vec<_>>().join("\n");
        assert!(Trace::decode(cut.as_bytes()).is_err());
    }

    #[test]
    fn decode_rejects_an_inflated_record_count_without_reserving_it() {
        // `NWTR`, v1, empty name, data_bytes 1, 1 proc, 2^24 records,
        // and no record bytes at all.
        let mut src = b"NWTR\x01\x00\x01\x01".to_vec();
        put_varint(&mut src, 1 << 24);
        assert_eq!(src.len(), 12);
        let err = Trace::decode(&src).unwrap_err();
        assert!(err.contains("truncated trace"), "{err}");
        // The text form gets the same cap.
        let text = "nwtrace-v1\nname x\ndata_bytes 1\nprocs 1\nproc 0 16777216\n";
        assert!(Trace::decode(text.as_bytes()).is_err());
    }

    #[test]
    fn capped_reservations_fit_the_remaining_input() {
        assert_eq!(capped(1 << 24, 0, MIN_BIN_RECORD), 0);
        assert_eq!(capped(1 << 24, 7, MIN_BIN_RECORD), 3);
        assert_eq!(capped(5, 1000, MIN_BIN_RECORD), 5);
        assert_eq!(capped(usize::MAX, 16, 1), 16);
        // An honest trace reserves exactly its record count.
        let t = sample();
        let enc = t.encode_binary();
        let n = t.procs[0].len();
        assert_eq!(capped(n, enc.len(), MIN_BIN_RECORD), n);
    }

    #[test]
    fn decode_rejects_a_name_longer_than_the_input() {
        let mut src = b"NWTR\x01".to_vec();
        put_varint(&mut src, u64::MAX);
        assert!(Trace::decode(&src).unwrap_err().contains("truncated trace"));
    }

    #[test]
    fn capture_then_replay_preserves_the_action_stream() {
        let build = nw_apps::build(nw_apps::AppId::Gauss, 4, 0.05, 7);
        let trace = Trace::capture(build);
        assert_eq!(trace.name, "gauss");
        assert!(trace.validate().is_ok());
        let direct = nw_apps::build(nw_apps::AppId::Gauss, 4, 0.05, 7);
        let (_, db, actions) = direct.into_actions();
        assert_eq!(trace.data_bytes, db);
        assert_eq!(trace.procs, actions);

        // And the replayed build streams the same actions.
        let replay = Arc::new(trace.clone()).replay();
        assert_eq!(replay.name, "gauss");
        let (_, _, replayed) = replay.into_actions();
        assert_eq!(replayed, trace.procs);
    }

    #[test]
    fn a_replayed_stream_copies_blocks_out_of_the_shared_trace() {
        let mut trace = sample();
        trace.procs[0] = (0..3 * BLOCK_FILL as u64 + 5).map(Action::Read).collect();
        let trace = Arc::new(trace);
        let all = &trace.procs[0];
        // `(n, actions left in the block after advance(n))`: mid-block,
        // at block edges and at the end.
        let fill = BLOCK_FILL;
        let stops = [(0, 0), (100, fill - 100), (fill, 0), (2 * fill + 1, fill - 1), (all.len(), 0)];
        for (n, left) in stops {
            let mut s = trace.replay().streams.remove(0);
            assert_eq!(s.buffered(), 0);
            assert_eq!(s.advance(n as u64), n as u64);
            assert_eq!(s.buffered(), left, "after advance({n})");
            assert_eq!(s.collect::<Vec<_>>(), all[n..], "after advance({n})");
        }
        // Every stream holds the one trace; none copied it whole.
        let build = trace.replay();
        assert_eq!(Arc::strong_count(&trace), 1 + build.streams.len());
        let (_, _, actions) = build.into_actions();
        assert_eq!(actions, trace.procs);
    }

    #[test]
    fn record_tags_are_one_raw_byte() {
        // Magic and version, the name, `data_bytes` (two bytes), the
        // proc count and proc 0's record count: then its first tag.
        let enc = sample().encode_binary();
        let at = 5 + 1 + "sample".len() + 2 + 2;
        let read = 1;
        assert_eq!(enc[at..at + 2], [read, 0]);
        // The same tag as a two-byte varint is not a tag.
        let mut long = enc.clone();
        long.splice(at..at + 1, [0x80 | read, 0]);
        let err = Trace::decode(&long).unwrap_err();
        assert!(err.contains("tag byte 129"), "{err}");
    }

    #[test]
    fn varints_cover_the_range() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let t = Trace {
                name: "v".into(),
                data_bytes: v,
                procs: vec![vec![Action::Read(v), Action::Compute(v as u32)]],
            };
            assert_eq!(Trace::decode(&t.encode_binary()).unwrap(), t);
        }
    }

    #[test]
    fn stats_count_records() {
        let s = sample().stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 2);
        assert_eq!(s.computes, 2);
        assert_eq!(s.barriers, 2);
        assert_eq!(s.records, 10);
    }
}
