//! Append-only operation log — incremental persistence on top of
//! [`crate::persist`] snapshots.
//!
//! A snapshot alone forces a full re-insert on restore and says nothing
//! about operations after the capture. The op log closes both gaps:
//! the application records every *completed* mutation (insert, remove,
//! shard split, clear) as one JSON line through a pluggable
//! [`LogSink`], and [`crate::ShardedMcCuckoo::recover`] replays the
//! tail into a restored snapshot. Because shard and split-child hash
//! seeds re-derive deterministically from the master seed, replaying
//! the logged `Split` records reproduces the grown shard layout
//! exactly — a recovered table routes, probes, and splits identically
//! to the one that wrote the log.
//!
//! The writer is deliberately fsync-free and in-memory: durability
//! policy (buffering, rotation, fsync cadence) belongs to the sink, not
//! the table. [`VecSink`] is the reference sink — an `Arc`'d line
//! buffer that tests and the bench harness read back directly; a real
//! deployment implements [`LogSink`] over its file or replication
//! stream.
//!
//! **Recovery ordering.** Replay records in append order, after the
//! snapshot they follow. Logged shard ids are interpreted against the
//! recovering table's state, so the log must be replayed onto the
//! snapshot it was written against (standard log-shipping discipline:
//! a snapshot capture notes the log position and truncates up to it —
//! [`crate::maint::Compactor`] automates exactly that protocol through
//! [`LogSink::truncate_front`], on a watermark, under the split lock).
//! Records are idempotent at the value level (`Insert` is an upsert,
//! `Remove` of a missing key is a no-op), so replaying a suffix that
//! straddles a *live* snapshot capture converges to the same state.
//!
//! ```
//! use mccuckoo_core::oplog::{OpLog, OpRecord, VecSink, parse_log};
//! use mccuckoo_core::{McConfig, ShardedMcCuckoo};
//!
//! let table = ShardedMcCuckoo::<u64, u64>::new(2, McConfig::paper(256, 9));
//! let snapshot = table.to_snapshot(); // empty baseline
//!
//! let sink = VecSink::new();
//! let log = OpLog::new(sink.clone());
//! table.insert(1, 10).unwrap();
//! log.record(&OpRecord::Insert { key: 1u64, value: 10u64 });
//! table.begin_split(0).unwrap();
//! log.record(&OpRecord::<u64, u64>::Split { shard: 0 });
//!
//! // Crash. Recover = snapshot + replay.
//! let ops = parse_log::<u64, u64>(&sink.lines()).unwrap();
//! let recovered = ShardedMcCuckoo::recover(snapshot, &ops).unwrap();
//! assert_eq!(recovered.get(&1), Some(10));
//! assert_eq!(recovered.shard_count(), table.shard_count());
//! ```

use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, Mutex};

use jsonlite::{FromJson, Json, JsonError, ToJson};

use crate::shard::SplitError;

/// One logged mutation. `Insert` records the post-image (an upsert on
/// replay), so logging the operation *after* it completes is safe even
/// when it overwrote an existing value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpRecord<K, V> {
    /// A completed insert or update of `key` to `value`.
    Insert {
        /// The written key.
        key: K,
        /// The value the key held when the operation completed.
        value: V,
    },
    /// A completed removal of `key` (logging a miss is harmless).
    Remove {
        /// The removed key.
        key: K,
    },
    /// A completed [`crate::ShardedMcCuckoo::begin_split`] of `shard`.
    Split {
        /// The shard that was split (id in the *writing* table — replay
        /// against the snapshot this log was written over).
        shard: usize,
    },
    /// A completed [`crate::ShardedMcCuckoo::clear`].
    Clear,
}

impl<K: ToJson, V: ToJson> ToJson for OpRecord<K, V> {
    fn to_json(&self) -> Json {
        match self {
            OpRecord::Insert { key, value } => Json::Obj(vec![
                ("op".to_owned(), Json::Str("insert".to_owned())),
                ("key".to_owned(), key.to_json()),
                ("value".to_owned(), value.to_json()),
            ]),
            OpRecord::Remove { key } => Json::Obj(vec![
                ("op".to_owned(), Json::Str("remove".to_owned())),
                ("key".to_owned(), key.to_json()),
            ]),
            OpRecord::Split { shard } => Json::Obj(vec![
                ("op".to_owned(), Json::Str("split".to_owned())),
                ("shard".to_owned(), shard.to_json()),
            ]),
            OpRecord::Clear => Json::Obj(vec![("op".to_owned(), Json::Str("clear".to_owned()))]),
        }
    }

    /// The log line without the value tree: the same bytes as
    /// `to_json`, written straight into `out`.
    fn write_json(&self, out: &mut String) {
        match self {
            OpRecord::Insert { key, value } => {
                out.push_str(r#"{"op":"insert","key":"#);
                key.write_json(out);
                out.push_str(r#","value":"#);
                value.write_json(out);
            }
            OpRecord::Remove { key } => {
                out.push_str(r#"{"op":"remove","key":"#);
                key.write_json(out);
            }
            OpRecord::Split { shard } => {
                out.push_str(r#"{"op":"split","shard":"#);
                shard.write_json(out);
            }
            OpRecord::Clear => out.push_str(r#"{"op":"clear""#),
        }
        out.push('}');
    }
}

impl<K: FromJson, V: FromJson> FromJson for OpRecord<K, V> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let field = |name: &str| {
            j.get(name)
                .ok_or_else(|| JsonError(format!("op record missing field '{name}'")))
        };
        let Json::Str(op) = field("op")? else {
            return Err(JsonError("op record field 'op' must be a string".into()));
        };
        match op.as_str() {
            "insert" => Ok(OpRecord::Insert {
                key: FromJson::from_json(field("key")?)?,
                value: FromJson::from_json(field("value")?)?,
            }),
            "remove" => Ok(OpRecord::Remove {
                key: FromJson::from_json(field("key")?)?,
            }),
            "split" => Ok(OpRecord::Split {
                shard: FromJson::from_json(field("shard")?)?,
            }),
            "clear" => Ok(OpRecord::Clear),
            other => Err(JsonError(format!("unknown op record kind '{other}'"))),
        }
    }
}

/// Where serialised log lines go. Implementations own the durability
/// policy — buffer, rotate, fsync, replicate — the table layer never
/// blocks on it. `append` must be safe to call from multiple threads.
///
/// The truncation side of the trait is what [`crate::maint::Compactor`]
/// drives: a compaction captures the retained record count, takes a
/// snapshot, then drops everything before the capture with
/// [`Self::truncate_front`]. Positions are **absolute** — record `i` is
/// the `i`-th record ever appended, and [`Self::first_record_index`]
/// says where the retained tail starts — so a snapshot taken at
/// position `p` replays the retained records from offset
/// `p - first_record_index()` onward.
pub trait LogSink {
    /// Persist one serialised record (a single JSON object, no
    /// trailing newline).
    fn append(&self, line: &str);

    /// Records currently retained (appended and not yet truncated).
    fn record_count(&self) -> usize;

    /// Total serialised bytes of the retained records.
    fn byte_len(&self) -> u64;

    /// Absolute index of the oldest retained record: the total number
    /// of records ever dropped by [`Self::truncate_front`] (0 until the
    /// first truncation).
    fn first_record_index(&self) -> u64;

    /// Drop the oldest `records` retained records (clamped to the
    /// retained count). Returns the serialised bytes dropped.
    fn truncate_front(&self, records: usize) -> u64;
}

/// The reference in-memory sink: a shared, thread-safe line buffer.
/// Clones share the same buffer, so the writer side hands a clone to
/// the log and keeps one for reading the lines back. Retained lines live
/// in one arena string with a table of end offsets, so an append is a
/// lock plus a copy, [`LogSink::byte_len`] is O(1), and truncation
/// drains a prefix of the arena. Truncation remembers how many records
/// (and bytes) it has dropped, so absolute positions stay meaningful
/// across compactions.
#[derive(Clone, Default)]
pub struct VecSink {
    inner: Arc<Mutex<VecSinkInner>>,
}

#[derive(Default)]
struct VecSinkInner {
    /// Every retained line, concatenated in append order; its first
    /// byte sits at absolute offset `dropped_bytes`.
    text: String,
    /// Absolute end offset of each retained line (bytes ever appended
    /// through it), so truncation never rewrites the remaining entries.
    ends: Vec<u64>,
    dropped_records: u64,
    dropped_bytes: u64,
}

impl VecSink {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every *retained* line (append order). After a
    /// compaction this is exactly the tail to replay over the
    /// compaction snapshot.
    pub fn lines(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("oplog sink poisoned");
        let mut start = 0usize;
        inner
            .ends
            .iter()
            .map(|&end| {
                let end = (end - inner.dropped_bytes) as usize;
                let line = inner.text[start..end].to_owned();
                start = end;
                line
            })
            .collect()
    }

    /// Retained lines (appended and not yet truncated).
    pub fn len(&self) -> usize {
        self.record_count()
    }

    /// Whether no lines are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl LogSink for VecSink {
    fn append(&self, line: &str) {
        let mut inner = self.inner.lock().expect("oplog sink poisoned");
        inner.text.push_str(line);
        let end = inner.dropped_bytes + inner.text.len() as u64;
        inner.ends.push(end);
    }

    fn record_count(&self) -> usize {
        self.inner.lock().expect("oplog sink poisoned").ends.len()
    }

    fn byte_len(&self) -> u64 {
        self.inner.lock().expect("oplog sink poisoned").text.len() as u64
    }

    fn first_record_index(&self) -> u64 {
        self.inner
            .lock()
            .expect("oplog sink poisoned")
            .dropped_records
    }

    fn truncate_front(&self, records: usize) -> u64 {
        let mut inner = self.inner.lock().expect("oplog sink poisoned");
        let n = records.min(inner.ends.len());
        if n == 0 {
            return 0;
        }
        let cut = inner.ends[n - 1];
        let bytes = cut - inner.dropped_bytes;
        inner.text.drain(..bytes as usize);
        inner.ends.drain(..n);
        inner.dropped_records += n as u64;
        inner.dropped_bytes = cut;
        bytes
    }
}

/// The append-only writer: serialises each record through `jsonlite`
/// and hands the line to the sink. Stateless beyond the sink — cheap to
/// share behind an `Arc` next to the table.
pub struct OpLog<S: LogSink> {
    sink: S,
}

impl<S: LogSink> OpLog<S> {
    /// Wrap a sink.
    pub fn new(sink: S) -> Self {
        Self { sink }
    }

    /// Append one record. The line is serialised into a reused
    /// per-thread buffer, so a warm append allocates nothing here.
    pub fn record<K: ToJson, V: ToJson>(&self, rec: &OpRecord<K, V>) {
        thread_local! {
            static LINE: Cell<String> = const { Cell::new(String::new()) };
        }
        // Taken, not borrowed: a sink that logs from inside `append`
        // just serialises into a fresh buffer.
        let mut line = LINE.take();
        line.clear();
        rec.write_json(&mut line);
        self.sink.append(&line);
        LINE.set(line);
    }

    /// The sink, for handing to readers.
    pub fn sink(&self) -> &S {
        &self.sink
    }
}

/// Parse an append-ordered slice of log lines back into records.
/// Fails on the first malformed line (a torn tail line should be
/// truncated by the sink's recovery procedure before parsing).
pub fn parse_log<K: FromJson, V: FromJson>(
    lines: &[String],
) -> Result<Vec<OpRecord<K, V>>, JsonError> {
    lines
        .iter()
        .map(|l| OpRecord::from_json(&jsonlite::parse(l)?))
        .collect()
}

/// Why [`crate::ShardedMcCuckoo::recover`] could not rebuild the table.
/// Every variant is a *reported* failure — recovery never panics and
/// never silently drops data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverError {
    /// The snapshot itself no longer fits its geometry (only possible
    /// when the snapshot was edited toward a smaller configuration).
    SnapshotOverflow {
        /// How many snapshot items could not be placed.
        leftover: usize,
    },
    /// A replayed insert overflowed the table.
    InsertOverflow {
        /// Index of the failing record in the log slice.
        index: usize,
    },
    /// A replayed split was rejected (e.g. the log was replayed against
    /// a snapshot it was not written over).
    Split {
        /// Index of the failing record in the log slice.
        index: usize,
        /// The split-layer rejection.
        error: SplitError,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::SnapshotOverflow { leftover } => {
                write!(
                    f,
                    "snapshot restore overflowed: {leftover} item(s) unplaceable"
                )
            }
            RecoverError::InsertOverflow { index } => {
                write!(
                    f,
                    "log replay: insert at record {index} overflowed the table"
                )
            }
            RecoverError::Split { index, error } => {
                write!(f, "log replay: split at record {index} rejected: {error}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip_through_json_lines() {
        let sink = VecSink::new();
        let log = OpLog::new(sink.clone());
        let recs: Vec<OpRecord<u64, u64>> = vec![
            OpRecord::Insert { key: 7, value: 70 },
            OpRecord::Remove { key: 7 },
            OpRecord::Split { shard: 1 },
            OpRecord::Clear,
            OpRecord::Insert { key: 8, value: 80 },
        ];
        for r in &recs {
            log.record(r);
        }
        assert_eq!(sink.len(), recs.len());
        let back = parse_log::<u64, u64>(&sink.lines()).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn direct_lines_match_the_value_tree() {
        let mut rng = hash_kit::SplitMix64::new(0x10C);
        let mut keys = vec![0u64, 1, u64::MAX];
        keys.extend((0..64).map(|_| rng.next_u64()));
        let sink = VecSink::new();
        let log = OpLog::new(sink.clone());
        let mut recs: Vec<OpRecord<u64, u64>> = vec![OpRecord::Clear];
        for &k in &keys {
            recs.push(OpRecord::Insert { key: k, value: 0 });
            recs.push(OpRecord::Insert {
                key: k,
                value: u64::MAX,
            });
            recs.push(OpRecord::Insert {
                key: k,
                value: rng.next_u64(),
            });
            recs.push(OpRecord::Remove { key: k });
            recs.push(OpRecord::Split { shard: k as usize });
        }
        let mut want = Vec::new();
        for rec in &recs {
            let mut tree = String::new();
            jsonlite::write_value(&rec.to_json(), &mut tree);
            assert_eq!(jsonlite::to_string(rec), tree);
            log.record(rec);
            want.push(tree);
        }
        assert_eq!(sink.lines(), want);
        assert_eq!(parse_log::<u64, u64>(&want).unwrap(), recs);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        let bad = vec!["{\"op\":\"teleport\",\"key\":1}".to_owned()];
        let err = parse_log::<u64, u64>(&bad).unwrap_err();
        assert!(err.0.contains("teleport"), "got: {}", err.0);
        let missing = vec!["{\"key\":1}".to_owned()];
        let err = parse_log::<u64, u64>(&missing).unwrap_err();
        assert!(err.0.contains("'op'"), "got: {}", err.0);
    }

    #[test]
    fn sink_clones_share_the_buffer() {
        let a = VecSink::new();
        let b = a.clone();
        a.append("x");
        b.append("y");
        assert_eq!(a.lines(), vec!["x".to_owned(), "y".to_owned()]);
        assert!(!b.is_empty());
    }

    #[test]
    fn arena_sink_matches_a_line_vector_across_truncations() {
        // Lines of varied length, so every arena offset differs; partial
        // truncations (including zero) interleave with appends, and the
        // last one empties the sink.
        let sink = VecSink::new();
        let mut model: Vec<String> = Vec::new();
        let mut dropped = 0u64;
        let mut next = 0usize;
        let check = |sink: &VecSink, model: &[String], dropped: u64| {
            assert_eq!(sink.lines(), model);
            assert_eq!(sink.record_count(), model.len());
            assert_eq!(
                sink.byte_len(),
                model.iter().map(|l| l.len() as u64).sum::<u64>()
            );
            assert_eq!(sink.first_record_index(), dropped);
        };
        for (appends, cut) in [(7, 3), (0, 0), (5, 1), (2, 6), (4, 4), (3, 100)] {
            for _ in 0..appends {
                let line = "x".repeat(next % 5) + &format!("rec-{next}");
                next += 1;
                sink.append(&line);
                model.push(line);
            }
            check(&sink, &model, dropped);
            let n = cut.min(model.len());
            let bytes: u64 = model.drain(..n).map(|l| l.len() as u64).sum();
            assert_eq!(sink.truncate_front(cut), bytes);
            dropped += n as u64;
            check(&sink, &model, dropped);
        }
        assert!(sink.is_empty());
        assert_eq!(sink.first_record_index(), next as u64);
    }

    #[test]
    fn truncate_front_drops_the_oldest_records_and_tracks_positions() {
        let sink = VecSink::new();
        for i in 0..5 {
            sink.append(&format!("rec-{i}"));
        }
        assert_eq!(sink.record_count(), 5);
        assert_eq!(sink.first_record_index(), 0);
        assert_eq!(sink.byte_len(), 5 * "rec-0".len() as u64);

        let dropped = sink.truncate_front(2);
        assert_eq!(dropped, 2 * "rec-0".len() as u64);
        assert_eq!(sink.record_count(), 3);
        assert_eq!(sink.first_record_index(), 2);
        assert_eq!(
            sink.lines(),
            vec!["rec-2".to_owned(), "rec-3".to_owned(), "rec-4".to_owned()]
        );

        // Appends after a truncation keep absolute positions meaningful.
        sink.append("rec-5");
        assert_eq!(sink.first_record_index() + sink.record_count() as u64, 6);

        // Over-asking clamps to the retained count.
        let dropped = sink.truncate_front(100);
        assert_eq!(dropped, 4 * "rec-0".len() as u64);
        assert!(sink.is_empty());
        assert_eq!(sink.first_record_index(), 6);
        assert_eq!(sink.byte_len(), 0);
        assert_eq!(sink.truncate_front(1), 0);
    }
}
