//! Append/scan access to one module's log file.
//!
//! "Each data-intensive processing module/operation has a log file in the
//! log-file folder. Thus, when a new data-intensive module is preloaded to
//! the McSD node, a corresponding log-file is created. The log file of each
//! data-intensive module is an efficient channel for the host node to
//! communicate with the smart-storage node" (§IV-A).
//!
//! Both sides append [`Frame`]s; each side keeps its own read cursor and
//! scans only the bytes appended since its last read.

use crate::codec::{decode_stream_recovering, decode_tail, Frame};
use crate::error::SmartFamError;
use crate::faults::{AppendFault, FaultInjector, FaultSite};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Which side of the log a handle belongs to — selects the fault-injection
/// sites its appends and polls are counted under, so host and daemon
/// traffic never race for the same occurrence counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRole {
    /// The host client (appends requests, polls for responses).
    Host,
    /// The SD daemon (polls for requests, appends responses).
    Daemon,
}

impl LogRole {
    fn append_site(self) -> FaultSite {
        match self {
            LogRole::Host => FaultSite::HostAppend,
            LogRole::Daemon => FaultSite::SdAppend,
        }
    }

    fn poll_site(self) -> FaultSite {
        match self {
            LogRole::Host => FaultSite::HostPoll,
            LogRole::Daemon => FaultSite::SdPoll,
        }
    }
}

/// Outcome of a coalesced batch append ([`LogFile::append_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAppendOutcome {
    /// Frames of the batch fully durable on disk. A torn batch keeps a
    /// prefix; only frames whose every byte was written count.
    pub frames_durable: usize,
    /// Bytes actually written (including a torn tail's partial frame).
    pub bytes: u64,
    /// fsyncs issued — exactly one for a non-empty batch.
    pub fsyncs: u64,
    /// Whether an injected torn write cut the batch short; the caller
    /// retries only the frames past `frames_durable`.
    pub torn: bool,
}

/// Handle to a module's log file with a private read cursor.
#[derive(Debug, Clone)]
pub struct LogFile {
    path: PathBuf,
    cursor: u64,
    injector: FaultInjector,
    role: LogRole,
}

impl LogFile {
    /// Open (creating if necessary) the log file at `path`, with the read
    /// cursor at the current end — a reader only sees frames appended
    /// after it opened, like the daemon attaching to a preloaded module's
    /// log.
    pub fn attach_at_end(path: impl Into<PathBuf>) -> Result<LogFile, SmartFamError> {
        let path = path.into();
        touch(&path)?;
        let len = std::fs::metadata(&path)?.len();
        Ok(LogFile {
            path,
            cursor: len,
            injector: FaultInjector::disabled(),
            role: LogRole::Host,
        })
    }

    /// Open (creating if necessary) with the cursor at the start — the
    /// reader replays the whole history.
    pub fn attach_at_start(path: impl Into<PathBuf>) -> Result<LogFile, SmartFamError> {
        let path = path.into();
        touch(&path)?;
        Ok(LogFile {
            path,
            cursor: 0,
            injector: FaultInjector::disabled(),
            role: LogRole::Host,
        })
    }

    /// Attach a fault injector, counting this handle's appends and polls
    /// under `role`'s sites. Production code keeps the default disabled
    /// injector, which costs nothing.
    pub fn with_faults(mut self, injector: FaultInjector, role: LogRole) -> LogFile {
        self.injector = injector;
        self.role = role;
        self
    }

    /// The log file's filesystem path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current read cursor (byte offset of the next unread frame).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Append one frame. Returns the number of bytes written (for NFS
    /// cost accounting).
    ///
    /// Under an active [`FaultInjector`] the write may be torn (a prefix
    /// is written and the append reports [`SmartFamError::FaultInjected`])
    /// or corrupted (one mid-body byte flipped; the append "succeeds" the
    /// way a silent NFS corruption would).
    pub fn append(&self, frame: &Frame) -> Result<u64, SmartFamError> {
        let mut bytes = frame.encode();
        let keep = self.inject_append_fault(&mut bytes);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        match keep {
            Some(k) => {
                f.write_all(&bytes[..k])?;
                f.flush()?;
                Err(SmartFamError::FaultInjected {
                    detail: format!("torn append: wrote {k} of {} bytes", bytes.len()),
                })
            }
            None => {
                f.write_all(&bytes)?;
                f.flush()?;
                Ok(bytes.len() as u64)
            }
        }
    }

    /// Append a coalesced batch of frames with **one fsync for the whole
    /// batch**: the frames are encoded back to back, written through a
    /// single file handle, and made durable by a single `sync_data` call.
    /// This is the daemon's only write primitive — per-frame `append`
    /// never fsyncs, so a batch of `n` responses costs 1 fsync instead of
    /// the `n` a durable per-response writer would pay.
    ///
    /// Faults are counted under the handle's role append site (one
    /// occurrence per batch). Unlike [`LogFile::append`], a torn batch is
    /// *not* an error: the write keeps a prefix and the outcome reports
    /// how many frames of the batch are fully durable, so the caller
    /// retries only the torn suffix. An injected corruption flips one byte mid-buffer
    /// and "succeeds" the way a silent NFS corruption would.
    pub fn append_batch(&self, frames: &[Frame]) -> Result<BatchAppendOutcome, SmartFamError> {
        if frames.is_empty() {
            return Ok(BatchAppendOutcome {
                frames_durable: 0,
                bytes: 0,
                fsyncs: 0,
                torn: false,
            });
        }
        let encoded: Vec<Vec<u8>> = frames.iter().map(|f| f.encode()).collect();
        let total: usize = encoded.iter().map(|e| e.len()).sum();
        let mut bytes = Vec::with_capacity(total);
        for e in &encoded {
            bytes.extend_from_slice(e);
        }
        let keep = self.inject_append_fault(&mut bytes);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let written = keep.unwrap_or(bytes.len());
        f.write_all(&bytes[..written])?;
        f.flush()?;
        f.sync_data()?;
        let frames_durable = match keep {
            Some(k) => {
                // A frame is durable only if its last byte made it to disk.
                let mut end = 0usize;
                let mut durable = 0usize;
                for e in &encoded {
                    end += e.len();
                    if end <= k {
                        durable += 1;
                    } else {
                        break;
                    }
                }
                durable
            }
            None => frames.len(),
        };
        Ok(BatchAppendOutcome {
            frames_durable,
            bytes: written as u64,
            fsyncs: 1,
            torn: keep.is_some(),
        })
    }

    /// Apply this append's scheduled fault, if any, to the encoded bytes.
    /// A corruption flips one byte mid-buffer, so the frame it lands in
    /// fails its checksum while its length header still parses; a tear
    /// returns how many bytes to write (at least one, never all).
    fn inject_append_fault(&self, bytes: &mut [u8]) -> Option<usize> {
        match self.injector.on_append(self.role.append_site())? {
            AppendFault::Corrupt { xor_mask } => {
                let pos = 5 + (bytes.len().saturating_sub(9)) / 2;
                if pos < bytes.len() {
                    bytes[pos] ^= xor_mask.max(1);
                }
                None
            }
            AppendFault::Torn { keep_sixteenths } => Some(
                (bytes.len() * keep_sixteenths.min(15) as usize / 16)
                    .clamp(1, bytes.len().saturating_sub(1).max(1)),
            ),
        }
    }

    /// Read every complete frame appended since the last poll, advancing
    /// the cursor past them. An incomplete trailing frame (a concurrent
    /// append in progress) is left for the next poll.
    pub fn poll(&mut self) -> Result<Vec<Frame>, SmartFamError> {
        let tail = self.read_tail()?;
        let (frames, consumed) =
            decode_tail(&tail, self.cursor).map_err(|detail| SmartFamError::Corrupt {
                offset: self.cursor,
                detail,
            })?;
        self.cursor += consumed as u64;
        Ok(frames)
    }

    /// Like [`LogFile::poll`], but corruption does not poison the cursor:
    /// provably-corrupt bytes are skipped (scan-ahead to the next valid
    /// frame) and counted. Returns the new frames and the number of bytes
    /// skipped by this poll. An injected stale read (NFS-visibility
    /// delay) makes the poll see no new data; the bytes stay for later.
    pub fn poll_recovering(&mut self) -> Result<(Vec<Frame>, u64), SmartFamError> {
        if self.injector.on_poll(self.role.poll_site()) {
            return Ok((Vec::new(), 0));
        }
        let tail = self.read_tail()?;
        let rec = decode_stream_recovering(&tail, 0);
        self.cursor += rec.new_pos as u64;
        Ok((rec.frames, rec.skipped_bytes as u64))
    }

    /// The bytes appended since the cursor: one open, one stat and a read
    /// of only `[cursor..]`, so a poll costs O(new bytes) however long the
    /// log has grown. A file shorter than the cursor shrank under us,
    /// which is corruption.
    fn read_tail(&self) -> Result<Vec<u8>, SmartFamError> {
        let mut f = std::fs::File::open(&self.path)?;
        let len = f.metadata()?.len();
        if len < self.cursor {
            return Err(SmartFamError::Corrupt {
                offset: self.cursor,
                detail: "log file was truncated".into(),
            });
        }
        f.seek(SeekFrom::Start(self.cursor))?;
        let mut tail = Vec::with_capacity((len - self.cursor) as usize);
        f.read_to_end(&mut tail)?;
        Ok(tail)
    }

    /// Current length of the log file in bytes.
    pub fn len(&self) -> Result<u64, SmartFamError> {
        Ok(std::fs::metadata(&self.path)?.len())
    }

    /// Whether the log file has no content.
    pub fn is_empty(&self) -> Result<bool, SmartFamError> {
        Ok(self.len()? == 0)
    }
}

fn touch(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FrameBody;
    use std::sync::atomic::{AtomicU64, Ordering};

    static N: AtomicU64 = AtomicU64::new(0);

    fn temp_log() -> PathBuf {
        std::env::temp_dir().join(format!(
            "mcsd-log-{}-{}.log",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn append_then_poll() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        writer.append(&Frame::request(1, vec!["x".into()])).unwrap();
        writer.append(&Frame::request(2, vec!["y".into()])).unwrap();
        let frames = reader.poll().unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].id, 1);
        assert_eq!(frames[1].id, 2);
        // Nothing new on a second poll.
        assert!(reader.poll().unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn attach_at_end_skips_history() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        writer.append(&Frame::request(1, vec![])).unwrap();
        let mut reader = LogFile::attach_at_end(&path).unwrap();
        assert!(reader.poll().unwrap().is_empty());
        writer.append(&Frame::request(2, vec![])).unwrap();
        let frames = reader.poll().unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].id, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mixed_frames_in_one_log() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        writer
            .append(&Frame::request(1, vec!["in".into()]))
            .unwrap();
        writer.append(&Frame::response_ok(1, vec![42u8])).unwrap();
        let frames = reader.poll().unwrap();
        assert_eq!(frames.len(), 2);
        assert!(frames[0].is_request());
        assert!(matches!(frames[1].body, FrameBody::Response { .. }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partial_append_is_deferred() {
        for recovering in [false, true] {
            let path = temp_log();
            let writer = LogFile::attach_at_start(&path).unwrap();
            let mut reader = LogFile::attach_at_start(&path).unwrap();
            let poll = |reader: &mut LogFile| {
                if recovering {
                    let (frames, skipped) = reader.poll_recovering().unwrap();
                    assert_eq!(skipped, 0);
                    frames
                } else {
                    reader.poll().unwrap()
                }
            };
            writer.append(&Frame::request(1, vec![])).unwrap();
            // Simulate a torn concurrent write: append half a frame by hand.
            let bytes = Frame::request(2, vec!["big-parameter".into()]).encode();
            append_raw(&path, &bytes[..bytes.len() / 2]);
            let frames = poll(&mut reader);
            assert_eq!(frames.len(), 1);
            // Complete the torn frame; the reader picks it up next poll,
            // exactly once.
            append_raw(&path, &bytes[bytes.len() / 2..]);
            let frames = poll(&mut reader);
            assert_eq!(frames.len(), 1);
            assert_eq!(frames[0].id, 2);
            assert!(poll(&mut reader).is_empty());
            assert_eq!(reader.cursor(), writer.len().unwrap());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn truncation_is_detected() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        writer.append(&Frame::request(1, vec![])).unwrap();
        writer.append(&Frame::request(2, vec![])).unwrap();
        reader.poll().unwrap();
        let cursor = reader.cursor();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cursor - 1).unwrap();
        for result in [reader.poll().map(drop), reader.poll_recovering().map(drop)] {
            match result {
                Err(SmartFamError::Corrupt { offset, .. }) => assert_eq!(offset, cursor),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(reader.cursor(), cursor);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_detail_deep_in_a_long_log_names_the_absolute_offset() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        for i in 0..64 {
            writer
                .append(&Frame::response_ok(i, vec![3u8; 40]))
                .unwrap();
        }
        assert_eq!(reader.poll().unwrap().len(), 64);
        let cursor = reader.cursor();
        assert!(cursor > 1000);
        append_raw(&path, &corrupted(&Frame::response_ok(64, vec![4u8; 40])));
        match reader.poll() {
            Err(SmartFamError::Corrupt { offset, detail }) => {
                assert_eq!(offset, cursor);
                assert!(
                    detail.starts_with(&format!("at offset {cursor}: ")),
                    "{detail}"
                );
            }
            other => panic!("{other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_reports_bytes_written() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let frame = Frame::request(1, vec!["abc".into()]);
        let n = writer.append(&frame).unwrap();
        assert_eq!(n, frame.encode().len() as u64);
        assert_eq!(writer.len().unwrap(), n);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_torn_append_fails_then_reader_recovers() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let path = temp_log();
        let plan = FaultPlan::none().with(
            FaultSite::HostAppend,
            0,
            FaultAction::Torn { keep_sixteenths: 8 },
        );
        let writer = LogFile::attach_at_start(&path)
            .unwrap()
            .with_faults(FaultInjector::new(plan), LogRole::Host);
        let torn = writer.append(&Frame::request(1, vec!["param".into()]));
        assert!(matches!(torn, Err(SmartFamError::FaultInjected { .. })));
        // A recovering reader holds at the torn tail (no skip yet)...
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        let (frames, skipped) = reader.poll_recovering().unwrap();
        assert!(frames.is_empty());
        assert_eq!(skipped, 0);
        // ...the retry (occurrence 1, not scheduled) goes through, and the
        // reader skips the torn prefix to reach it.
        writer
            .append(&Frame::request(1, vec!["param".into()]))
            .unwrap();
        let (frames, skipped) = reader.poll_recovering().unwrap();
        assert_eq!(frames.len(), 1);
        assert!(skipped > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_corrupt_append_is_skipped_by_recovering_poll() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let path = temp_log();
        let plan = FaultPlan::none().with(
            FaultSite::SdAppend,
            0,
            FaultAction::Corrupt { xor_mask: 0x5a },
        );
        let writer = LogFile::attach_at_start(&path)
            .unwrap()
            .with_faults(FaultInjector::new(plan), LogRole::Daemon);
        let corrupt_len = writer
            .append(&Frame::response_ok(1, vec![7u8; 32]))
            .unwrap();
        writer
            .append(&Frame::response_ok(2, vec![8u8; 32]))
            .unwrap();
        // Plain poll would poison the cursor; recovering poll salvages
        // frame 2 and reports frame 1's bytes as skipped.
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        let (frames, skipped) = reader.poll_recovering().unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].id, 2);
        assert_eq!(skipped, corrupt_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_hidden_poll_defers_frames() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        writer.append(&Frame::request(1, vec![])).unwrap();
        let plan = FaultPlan::none().with(FaultSite::HostPoll, 0, FaultAction::Hide { polls: 2 });
        let mut reader = LogFile::attach_at_start(&path)
            .unwrap()
            .with_faults(FaultInjector::new(plan), LogRole::Host);
        // Two stale reads, then the data becomes visible.
        assert!(reader.poll_recovering().unwrap().0.is_empty());
        assert!(reader.poll_recovering().unwrap().0.is_empty());
        let (frames, skipped) = reader.poll_recovering().unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(skipped, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_append_coalesces_with_single_fsync() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let frames: Vec<Frame> = (0..3)
            .map(|i| Frame::response_ok(i, vec![i as u8; 16]).in_batch(1, i))
            .collect();
        let out = writer.append_batch(&frames).unwrap();
        assert_eq!(out.frames_durable, 3);
        assert_eq!(out.fsyncs, 1);
        assert!(!out.torn);
        let total: usize = frames.iter().map(|f| f.encode().len()).sum();
        assert_eq!(out.bytes, total as u64);
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        let got = reader.poll().unwrap();
        assert_eq!(got, frames);
        assert_eq!(got[2].batch_id(), Some(1));
        assert_eq!(got[2].batch_index(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_batch_is_free() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let out = writer.append_batch(&[]).unwrap();
        assert_eq!(out.fsyncs, 0);
        assert_eq!(out.bytes, 0);
        assert!(writer.is_empty().unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_batch_reports_durable_prefix_and_suffix_retry_recovers() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let path = temp_log();
        // 7/16 of four equal frames tears mid-frame (8/16 would land
        // exactly on a frame boundary and leave no torn tail bytes).
        let plan = FaultPlan::none().with(
            FaultSite::SdAppend,
            0,
            FaultAction::Torn { keep_sixteenths: 7 },
        );
        let writer = LogFile::attach_at_start(&path)
            .unwrap()
            .with_faults(FaultInjector::new(plan), LogRole::Daemon);
        let frames: Vec<Frame> = (0..4)
            .map(|i| Frame::response_ok(i, vec![7u8; 20]).in_batch(1, i))
            .collect();
        let out = writer.append_batch(&frames).unwrap();
        assert!(out.torn);
        assert!(out.frames_durable < frames.len());
        assert!(out.frames_durable >= 1);
        // The durable prefix is readable; the torn tail holds the cursor.
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        let (got, skipped) = reader.poll_recovering().unwrap();
        assert_eq!(got.len(), out.frames_durable);
        assert_eq!(skipped, 0);
        // Retrying ONLY the torn suffix (occurrence 1 is unscheduled)
        // makes the remaining frames readable past the torn bytes.
        let retry = writer.append_batch(&frames[out.frames_durable..]).unwrap();
        assert!(!retry.torn);
        assert_eq!(retry.fsyncs, 1);
        let (got, skipped) = reader.poll_recovering().unwrap();
        assert_eq!(got.len(), frames.len() - out.frames_durable);
        assert!(skipped > 0, "torn tail bytes are skipped on resync");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_batch_loses_exactly_one_frame_to_the_recovering_reader() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let path = temp_log();
        let plan = FaultPlan::none().with(
            FaultSite::SdAppend,
            0,
            FaultAction::Corrupt { xor_mask: 0x5a },
        );
        let writer = LogFile::attach_at_start(&path)
            .unwrap()
            .with_faults(FaultInjector::new(plan), LogRole::Daemon);
        let frames: Vec<Frame> = (0..3)
            .map(|i| Frame::response_ok(i, vec![9u8; 24]).in_batch(1, i))
            .collect();
        let out = writer.append_batch(&frames).unwrap();
        assert_eq!(out.frames_durable, 3); // silent corruption "succeeds"
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        let (got, skipped) = reader.poll_recovering().unwrap();
        assert_eq!(got.len(), 2);
        assert!(skipped > 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// Append raw bytes, bypassing the frame encoder (a torn or corrupt
    /// write, or the completion of one).
    fn append_raw(path: &Path, bytes: &[u8]) {
        let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(bytes).unwrap();
    }

    /// `frame` encoded with one mid-body byte flipped, so its length
    /// header parses but its checksum fails.
    fn corrupted(frame: &Frame) -> Vec<u8> {
        let mut bytes = frame.encode();
        let pos = 5 + (bytes.len() - 9) / 2;
        bytes[pos] ^= 0x5a;
        bytes
    }

    /// The whole file, as the read path before cursor-relative reads saw
    /// it: the reference for the equivalence property below.
    fn whole_file(path: &Path, cursor: u64) -> Result<Vec<u8>, SmartFamError> {
        let data = std::fs::read(path)?;
        if (data.len() as u64) < cursor {
            return Err(SmartFamError::Corrupt {
                offset: cursor,
                detail: "log file was truncated".into(),
            });
        }
        Ok(data)
    }

    /// Strict reference poll: decodes the whole file from `cursor` frame by
    /// frame, so its error offsets are absolute by construction and do not
    /// share the decode loop under test.
    fn whole_file_poll(path: &Path, cursor: &mut u64) -> Result<Vec<Frame>, SmartFamError> {
        use crate::codec::{decode_frame, DecodeStep};
        let data = whole_file(path, *cursor)?;
        let mut frames = Vec::new();
        let mut pos = *cursor as usize;
        loop {
            match decode_frame(&data[pos..]) {
                DecodeStep::Complete { frame, consumed } => {
                    frames.push(frame);
                    pos += consumed;
                }
                DecodeStep::Incomplete => break,
                DecodeStep::Corrupt { detail } => {
                    return Err(SmartFamError::Corrupt {
                        offset: *cursor,
                        detail: format!("at offset {pos}: {detail}"),
                    })
                }
            }
        }
        *cursor = pos as u64;
        Ok(frames)
    }

    fn whole_file_poll_recovering(
        path: &Path,
        cursor: &mut u64,
    ) -> Result<(Vec<Frame>, u64), SmartFamError> {
        let data = whole_file(path, *cursor)?;
        let rec = decode_stream_recovering(&data, *cursor as usize);
        *cursor = rec.new_pos as u64;
        Ok((rec.frames, rec.skipped_bytes as u64))
    }

    proptest::proptest! {
        /// Cursor-relative reads are observationally the old whole-file
        /// reads: over random appends, torn appends completed later,
        /// mid-frame corruptions, truncations and both kinds of poll, the
        /// two return the same frames, cursors and skipped-byte counts,
        /// and fail with the same `Corrupt` offset and detail.
        #[test]
        fn tail_reads_match_whole_file_reads(
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..48),
        ) {
            let path = temp_log();
            let mut reader = LogFile::attach_at_start(&path).unwrap();
            let mut reference = 0u64;
            let mut torn_rest: Option<Vec<u8>> = None;
            for (i, op) in ops.into_iter().enumerate() {
                let arg = op >> 8;
                let frame = if arg % 2 == 0 {
                    Frame::request(i as u64, vec!["p".repeat((arg % 300) as usize)])
                } else {
                    Frame::response_ok(i as u64, vec![i as u8; (arg % 700) as usize])
                };
                match op % 8 {
                    0 | 1 => append_raw(&path, &frame.encode()),
                    2 => {
                        let bytes = frame.encode();
                        let cut = 1 + (arg as usize) % (bytes.len() - 1);
                        append_raw(&path, &bytes[..cut]);
                        torn_rest = Some(bytes[cut..].to_vec());
                    }
                    3 => {
                        if let Some(rest) = torn_rest.take() {
                            append_raw(&path, &rest);
                        }
                    }
                    4 => append_raw(&path, &corrupted(&frame)),
                    5 => {
                        let got = reader.poll();
                        let want = whole_file_poll(&path, &mut reference);
                        proptest::prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                    }
                    6 => {
                        let got = reader.poll_recovering();
                        let want = whole_file_poll_recovering(&path, &mut reference);
                        proptest::prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                    }
                    _ => {
                        if arg % 4 == 0 {
                            let len = std::fs::metadata(&path).unwrap().len();
                            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                            f.set_len(len / 2).unwrap();
                        }
                    }
                }
                proptest::prop_assert_eq!(reader.cursor(), reference);
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn creates_parent_directories() {
        let dir = std::env::temp_dir().join(format!(
            "mcsd-log-dir-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let path = dir.join("nested/module.log");
        let log = LogFile::attach_at_start(&path).unwrap();
        assert!(log.is_empty().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
