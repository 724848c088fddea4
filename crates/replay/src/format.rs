//! The `CDSREC01` columnar recording format.
//!
//! A [`Recording`] holds one run's replay inputs as sorted parallel
//! columns: each event family (frames, skips, commits, switches) is a
//! count followed by its rows in canonical order, all integers
//! little-endian. Canonical ordering makes encoding a pure function of
//! content: two recordings with equal events serialize byte-identically,
//! which is what lets CI assert replay determinism by comparing files.

use std::io;
use std::path::Path;

use obs::ChromeTrace;

/// File magic: format name + version.
pub const MAGIC: &[u8; 8] = b"CDSREC01";

/// Everything needed to rebuild the run's configuration: scene parameters,
/// frame budget, pacing, and the schedule-relevant knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Header {
    /// Scene seed.
    pub seed: u64,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Targets in the scene (and enrolled models).
    pub n_targets: u32,
    /// Frames the run was asked to process.
    pub n_frames: u64,
    /// Digitizer period in nanoseconds (replay ignores it — no pacing).
    pub period_ns: u64,
    /// STM channel capacity.
    pub channel_capacity: u32,
    /// Fixed `(FP, MP)` decomposition.
    pub decomp: (u32, u32),
    /// Peak-detection threshold, as IEEE-754 bits (exact round-trip).
    pub min_score_bits: u32,
    /// Worker-pool width of the recorded run.
    pub pool_workers: u32,
}

impl Header {
    /// Bytes of one frame payload (`width × height × 3`).
    #[must_use]
    pub fn frame_bytes(&self) -> usize {
        self.width as usize * self.height as usize * 3
    }
}

/// One run's recorded nondeterminism, in canonical (sorted) column order.
#[derive(Clone, PartialEq, Debug)]
pub struct Recording {
    /// Run configuration.
    pub header: Header,
    /// `(ts, pixels)` per digitized frame, sorted by `ts`. Pixels are the
    /// frame's interleaved RGB bytes, `header.frame_bytes()` long.
    pub frames: Vec<(u64, Vec<u8>)>,
    /// `(stage index, ts)` per skip any stage recorded, sorted.
    pub skips: Vec<(u8, u64)>,
    /// `(ts, detected count, location hash)` per sink commit, sorted by
    /// `ts`. The hash is [`crate::location_hash`] over the frame's model
    /// locations — the bit-identity witness replay is checked against.
    pub commits: Vec<(u64, u32, u64)>,
    /// `(observation ordinal, regime)` per confirmed regime switch, sorted.
    pub switches: Vec<(u64, u32)>,
}

/// Why a byte stream failed to parse as a [`Recording`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FormatError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream ended before a declared column did.
    Truncated,
    /// A declared count is impossibly large for the remaining bytes.
    BadCount,
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not a CDSREC01 recording"),
            FormatError::Truncated => write!(f, "recording truncated"),
            FormatError::BadCount => write!(f, "recording declares an impossible column length"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Little-endian reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let end = self.pos.checked_add(n).ok_or(FormatError::BadCount)?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or(FormatError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, FormatError> {
        let b = self.take(8)?;
        // INVARIANT: take(8) returned exactly 8 bytes or erred above.
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn u32(&mut self) -> Result<u32, FormatError> {
        let b = self.take(4)?;
        // INVARIANT: take(4) returned exactly 4 bytes or erred above.
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.take(1)?[0])
    }

    /// A column length, sanity-bounded by the bytes that could hold it.
    fn count(&mut self, min_row: usize) -> Result<usize, FormatError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) / min_row.max(1);
        if n as usize > remaining {
            return Err(FormatError::BadCount);
        }
        Ok(n as usize)
    }
}

impl Recording {
    /// Serialize to the canonical `CDSREC01` byte image. Columns are
    /// re-sorted on encode, so equal content ⇒ equal bytes regardless of
    /// the order events were recorded in.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let h = &self.header;
        let mut out = Vec::with_capacity(
            64 + self.frames.len() * (8 + h.frame_bytes())
                + self.skips.len() * 9
                + self.commits.len() * 20
                + self.switches.len() * 12,
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&h.seed.to_le_bytes());
        out.extend_from_slice(&h.width.to_le_bytes());
        out.extend_from_slice(&h.height.to_le_bytes());
        out.extend_from_slice(&h.n_targets.to_le_bytes());
        out.extend_from_slice(&h.n_frames.to_le_bytes());
        out.extend_from_slice(&h.period_ns.to_le_bytes());
        out.extend_from_slice(&h.channel_capacity.to_le_bytes());
        out.extend_from_slice(&h.decomp.0.to_le_bytes());
        out.extend_from_slice(&h.decomp.1.to_le_bytes());
        out.extend_from_slice(&h.min_score_bits.to_le_bytes());
        out.extend_from_slice(&h.pool_workers.to_le_bytes());

        let mut frames: Vec<&(u64, Vec<u8>)> = self.frames.iter().collect();
        frames.sort_by_key(|(ts, _)| *ts);
        out.extend_from_slice(&(frames.len() as u64).to_le_bytes());
        for (ts, px) in frames {
            out.extend_from_slice(&ts.to_le_bytes());
            out.extend_from_slice(px);
        }

        let mut skips = self.skips.clone();
        skips.sort_unstable();
        out.extend_from_slice(&(skips.len() as u64).to_le_bytes());
        for (stage, ts) in skips {
            out.push(stage);
            out.extend_from_slice(&ts.to_le_bytes());
        }

        let mut commits = self.commits.clone();
        commits.sort_unstable();
        out.extend_from_slice(&(commits.len() as u64).to_le_bytes());
        for (ts, count, hash) in commits {
            out.extend_from_slice(&ts.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&hash.to_le_bytes());
        }

        let mut switches = self.switches.clone();
        switches.sort_unstable();
        out.extend_from_slice(&(switches.len() as u64).to_le_bytes());
        for (ordinal, regime) in switches {
            out.extend_from_slice(&ordinal.to_le_bytes());
            out.extend_from_slice(&regime.to_le_bytes());
        }
        out
    }

    /// Parse a `CDSREC01` byte image.
    ///
    /// # Errors
    ///
    /// [`FormatError`] when the magic, a count, or a column is malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, FormatError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(8)? != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let header = Header {
            seed: r.u64()?,
            width: r.u32()?,
            height: r.u32()?,
            n_targets: r.u32()?,
            n_frames: r.u64()?,
            period_ns: r.u64()?,
            channel_capacity: r.u32()?,
            decomp: (r.u32()?, r.u32()?),
            min_score_bits: r.u32()?,
            pool_workers: r.u32()?,
        };
        let px_len = header.frame_bytes();
        let n = r.count(8 + px_len)?;
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            let ts = r.u64()?;
            frames.push((ts, r.take(px_len)?.to_vec()));
        }
        let n = r.count(9)?;
        let mut skips = Vec::with_capacity(n);
        for _ in 0..n {
            let stage = r.u8()?;
            skips.push((stage, r.u64()?));
        }
        let n = r.count(20)?;
        let mut commits = Vec::with_capacity(n);
        for _ in 0..n {
            commits.push((r.u64()?, r.u32()?, r.u64()?));
        }
        let n = r.count(12)?;
        let mut switches = Vec::with_capacity(n);
        for _ in 0..n {
            switches.push((r.u64()?, r.u32()?));
        }
        Ok(Recording {
            header,
            frames,
            skips,
            commits,
            switches,
        })
    }

    /// Write the canonical byte image to `path`, creating parent dirs.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_bytes())
    }

    /// Read a recording back from `path`.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or [`FormatError`] wrapped as
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_from(path: &Path) -> io::Result<Recording> {
        let bytes = std::fs::read(path)?;
        Recording::from_bytes(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// A Chrome trace of this recording in **virtual time**: frame `ts`
    /// lives at `ts` milliseconds, with digitize/skip/commit instants at
    /// fixed sub-frame offsets. No wall clock is consulted, so the JSON is
    /// a pure function of the recording — two replays that re-record the
    /// same events render byte-identical traces, which is the determinism
    /// artifact CI compares. `stage_names` maps skip stage indices to lane
    /// labels.
    #[must_use]
    pub fn canonical_trace_json(&self, stage_names: &[String]) -> String {
        let stage = |idx: u8| -> &str {
            stage_names
                .get(idx as usize)
                .map_or("stage?", String::as_str)
        };
        let mut t = ChromeTrace::new();
        t.set_process_name(0, "replay (virtual time)");
        t.set_thread_name(0, 0, "frames");
        let at = |ts: u64, off: f64| ts as f64 * 1_000.0 + off;
        for (ts, _) in &self.frames {
            t.instant("digitize", "frame", 0, 0, at(*ts, 0.0), Some(*ts));
        }
        for (stage_idx, ts) in &self.skips {
            t.instant(
                &format!("skip @ {}", stage(*stage_idx)),
                "frame",
                0,
                0,
                at(*ts, 1.0 + f64::from(*stage_idx)),
                Some(*ts),
            );
        }
        for (ts, count, _) in &self.commits {
            t.instant(
                &format!("commit n={count}"),
                "frame",
                0,
                0,
                at(*ts, 500.0),
                Some(*ts),
            );
        }
        for (ordinal, regime) in &self.switches {
            t.instant(
                &format!("regime switch \u{2192} {regime}"),
                "regime",
                0,
                0,
                at(*ordinal, 900.0),
                Some(*ordinal),
            );
        }
        t.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recording {
        let header = Header {
            seed: 7,
            width: 2,
            height: 1,
            n_targets: 1,
            n_frames: 3,
            period_ns: 1_000_000,
            channel_capacity: 8,
            decomp: (2, 1),
            min_score_bits: 5.0f32.to_bits(),
            pool_workers: 0,
        };
        Recording {
            header,
            frames: vec![(0, vec![1; 6]), (2, vec![3; 6])],
            skips: vec![(1, 1), (4, 1)],
            commits: vec![(0, 1, 0xDEAD), (2, 0, 0xBEEF)],
            switches: vec![(5, 2)],
        }
    }

    #[test]
    fn bytes_round_trip() {
        let rec = sample();
        let bytes = rec.to_bytes();
        assert_eq!(Recording::from_bytes(&bytes), Ok(rec));
    }

    #[test]
    fn encode_is_canonical_under_event_order() {
        let rec = sample();
        let mut shuffled = rec.clone();
        shuffled.frames.reverse();
        shuffled.skips.reverse();
        shuffled.commits.reverse();
        assert_eq!(rec.to_bytes(), shuffled.to_bytes());
    }

    #[test]
    fn parse_rejects_garbage_and_truncation() {
        assert_eq!(
            Recording::from_bytes(b"NOTAREC1rest"),
            Err(FormatError::BadMagic)
        );
        let bytes = sample().to_bytes();
        // Cut mid-header: the reader runs off the end of the slice.
        assert_eq!(
            Recording::from_bytes(&bytes[..40]),
            Err(FormatError::Truncated)
        );
        // Cut mid-column: the declared count no longer fits the bytes.
        assert!(Recording::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Corrupt the frame count into something impossible.
        let mut bad = bytes.clone();
        let count_at = 8 + 8 + 4 + 4 + 4 + 8 + 8 + 4 + 4 + 4 + 4 + 4;
        bad[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Recording::from_bytes(&bad), Err(FormatError::BadCount));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cds-replay-fmt-test");
        let path = dir.join("run.cdsrec");
        let rec = sample();
        rec.write_to(&path).unwrap();
        assert_eq!(Recording::read_from(&path).unwrap(), rec);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn canonical_trace_is_valid_and_deterministic() {
        let rec = sample();
        let names: Vec<String> = ["Digitizer", "Histogram"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let a = rec.canonical_trace_json(&names);
        let b = rec.canonical_trace_json(&names);
        assert_eq!(a, b);
        let n = obs::chrome::validate(&a).expect("valid Chrome JSON");
        // 2 metadata + 2 digitize + 2 skips + 2 commits + 1 switch.
        assert_eq!(n, 9);
        assert!(a.contains("skip @ Histogram"));
        assert!(
            a.contains("skip @ stage?"),
            "unknown stage index falls back"
        );
    }
}
