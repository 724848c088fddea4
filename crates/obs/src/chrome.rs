//! `chrome://tracing` JSON export, shared between live runs and the
//! simulator so both render in one timeline (open the file in
//! `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! The emitter is hand-rolled (no serde in the tree) and the companion
//! [`validate`] function is a minimal JSON parser used by the determinism
//! and fleet tests and the benchmark's traced runs to prove the artifact is
//! well-formed with monotone timestamps.

use crate::span::{SpanDump, SpanKind};

/// One trace event in Chrome's JSON array format.
struct Event {
    name: String,
    cat: &'static str,
    /// `'X'` complete (duration), `'i'` instant, `'M'` metadata.
    ph: char,
    pid: u32,
    tid: u32,
    ts_us: f64,
    dur_us: f64,
    /// Extra `args` entries as pre-rendered JSON key/value pairs.
    args: Vec<(&'static str, String)>,
}

/// Builder for a Chrome trace file. Push events from any source (a live
/// [`SpanDump`], the simulator's `ExecutionTrace`), then render with
/// [`ChromeTrace::to_json`].
#[derive(Default)]
pub struct ChromeTrace {
    events: Vec<Event>,
    meta: Vec<Event>,
}

impl ChromeTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Number of non-metadata events pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name a process lane (e.g. "live" vs "simulated").
    pub fn set_process_name(&mut self, pid: u32, name: &str) {
        self.meta.push(Event {
            name: "process_name".to_string(),
            cat: "__metadata",
            ph: 'M',
            pid,
            tid: 0,
            ts_us: 0.0,
            dur_us: 0.0,
            args: vec![("name", json_string(name))],
        });
    }

    /// Name a thread lane within a process.
    pub fn set_thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.meta.push(Event {
            name: "thread_name".to_string(),
            cat: "__metadata",
            ph: 'M',
            pid,
            tid,
            ts_us: 0.0,
            dur_us: 0.0,
            args: vec![("name", json_string(name))],
        });
    }

    /// Push a complete (`ph: "X"`) event. Times are microseconds.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        name: &str,
        cat: &'static str,
        pid: u32,
        tid: u32,
        ts_us: f64,
        dur_us: f64,
        frame: Option<u64>,
    ) {
        let mut args = Vec::new();
        if let Some(f) = frame {
            args.push(("frame", f.to_string()));
        }
        self.events.push(Event {
            name: name.to_string(),
            cat,
            ph: 'X',
            pid,
            tid,
            ts_us,
            dur_us,
            args,
        });
    }

    /// Push an instant (`ph: "i"`) event.
    pub fn instant(
        &mut self,
        name: &str,
        cat: &'static str,
        pid: u32,
        tid: u32,
        ts_us: f64,
        frame: Option<u64>,
    ) {
        let mut args = Vec::new();
        if let Some(f) = frame {
            args.push(("frame", f.to_string()));
        }
        self.events.push(Event {
            name: name.to_string(),
            cat,
            ph: 'i',
            pid,
            tid,
            ts_us,
            dur_us: 0.0,
            args,
        });
    }

    /// Convert a drained live-run [`SpanDump`] into events under process
    /// `pid`, one Chrome thread lane per recording thread.
    pub fn push_dump(&mut self, dump: &SpanDump, pid: u32, process_name: &str) {
        self.set_process_name(pid, process_name);
        for (tid, name) in &dump.threads {
            self.set_thread_name(pid, u32::from(*tid), name);
        }
        for s in &dump.spans {
            let stage = dump.stage_name(s.stage);
            let tid = u32::from(s.tid);
            let ts = s.start_ns as f64 / 1_000.0;
            let dur = s.dur_ns as f64 / 1_000.0;
            match s.kind {
                SpanKind::Compute => {
                    let name = match s.chunk {
                        Some((i, n)) => format!("{stage} [{}/{n}]", i + 1),
                        None => stage.to_string(),
                    };
                    self.complete(&name, "stage", pid, tid, ts, dur, Some(s.frame));
                }
                SpanKind::PoolChunk => {
                    let name = match s.chunk {
                        Some((i, n)) => format!("{stage} chunk {}/{n}", i + 1),
                        None => format!("{stage} chunk"),
                    };
                    self.complete(&name, "pool", pid, tid, ts, dur, Some(s.frame));
                }
                SpanKind::Get => {
                    self.complete(
                        &format!("get \u{2192} {stage}"),
                        "stm",
                        pid,
                        tid,
                        ts,
                        dur,
                        Some(s.frame),
                    );
                }
                SpanKind::Put => {
                    self.complete(
                        &format!("put \u{2190} {stage}"),
                        "stm",
                        pid,
                        tid,
                        ts,
                        dur,
                        Some(s.frame),
                    );
                }
                SpanKind::Join => {
                    self.complete(
                        &format!("join {stage}"),
                        "pool",
                        pid,
                        tid,
                        ts,
                        dur,
                        Some(s.frame),
                    );
                }
                SpanKind::Digitize => {
                    self.instant("digitize", "frame", pid, tid, ts, Some(s.frame))
                }
                SpanKind::Commit => self.instant("commit", "frame", pid, tid, ts, Some(s.frame)),
                SpanKind::Skip => {
                    self.instant(
                        &format!("skip @ {stage}"),
                        "frame",
                        pid,
                        tid,
                        ts,
                        Some(s.frame),
                    );
                }
                SpanKind::Switch => {
                    self.instant("regime switch", "regime", pid, tid, ts, Some(s.frame))
                }
                SpanKind::Decomp => {
                    let name = match s.chunk {
                        Some((fp, mp)) => format!("decomp FP={fp} MP={mp}"),
                        None => "decomp".to_string(),
                    };
                    self.instant(&name, "regime", pid, tid, ts, Some(s.frame));
                }
            }
        }
    }

    /// Render the trace as a Chrome JSON event array: metadata first, then
    /// all events sorted by timestamp (so `"ts"` values are monotone
    /// non-decreasing, which CI asserts).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| {
            self.events[a]
                .ts_us
                .partial_cmp(&self.events[b].ts_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut out = String::with_capacity(64 + 128 * (self.meta.len() + self.events.len()));
        out.push_str("[\n");
        let mut first = true;
        for ev in self
            .meta
            .iter()
            .chain(order.iter().map(|&i| &self.events[i]))
        {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            render_event(&mut out, ev);
        }
        out.push_str("\n]\n");
        out
    }
}

fn render_event(out: &mut String, ev: &Event) {
    out.push_str("  {\"name\":");
    out.push_str(&json_string(&ev.name));
    out.push_str(",\"cat\":");
    out.push_str(&json_string(ev.cat));
    out.push_str(",\"ph\":\"");
    out.push(ev.ph);
    out.push('"');
    if ev.ph != 'M' {
        out.push_str(&format!(",\"ts\":{:.3}", ev.ts_us));
    }
    if ev.ph == 'X' {
        out.push_str(&format!(",\"dur\":{:.3}", ev.dur_us));
    }
    if ev.ph == 'i' {
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(&format!(",\"pid\":{},\"tid\":{}", ev.pid, ev.tid));
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(k));
            out.push(':');
            out.push_str(v);
        }
        out.push('}');
    }
    out.push('}');
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Validate a rendered trace: the text must be a well-formed JSON array and
/// every `"ts"` value must be monotone non-decreasing in document order.
/// Returns the number of events on success, or a description of the first
/// problem found.
pub fn validate(json: &str) -> Result<usize, String> {
    let mut p = Parser {
        bytes: json.as_bytes(),
        pos: 0,
        last_ts: f64::NEG_INFINITY,
    };
    p.skip_ws();
    if p.peek() != Some(b'[') {
        return Err("top level is not a JSON array".to_string());
    }
    let n = p.array(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(n)
}

/// Minimal recursive-descent JSON reader for [`validate`]. Tracks the last
/// `"ts"` number seen to enforce monotonicity.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    last_ts: f64,
}

const MAX_DEPTH: usize = 32;

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                self.array(depth)?;
                Ok(())
            }
            Some(b'{') => self.object(depth),
            Some(b'"') => {
                self.string()?;
                Ok(())
            }
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                self.number()?;
                Ok(())
            }
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    /// Parse an array, returning its element count.
    fn array(&mut self, depth: usize) -> Result<usize, String> {
        self.eat(b'[')?;
        self.skip_ws();
        let mut n = 0;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(0);
        }
        loop {
            self.value(depth + 1)?;
            n += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(n);
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            if key == "ts" && matches!(self.peek(), Some(c) if c == b'-' || c.is_ascii_digit()) {
                let ts = self.number()?;
                if ts < self.last_ts {
                    return Err(format!(
                        "timestamps not monotone: {ts} after {} (byte {})",
                        self.last_ts, self.pos
                    ));
                }
                self.last_ts = ts;
            } else {
                self.value(depth + 1)?;
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't')) => {
                            out.push(c as char);
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => {
                                        return Err(format!("bad \\u escape at byte {}", self.pos))
                                    }
                                }
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through untouched; we only
                    // need key comparison for ASCII "ts".
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&String::from_utf8_lossy(&self.bytes[start..self.pos]));
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Recorder, Span, TraceMode};

    #[test]
    fn empty_trace_is_valid_json() {
        let t = ChromeTrace::new();
        assert!(t.is_empty());
        assert_eq!(validate(&t.to_json()), Ok(0));
    }

    #[test]
    fn events_render_sorted_and_valid() {
        let mut t = ChromeTrace::new();
        t.set_process_name(0, "live");
        t.set_thread_name(0, 1, "digitizer \"main\"");
        t.complete("stage B", "stage", 0, 1, 50.0, 10.0, Some(2));
        t.complete("stage A", "stage", 0, 1, 5.0, 10.0, Some(1));
        t.instant("commit", "frame", 0, 1, 70.0, Some(2));
        let json = t.to_json();
        // 2 metadata + 3 events.
        assert_eq!(validate(&json), Ok(5));
        let a = json.find("stage A").unwrap_or(usize::MAX);
        let b = json.find("stage B").unwrap_or(usize::MAX);
        assert!(a < b, "events must be emitted in ts order");
    }

    #[test]
    fn dump_round_trips_through_export() {
        let r = Recorder::new(
            TraceMode::Full,
            vec!["Digitizer".into(), "Histogram".into()],
        );
        r.record(Span {
            kind: crate::span::SpanKind::Compute,
            stage: 1,
            frame: 7,
            chunk: Some((0, 2)),
            start_ns: 1_000,
            dur_ns: 500,
            tid: 0,
        });
        r.instant(crate::span::SpanKind::Commit, 1, 7, None);
        let mut t = ChromeTrace::new();
        t.push_dump(&r.drain(), 0, "live");
        assert_eq!(t.len(), 2);
        let json = t.to_json();
        assert!(validate(&json).is_ok(), "{json}");
        assert!(json.contains("Histogram [1/2]"));
    }

    #[test]
    fn validator_rejects_malformed_and_non_monotone() {
        assert!(validate("{}").is_err());
        assert!(validate("[{\"ts\":1}").is_err());
        assert!(validate("[{\"ts\":2},{\"ts\":1}]").is_err());
        assert!(validate("[{\"ts\":1},{\"ts\":1},{\"ts\":3}]").is_ok());
        assert!(validate("[1,2,3] trailing").is_err());
    }
}
