//! Robust JSONL trace ingestion.
//!
//! Trace files come from crashed runs, concurrent writers, and future
//! recorder versions, so the reader never trusts its input: a truncated
//! last line, interleaved garbage, or an unknown event kind is *skipped and
//! counted*, never a panic or a hard error. [`IngestStats`] records exactly
//! what was dropped so reports can carry a completeness warning instead of
//! silently presenting partial data as the whole run.

use std::collections::BTreeMap;

use pins_trace::json::{self, Json};

/// The event kinds the analyzer understands (the `kind` tag of each JSONL
/// record). Unknown tags are counted in [`IngestStats::unknown_kinds`] and
/// the record is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A span was opened.
    SpanStart,
    /// A span was closed; `dur_us` carries its duration.
    SpanEnd,
    /// A named counter was bumped.
    Count,
    /// A point-in-time observation.
    Point,
}

/// One parsed trace event. Mirrors the recorder's JSONL schema; optional
/// members default to 0 / empty when absent.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// 1-based gap-free sequence number assigned by the recorder.
    pub seq: u64,
    /// Microseconds since the recorder's epoch.
    pub t_us: u64,
    /// Emitting thread slot.
    pub thread: u64,
    /// What kind of record this is.
    pub kind: Kind,
    /// Span or counter name.
    pub name: String,
    /// Span id (0 when not a span event).
    pub span: u64,
    /// Enclosing span id on the emitting thread (0 at top level).
    pub parent: u64,
    /// Span duration in microseconds (span-end events only).
    pub dur_us: Option<u64>,
    /// Structured payload.
    pub fields: BTreeMap<String, Json>,
}

impl TraceEvent {
    /// A field as a number, if present and numeric.
    pub fn field_num(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Json::as_num)
    }

    /// A field as a string, if present and a string.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Json::as_str)
    }
}

/// What ingestion saw, including everything it had to drop.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Non-empty input lines.
    pub lines: u64,
    /// Lines that parsed into a usable event.
    pub parsed: u64,
    /// Lines dropped: malformed JSON, non-objects, or missing/invalid
    /// required members (truncated tail lines land here).
    pub skipped_lines: u64,
    /// Structurally valid records with an unrecognized `kind` tag.
    pub unknown_kinds: u64,
    /// Gaps in the recorder's sequence numbering — events lost between
    /// writing and reading (or dropped lines).
    pub seq_gaps: u64,
    /// `emitted` total declared by the final `trace.summary` event, if seen.
    pub declared_emitted: Option<u64>,
    /// `dropped` total declared by the final `trace.summary` event, if seen.
    pub declared_dropped: Option<u64>,
}

impl IngestStats {
    /// True when any evidence of missing data exists: recorder-side drops,
    /// reader-side skips, or sequence gaps.
    pub fn incomplete(&self) -> bool {
        self.skipped_lines > 0
            || self.unknown_kinds > 0
            || self.seq_gaps > 0
            || self.declared_dropped.unwrap_or(0) > 0
    }

    /// One-line completeness warning, or `None` when the trace is whole.
    pub fn completeness_warning(&self) -> Option<String> {
        if !self.incomplete() {
            return None;
        }
        let mut parts = Vec::new();
        if let Some(d) = self.declared_dropped.filter(|&d| d > 0) {
            parts.push(format!("{d} events dropped by the recorder"));
        }
        if self.skipped_lines > 0 {
            parts.push(format!("{} unparseable lines skipped", self.skipped_lines));
        }
        if self.unknown_kinds > 0 {
            parts.push(format!(
                "{} unknown event kinds skipped",
                self.unknown_kinds
            ));
        }
        if self.seq_gaps > 0 {
            parts.push(format!("{} sequence gaps", self.seq_gaps));
        }
        Some(format!(
            "warning: trace is incomplete ({}); numbers below undercount the run",
            parts.join(", ")
        ))
    }
}

/// A parsed trace: the surviving events plus the ingestion ledger.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in file order.
    pub events: Vec<TraceEvent>,
    /// What ingestion dropped or flagged.
    pub stats: IngestStats,
}

impl Trace {
    /// Parses JSONL text. Infallible by design: anything unreadable is
    /// counted in [`IngestStats`] and skipped.
    pub fn parse(text: &str) -> Trace {
        let mut trace = Trace::default();
        let mut last_seq: Option<u64> = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            trace.stats.lines += 1;
            let ev = match parse_line(line) {
                Ok(ev) => ev,
                Err(LineError::Malformed) => {
                    trace.stats.skipped_lines += 1;
                    continue;
                }
                Err(LineError::UnknownKind) => {
                    trace.stats.unknown_kinds += 1;
                    continue;
                }
            };
            if let Some(prev) = last_seq {
                if ev.seq > prev + 1 {
                    trace.stats.seq_gaps += ev.seq - prev - 1;
                }
            }
            last_seq = Some(ev.seq);
            if ev.kind == Kind::Point && ev.name == "trace.summary" {
                trace.stats.declared_emitted = ev.field_num("emitted").map(|n| n as u64);
                trace.stats.declared_dropped = ev.field_num("dropped").map(|n| n as u64);
            }
            trace.stats.parsed += 1;
            trace.events.push(ev);
        }
        trace
    }

    /// Reads and parses a JSONL file. IO failure is the only hard error.
    pub fn from_file(path: &str) -> Result<Trace, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(Trace::parse(&text))
    }

    /// Merges another trace into this one (multi-file ingestion). Events
    /// keep file order; stats are summed and summary declarations added.
    pub fn merge(&mut self, other: Trace) {
        self.events.extend(other.events);
        let s = &mut self.stats;
        let o = other.stats;
        s.lines += o.lines;
        s.parsed += o.parsed;
        s.skipped_lines += o.skipped_lines;
        s.unknown_kinds += o.unknown_kinds;
        s.seq_gaps += o.seq_gaps;
        s.declared_emitted = merge_decl(s.declared_emitted, o.declared_emitted);
        s.declared_dropped = merge_decl(s.declared_dropped, o.declared_dropped);
    }
}

fn merge_decl(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (None, None) => None,
        (x, y) => Some(x.unwrap_or(0) + y.unwrap_or(0)),
    }
}

enum LineError {
    Malformed,
    UnknownKind,
}

fn parse_line(line: &str) -> Result<TraceEvent, LineError> {
    let v = json::parse(line).map_err(|_| LineError::Malformed)?;
    let obj = match &v {
        Json::Obj(m) => m,
        _ => return Err(LineError::Malformed),
    };
    let num = |key: &str| v.get(key).and_then(Json::as_num);
    let seq = num("seq")
        .filter(|n| *n >= 1.0)
        .ok_or(LineError::Malformed)? as u64;
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or(LineError::Malformed)?
        .to_string();
    let kind = match v.get("kind").and_then(Json::as_str) {
        Some("span_start") => Kind::SpanStart,
        Some("span_end") => Kind::SpanEnd,
        Some("count") => Kind::Count,
        Some("point") => Kind::Point,
        Some(_) => return Err(LineError::UnknownKind),
        None => return Err(LineError::Malformed),
    };
    let fields = match obj.get("fields") {
        Some(Json::Obj(m)) => m.clone(),
        Some(_) => return Err(LineError::Malformed),
        None => BTreeMap::new(),
    };
    Ok(TraceEvent {
        seq,
        t_us: num("t_us").unwrap_or(0.0) as u64,
        thread: num("thread").unwrap_or(0.0) as u64,
        kind,
        name,
        span: num("span").unwrap_or(0.0) as u64,
        parent: num("parent").unwrap_or(0.0) as u64,
        dur_us: num("dur_us").map(|n| n as u64),
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_lines_and_summary() {
        let text = r#"
{"seq":1,"t_us":10,"thread":0,"kind":"span_start","name":"pins.run","span":1}
{"seq":2,"t_us":90,"thread":0,"kind":"span_end","name":"pins.run","span":1,"dur_us":80,"fields":{"benchmark":"Σi"}}
{"seq":3,"t_us":95,"thread":0,"kind":"point","name":"trace.summary","fields":{"emitted":3,"dropped":0}}
"#;
        let t = Trace::parse(text);
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.stats.parsed, 3);
        assert_eq!(t.stats.skipped_lines, 0);
        assert_eq!(t.stats.seq_gaps, 0);
        assert_eq!(t.stats.declared_emitted, Some(3));
        assert_eq!(t.stats.declared_dropped, Some(0));
        assert!(!t.stats.incomplete());
        assert_eq!(t.events[1].dur_us, Some(80));
        assert_eq!(t.events[1].field_str("benchmark"), Some("Σi"));
    }

    #[test]
    fn truncated_and_garbage_lines_are_counted_not_fatal() {
        let text = concat!(
            "{\"seq\":1,\"t_us\":1,\"thread\":0,\"kind\":\"count\",\"name\":\"a\"}\n",
            "not json at all\n",
            "{\"seq\":3,\"t_us\":2,\"thread\":0,\"kind\":\"count\",\"name\":\"b\"}\n",
            "{\"seq\":4,\"t_us\":3,\"thread\":0,\"kind\":\"cou", // truncated tail
        );
        let t = Trace::parse(text);
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.stats.skipped_lines, 2);
        assert_eq!(t.stats.seq_gaps, 1, "seq 2 was the garbage line");
        assert!(t.stats.incomplete());
        assert!(t.stats.completeness_warning().unwrap().contains("skipped"));
    }

    #[test]
    fn unknown_kinds_are_skipped_with_their_own_counter() {
        let text = concat!(
            "{\"seq\":1,\"t_us\":1,\"thread\":0,\"kind\":\"count\",\"name\":\"a\"}\n",
            "{\"seq\":2,\"t_us\":2,\"thread\":0,\"kind\":\"hologram\",\"name\":\"z\"}\n",
        );
        let t = Trace::parse(text);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.stats.unknown_kinds, 1);
        assert!(t.stats.incomplete());
    }

    #[test]
    fn recorder_declared_drops_flag_incompleteness() {
        let text = "{\"seq\":1,\"t_us\":1,\"thread\":0,\"kind\":\"point\",\
                    \"name\":\"trace.summary\",\"fields\":{\"emitted\":9,\"dropped\":4}}\n";
        let t = Trace::parse(text);
        assert_eq!(t.stats.declared_dropped, Some(4));
        let warning = t.stats.completeness_warning().unwrap();
        assert!(warning.contains("4 events dropped"), "{warning}");
    }
}
