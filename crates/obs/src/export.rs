//! Chrome trace-event export: render drained spans as a JSON file loadable
//! in `chrome://tracing` / Perfetto for per-window flame views.
//!
//! Events use the complete-event form (`"ph": "X"` with `ts`/`dur` in
//! microseconds). Rows (`tid`) separate engine lanes from
//! partitions: lane spans land on `tid = lane`, partition spans on
//! `tid = 100 + partition`, untagged spans on `tid = 99`. The window id
//! (and, when present, partition and serving-entry fingerprint) ride in
//! `args` so a flame slice can be traced back to its window.

use crate::trace::SpanRecord;

/// Renders spans as a Chrome trace-event JSON document (hand-rolled like
/// every other JSON writer in this workspace — no serde_json).
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let tid = match (s.ctx.lane, s.ctx.partition) {
            (Some(lane), _) => lane as u64,
            (None, Some(partition)) => 100 + partition as u64,
            (None, None) => 99,
        };
        let mut args = format!("\"window\": {}", s.ctx.window_id);
        if let Some(p) = s.ctx.partition {
            args.push_str(&format!(", \"partition\": {p}"));
        }
        if let Some(lane) = s.ctx.lane {
            args.push_str(&format!(", \"lane\": {lane}"));
        }
        if let Some(fp) = s.ctx.entry_fp {
            args.push_str(&format!(", \"entry_fp\": \"{fp:016x}\""));
        }
        out.push_str(&format!(
            "{{\"name\": \"{name}\", \"cat\": \"stage\", \"ph\": \"X\", \"ts\": {ts}, \
             \"dur\": {dur}, \"pid\": 0, \"tid\": {tid}, \"args\": {{{args}}}}}{comma}\n",
            name = s.stage.name(),
            ts = s.start_us,
            dur = s.dur_us,
            comma = if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanRecord, Stage, TraceCtx};

    #[test]
    fn chrome_trace_renders_complete_events() {
        let spans = vec![
            SpanRecord {
                stage: Stage::Window,
                ctx: TraceCtx { window_id: 4, lane: Some(1), ..TraceCtx::default() },
                start_us: 10,
                dur_us: 500,
            },
            SpanRecord {
                stage: Stage::Ground,
                ctx: TraceCtx {
                    window_id: 4,
                    partition: Some(2),
                    entry_fp: Some(0xabcd),
                    ..TraceCtx::default()
                },
                start_us: 20,
                dur_us: 100,
            },
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.trim_end().ends_with("]}"), "{json}");
        assert!(
            json.contains(
                "{\"name\": \"window\", \"cat\": \"stage\", \"ph\": \"X\", \"ts\": 10, \
                 \"dur\": 500, \"pid\": 0, \"tid\": 1, \"args\": {\"window\": 4, \"lane\": 1}},"
            ),
            "{json}"
        );
        assert!(json.contains("\"tid\": 102"), "{json}");
        assert!(json.contains("\"entry_fp\": \"000000000000abcd\""), "{json}");
    }

    #[test]
    fn empty_span_list_is_still_valid_json() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[\n]}\n");
    }
}
