//! The two-channel trace sink: canonical JSONL for the deterministic
//! channel, a free-form sidecar for timing.
//!
//! [`TraceSink`] is a [`Subscriber`] that renders every event to one
//! JSON line and appends it to the buffer of the event's channel. The
//! deterministic buffer's bytes are canonical — sorted keys, shortest
//! round-trip floats and string escapes from [`crate::json`], the codec
//! campaign artifacts are written with — so two runs of the same
//! computation produce identical bytes regardless of thread count, and
//! CI can `cmp` them like any other artifact. The timing buffer uses the same rendering but its
//! contents (durations, scheduling events) are inherently run-specific
//! and must never be diffed.

use crate::json::{fmt_f64, write_escaped};
use crate::{Channel, Event, Subscriber, Value};
use std::sync::Mutex;

/// A subscriber that buffers rendered event lines per channel.
#[derive(Default)]
pub struct TraceSink {
    det: Mutex<String>,
    timing: Mutex<String>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The deterministic channel's bytes so far (newline-terminated
    /// JSONL; empty when no deterministic event fired).
    pub fn det_bytes(&self) -> String {
        self.det.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The deterministic channel as individual lines.
    pub fn det_lines(&self) -> Vec<String> {
        self.det_bytes().lines().map(String::from).collect()
    }

    /// The timing sidecar's bytes so far.
    pub fn timing_bytes(&self) -> String {
        self.timing.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Drains both channels, returning `(det, timing)` and leaving the
    /// sink empty (for per-unit reuse).
    pub fn take(&self) -> (String, String) {
        let det = std::mem::take(&mut *self.det.lock().unwrap_or_else(|e| e.into_inner()));
        let timing = std::mem::take(&mut *self.timing.lock().unwrap_or_else(|e| e.into_inner()));
        (det, timing)
    }
}

impl Subscriber for TraceSink {
    fn event(&self, event: &Event) {
        let line = render_line(event);
        let buf = match event.callsite.channel {
            Channel::Det => &self.det,
            Channel::Timing => &self.timing,
        };
        let mut buf = buf.lock().unwrap_or_else(|e| e.into_inner());
        buf.push_str(&line);
        buf.push('\n');
    }
}

/// Renders one event as a canonical JSON line (no trailing newline):
/// the event name under the `"ev"` key plus every field, keys sorted.
pub fn render_line(event: &Event) -> String {
    let mut out = String::with_capacity(64);
    render_line_into(event, &[], &mut out);
    out
}

/// [`render_line`] with caller-supplied correlation fields merged in
/// (the span log uses this to stamp `trace`/`span` context onto a line
/// without mutating the event). An extra key that collides with an
/// event field is dropped — the event's own value wins.
pub fn render_line_with(event: &Event, extra: &[(&'static str, Value)]) -> String {
    let mut out = String::with_capacity(64);
    render_line_into(event, extra, &mut out);
    out
}

/// Renders into a caller-owned buffer (cleared first, capacity kept).
/// The flight recorder's steady-state zero-allocation claim rests on
/// this: ring slots are reused strings whose capacity converges to the
/// longest line seen.
pub fn render_line_into(event: &Event, extra: &[(&'static str, Value)], out: &mut String) {
    let mut pairs: Vec<(&str, &Value)> = event.fields.iter().map(|(k, v)| (*k, v)).collect();
    let name = Value::Str(event.callsite.name.to_string());
    pairs.push(("ev", &name));
    for (k, v) in extra {
        if !pairs.iter().any(|(pk, _)| pk == k) {
            pairs.push((k, v));
        }
    }
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    out.clear();
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(k, out);
        out.push(':');
        write_value(v, out);
    }
    out.push('}');
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => out.push_str(&fmt_f64(*x)),
        Value::Str(s) => write_escaped(s, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Callsite;
    use std::sync::Arc;

    static DET: Callsite = Callsite { name: "unit.det", channel: Channel::Det };
    static TIMING: Callsite = Callsite { name: "unit.timing", channel: Channel::Timing };

    #[test]
    fn renders_sorted_canonical_lines() {
        let e = Event::new(&DET)
            .u64("zeta", 7)
            .f64("alpha", 0.5)
            .bool("mid", true)
            .str("label", "a\"b")
            .i64("neg", -3);
        let line = render_line(&e);
        assert_eq!(
            line,
            "{\"alpha\":5e-1,\"ev\":\"unit.det\",\"label\":\"a\\\"b\",\"mid\":true,\"neg\":-3,\"zeta\":7}"
        );
    }

    #[test]
    fn float_formatting_matches_campaign_convention() {
        // Trace lines carry floats in the campaign artifacts' form:
        // integral values plain, shortest round-trip exponent form
        // otherwise, the NaN/Infinity tokens for non-finite values.
        let x = 0.1 + 0.2;
        let e = Event::new(&DET)
            .f64("a", 0.0)
            .f64("b", -0.0)
            .f64("c", 3.0)
            .f64("d", -12345.0)
            .f64("e", 0.5)
            .f64("f", f64::NAN)
            .f64("g", f64::INFINITY)
            .f64("h", f64::NEG_INFINITY)
            .f64("i", x);
        let line = render_line(&e);
        assert_eq!(
            line,
            "{\"a\":0,\"b\":0,\"c\":3,\"d\":-12345,\"e\":5e-1,\"ev\":\"unit.det\",\
             \"f\":NaN,\"g\":Infinity,\"h\":-Infinity,\"i\":3.0000000000000004e-1}"
        );
        // Round-trip exactness on an awkward value.
        assert_eq!(fmt_f64(x).parse::<f64>().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn sink_splits_channels_and_takes() {
        let sink = Arc::new(TraceSink::new());
        sink.event(&Event::new(&DET).u64("i", 1));
        sink.event(&Event::new(&TIMING).u64("us", 9));
        sink.event(&Event::new(&DET).u64("i", 2));
        assert_eq!(sink.det_lines().len(), 2);
        assert!(sink.det_bytes().ends_with('\n'));
        assert!(sink.timing_bytes().contains("\"us\":9"));
        assert!(!sink.det_bytes().contains("us"));
        let (det, timing) = sink.take();
        assert_eq!(det.lines().count(), 2);
        assert_eq!(timing.lines().count(), 1);
        assert!(sink.det_bytes().is_empty() && sink.timing_bytes().is_empty());
    }

    #[test]
    fn control_characters_escape() {
        let e = Event::new(&DET).str("s", "a\u{1}\tb");
        assert!(render_line(&e).contains("\\u0001\\tb"));
    }

    #[test]
    fn extra_fields_merge_sorted_and_never_override() {
        let e = Event::new(&DET).u64("i", 1);
        let line =
            render_line_with(&e, &[("trace", Value::Str("t-1".into())), ("i", Value::U64(9))]);
        assert_eq!(line, "{\"ev\":\"unit.det\",\"i\":1,\"trace\":\"t-1\"}");
    }

    #[test]
    fn render_into_reuses_the_buffer() {
        let mut buf = String::new();
        render_line_into(&Event::new(&DET).u64("long_field_name", 123456), &[], &mut buf);
        let cap = buf.capacity();
        render_line_into(&Event::new(&DET).u64("i", 1), &[], &mut buf);
        assert_eq!(buf, "{\"ev\":\"unit.det\",\"i\":1}");
        assert_eq!(buf.capacity(), cap);
    }
}
