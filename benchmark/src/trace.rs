//! Spans around the benchmark's calls into each layer.
//!
//! A [`Recorder`] always measures the calls it brackets (set-up time and
//! pass wall come from it on untraced passes too) but keeps spans only
//! when tracing is on. Spans stay in memory and are written out as a
//! Chrome trace-event document when the run ends.

use darco_obs::JsonWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// One bracketed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the workload's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The job (program run) the span belongs to.
    pub run: u32,
    /// Host thread lane (0 is the main thread, fleet workers 1..).
    pub tid: u32,
    /// Counter deltas read across the span, in nanoseconds or counts.
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span: its start and, when tracing, its index.
pub struct Token {
    start: Instant,
    idx: Option<usize>,
}

/// Span recorder for one job.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    run: u32,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, on: bool, run: u32, tid: u32) -> Recorder {
        Recorder { epoch, on, run, tid, spans: Vec::new(), open: Vec::new() }
    }

    pub fn tracing(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str) -> Token {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                run: self.run,
                tid: self.tid,
                args: Vec::new(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Token { start, idx }
    }

    /// Closes a span, returning its duration in nanoseconds.
    pub fn end(&mut self, t: &Token) -> u64 {
        let now = Instant::now();
        if let Some(i) = t.idx {
            self.spans[i].end_ns = now.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.open.retain(|&o| o != i);
        }
        now.duration_since(t.start).as_nanos() as u64
    }

    /// Attaches counter deltas to a (closed or open) span.
    pub fn annotate(&mut self, t: &Token, args: &[(&'static str, u64)]) {
        if let Some(i) = t.idx {
            self.spans[i].args.extend_from_slice(args);
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends one job's spans to a pass trace, rebasing parent indices.
pub fn absorb(into: &mut Vec<Span>, spans: Vec<Span>) {
    let base = into.len();
    into.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Span time not covered by child spans.
    pub self_ns: u64,
}

pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(c);
    }
    out
}

/// Sum of one counter delta over every span that carries it.
pub fn arg_sum(spans: &[Span], key: &str) -> u64 {
    spans.iter().flat_map(|s| &s.args).filter(|(k, _)| *k == key).map(|(_, v)| v).sum()
}

/// Renders a trace as a Chrome trace-event JSON array of complete
/// (`"X"`) events, one process per workload.
pub fn to_chrome(workload: &str, spans: &[Span]) -> String {
    let mut w = JsonWriter::new();
    w.begin_arr(None);
    w.begin_obj(None);
    w.field_str("name", "process_name").field_str("ph", "M");
    w.field_num("ts", 0).field_num("pid", 1).field_num("tid", 0);
    w.begin_obj(Some("args")).field_str("name", workload).end_obj();
    w.end_obj();
    for (i, s) in spans.iter().enumerate() {
        w.begin_obj(None);
        w.field_str("name", s.name).field_str("ph", "X");
        w.field_f64("ts", s.start_ns as f64 / 1e3);
        w.field_f64("dur", s.dur_ns() as f64 / 1e3);
        w.field_num("pid", 1).field_num("tid", s.tid);
        w.begin_obj(Some("args"));
        w.field_num("span", i).field_num("run", s.run);
        match s.parent {
            Some(p) => w.field_num("parent", p),
            None => w.field_null("parent"),
        };
        for (k, v) in &s.args {
            w.field_num(k, v);
        }
        w.end_obj();
        w.end_obj();
    }
    w.end_arr();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, run: 0, tid: 0, args: vec![] }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans =
            vec![span("job", 0, 100, None), span("step", 10, 40, Some(0)), span("step", 50, 90, Some(0))];
        let t = layer_times(&spans);
        assert_eq!(t["job"], LayerTime { count: 1, total_ns: 100, self_ns: 30 });
        assert_eq!(t["step"], LayerTime { count: 2, total_ns: 70, self_ns: 70 });
    }

    #[test]
    fn absorb_rebases_parents_and_chrome_output_validates() {
        let mut all = vec![span("a", 0, 5, None)];
        absorb(&mut all, vec![span("job", 0, 10, None), span("step", 1, 2, Some(0))]);
        assert_eq!(all[2].parent, Some(1));
        let doc = darco_obs::parse(&to_chrome("w", &all)).unwrap();
        assert_eq!(darco_obs::chrome::validate_chrome_trace(&doc).unwrap(), 4);
    }

    #[test]
    fn recorder_measures_even_when_off() {
        let mut r = Recorder::new(Instant::now(), false, 0, 0);
        let t = r.begin("x");
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(r.end(&t) >= 1_000_000);
        assert!(r.into_spans().is_empty());
    }
}
