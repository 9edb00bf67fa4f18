//! In-memory span recorder for the traced run.
//!
//! Every span has a name, a start and an end (µs since the tracer was
//! created), the index of its parent span, and the id of the op it
//! belongs to. Spans stay in memory until the run ends; `to_json` writes
//! them out.
//!
//! The benchmark opens spans only from its own files, around each public
//! call into a layer. When the tracer is on it also switches on the
//! program's own phase trace (`wmx_telemetry::enable_trace`) and nests
//! the phases recorded on the calling thread under the benchmark span
//! that made the call, named `<benchmark span>><phase>` (for example
//! `core.embed>embed.plan`). That trace carries only
//! durations, so an imported phase starts where its previous sibling
//! ended.
//!
//! When the tracer is off, `span` is a plain call of its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &str) -> usize {
        let op = if self.stack.is_empty() {
            self.next_op += 1;
            self.next_op
        } else {
            self.spans[self.stack[0]].op
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self) {
        let idx = self.stack.pop().expect("close without open span");
        self.spans[idx].end_us = self.now_us();
    }

    /// Opens a span that stays open until `exit`; a span opened with no
    /// span open is an op root and starts a new op id.
    pub fn enter(&mut self, name: &str) {
        if self.on {
            self.open(name);
        }
    }

    pub fn exit(&mut self) {
        if self.on {
            self.close();
        }
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes open spans until `depth` remain (after a panic unwound
    /// through `span`).
    pub fn close_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            self.close();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        wmx_telemetry::take_trace();
        let idx = self.open(name);
        wmx_telemetry::enable_trace();
        let out = f();
        wmx_telemetry::disable_trace();
        let events = wmx_telemetry::take_trace();
        self.close();
        self.import_program_phases(idx, &events);
        out
    }

    /// Nests the program's own phase events under span `parent`.
    fn import_program_phases(&mut self, parent: usize, events: &[wmx_telemetry::TraceEvent]) {
        use wmx_telemetry::TraceEvent;
        let op = self.spans[parent].op;
        // (span index, running end of its children)
        let mut open: Vec<(usize, f64)> = Vec::new();
        let mut cursor = self.spans[parent].start_us;
        for ev in events {
            match ev {
                TraceEvent::Enter(name) => {
                    let start = open.last().map_or(cursor, |&(_, c)| c);
                    let idx = self.spans.len();
                    self.spans.push(Span {
                        name: format!("{}>{name}", self.spans[parent].name),
                        start_us: start,
                        end_us: f64::NAN,
                        parent: Some(open.last().map_or(parent, |&(i, _)| i)),
                        op,
                    });
                    open.push((idx, start));
                }
                TraceEvent::Exit(micros) => {
                    let Some((idx, _)) = open.pop() else { continue };
                    let end = self.spans[idx].start_us + *micros as f64;
                    self.spans[idx].end_us = end;
                    match open.last_mut() {
                        Some((_, c)) => *c = end,
                        None => cursor = end,
                    }
                }
            }
        }
        // A phase still open when the call returned ends with the call.
        for (idx, _) in open {
            self.spans[idx].end_us = self.spans[parent].end_us;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the first span recorded after this call.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed seconds per span name over `spans()[from..]`, counting
    /// only spans of ops whose root span name starts with `root_prefix`.
    pub fn totals_since(&self, from: usize, root_prefix: &str) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        let mut root_ok = false;
        for s in &self.spans[from..] {
            if s.parent.is_none() {
                root_ok = s.name.starts_with(root_prefix);
            }
            if root_ok {
                *totals.entry(s.name.clone()).or_insert(0.0) += s.secs();
            }
        }
        totals
    }

    /// Over the op roots recorded since `from` whose name starts with
    /// `root_prefix`: (summed op wall time, summed time not covered by
    /// any direct child span).
    pub fn coverage_since(&self, from: usize, root_prefix: &str) -> (f64, f64) {
        let mut wall = 0.0;
        let mut uncovered = 0.0;
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            if s.parent.is_some() || !s.name.starts_with(root_prefix) {
                continue;
            }
            let children: f64 = self.spans[i + 1..]
                .iter()
                .take_while(|c| c.op == s.op)
                .filter(|c| c.parent == Some(i))
                .map(Span::secs)
                .sum();
            wall += s.secs();
            uncovered += (s.secs() - children).max(0.0);
        }
        (wall, uncovered)
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.op, s.start_us, s.end_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
