//! The traced run's span log: every public call the benchmark makes is
//! wrapped in a span (name, start, end, parent, request id), and the
//! program's own timelines (`MapRequest::with_trace`, wire
//! `"trace": true`) are grafted underneath the call that produced them.
//! Spans stay in memory and are written out once, at the end.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use qxmap_core::trace::SolveTrace;
use qxmap_serve::Json;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<SpanId>,
    pub request: u64,
    /// Counters the program attached to its own spans.
    pub counters: Vec<(String, u64)>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let span = Span {
            name: name.to_string(),
            start_us: self.at(start),
            end_us: self.at(end),
            parent,
            request,
            counters: Vec::new(),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Ends a span opened with [`SpanLog::record`] at its start.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        self.spans[id].end_us = self.at(end);
    }

    pub fn set_parent(&mut self, id: SpanId, parent: SpanId) {
        self.spans[id].parent = Some(parent);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, start, Instant::now(), parent, request);
        (out, id)
    }

    /// Grafts a program-side timeline under `parent`. `origin` is the
    /// instant the program's recorder measured from. A program span's
    /// parent is the latest grafted span whose path is the longest
    /// proper prefix of its own path and whose interval contains it
    /// (`race/exact/subset0/encode` hangs off `race/exact`); spans with
    /// no such ancestor hang off `parent`.
    pub fn graft(&mut self, trace: &SolveTrace, origin: Instant, parent: SpanId, request: u64) {
        let base = self.at(origin);
        let mut grafted: Vec<(String, SpanId)> = Vec::new();
        for s in &trace.spans {
            let start_us = base + s.start_us as f64;
            let end_us = start_us + s.duration_us as f64;
            let contains = |id: SpanId| {
                let span = &self.spans[id];
                span.start_us <= start_us && end_us <= span.end_us + 1.0
            };
            let mut ancestor = None;
            let mut path = s.path.as_str();
            while let Some((prefix, _)) = path.rsplit_once('/') {
                ancestor = grafted
                    .iter()
                    .rev()
                    .find(|(p, id)| p == prefix && contains(*id))
                    .map(|(_, id)| *id);
                if ancestor.is_some() {
                    break;
                }
                path = prefix;
            }
            self.spans.push(Span {
                name: s.path.clone(),
                start_us,
                end_us,
                parent: Some(ancestor.unwrap_or(parent)),
                request,
                counters: s.counters.clone(),
            });
            grafted.push((s.path.clone(), self.spans.len() - 1));
        }
    }

    /// The same, for a wire `trace` object (`spans[].path/start_us/
    /// duration_us/counters`).
    pub fn graft_wire(&mut self, trace: &Json, origin: Instant, parent: SpanId, request: u64) {
        let spans = trace
            .get("spans")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| {
                let path = s.get("path")?.as_str()?.to_string();
                let counters = s
                    .get("counters")
                    .and_then(Json::as_object)
                    .map(|pairs| {
                        pairs
                            .iter()
                            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                            .collect()
                    })
                    .unwrap_or_default();
                Some(qxmap_core::trace::TraceSpan {
                    path,
                    start_us: s.get("start_us")?.as_u64()?,
                    duration_us: s.get("duration_us")?.as_u64()?,
                    counters,
                })
            })
            .collect();
        let elapsed_us = trace.get("elapsed_us").and_then(Json::as_u64).unwrap_or(0);
        self.graft(&SolveTrace { elapsed_us, spans }, origin, parent, request);
    }

    pub fn extend(&mut self, other: SpanLog) {
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_secs_f64()
            * 1e6;
        let offset = self.spans.len();
        for mut s in other.spans {
            s.start_us += shift;
            s.end_us += shift;
            s.parent = s.parent.map(|p| p + offset);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span whose name satisfies `pick`.
    pub fn durations(&self, pick: impl Fn(&str) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| pick(&s.name))
            .map(Span::duration_us)
            .collect()
    }

    /// Self time of every span: its duration minus the union of the
    /// intervals its children cover (children of a race overlap).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start_us;
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(s.end_us));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.duration_us() - covered).max(0.0)
            })
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((id, s), self_us) in self.spans.iter().enumerate().zip(self.self_times_us()) {
            let line = Json::obj([
                ("id", Json::num(id as u64)),
                ("name", Json::str(&s.name)),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                ("self_us", Json::Num(self_us)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as u64)),
                ),
                ("request", Json::num(s.request)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
