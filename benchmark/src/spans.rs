//! The benchmark's own spans, recorded in memory around each call
//! into a layer and written out when the run ends.

use std::time::Instant;

use crossbid_metrics::Json;

/// One recorded span. `parent` indexes the span that was open when
/// this one started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    /// Which run of the workload this span belongs to.
    run: u32,
    /// Registry counters read at the span's end boundary.
    counts: Vec<(&'static str, u64)>,
}

/// Span recorder. When off (the untraced measurement), `enter`/`exit`
/// do nothing.
pub struct Spans {
    on: bool,
    epoch: Instant,
    run: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle returned by [`Spans::enter`]; pass it back to `exit`.
pub struct Open(Option<usize>);

impl Spans {
    /// A recorder that is off until [`set_on`](Self::set_on).
    pub fn new() -> Self {
        Spans {
            on: false,
            epoch: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start a new run id; spans entered from now on carry it.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.epoch.elapsed().as_secs_f64();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
            run: self.run,
            counts: Vec::new(),
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        self.exit_with(open, Vec::new);
    }

    /// Close a span and attach the counters `counts` reads (not called
    /// when recording is off).
    pub fn exit_with(&mut self, open: Open, counts: impl FnOnce() -> Vec<(&'static str, u64)>) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
            self.spans[idx].counts = counts();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Seconds of `idx` not covered by its children.
    pub fn self_secs(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_s - c.start_s)
            .sum();
        (s.end_s - s.start_s - children).max(0.0)
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            Json::obj([
                                ("id", Json::UInt(i as u64)),
                                ("name", Json::str(s.name)),
                                ("run", Json::UInt(s.run as u64)),
                                ("start_s", Json::Num(s.start_s)),
                                ("end_s", Json::Num(s.end_s)),
                                ("self_s", Json::Num(self.self_secs(i))),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                                ),
                                (
                                    "counts",
                                    Json::obj(s.counts.iter().map(|&(k, v)| (k, Json::UInt(v)))),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
