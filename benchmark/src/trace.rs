//! Timing helpers: the median every reported time goes through, and the
//! in-memory span recorder of a traced run.
//!
//! Spans are recorded from the benchmark's side of each public call into a
//! layer (spans inside the program are ROADMAP item 1). They nest by call
//! order: a span's parent is the span that was open when it started.

use crate::json::Json;
use std::time::Instant;

/// Median of the samples (mean of the middle two for an even count);
/// `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    })
}

/// Runs `f` `reps` times; returns the last result and the median seconds.
pub fn timed_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one repetition ran"),
        median(&times).expect("at least one repetition ran"),
    )
}

/// One recorded span, in seconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// Span recorder. Disabled (an untraced run), it records nothing, so the
/// end-to-end numbers are measured with tracing off.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// The trace file: every span with its self time, tagged with the
    /// workload identifier all spans of one run share.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let self_s = self_times(&self.spans);
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .zip(&self_s)
                        .enumerate()
                        .map(|(id, (s, own))| {
                            Json::obj([
                                ("id", Json::Num(id as f64)),
                                ("name", Json::str(s.name.as_str())),
                                ("start_s", Json::Num(s.start)),
                                ("end_s", Json::Num(s.end)),
                                ("self_s", Json::Num(*own)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time per span: its duration minus its direct children's durations.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end - s.start;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn timed_median_reports_the_sample_count_it_ran() {
        let mut calls = 0;
        let (last, t) = timed_median(3, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (3, 3));
        assert!(t >= 0.0);
    }

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn children_subtract_from_their_parent_only() {
        let spans = [
            span("run", 0.0, 10.0, None),
            span("build", 0.0, 2.0, Some(0)),
            span("step", 2.0, 9.0, Some(0)),
            span("probe", 3.0, 5.0, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![1.0, 2.0, 5.0, 2.0]);
    }

    #[test]
    fn recorded_self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            for _ in 0..3 {
                t.span("child", |t| {
                    t.span("leaf", |_| {
                        std::thread::sleep(std::time::Duration::from_millis(2))
                    });
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
            }
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 7);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let root = spans[0].end - spans[0].start;
        let total: f64 = self_times(spans).iter().sum();
        assert!((total - root).abs() <= 0.02 * root, "{total} vs {root}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
