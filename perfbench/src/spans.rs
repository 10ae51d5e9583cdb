//! The traced run's span recorder.
//!
//! A span wraps one call the benchmark makes into a layer of the
//! program: name, start, end and the span that encloses it. Spans stay
//! in memory and are written out once, at the end, as a Chrome trace.
//! A layer's self time is its span's duration minus the time its child
//! spans cover. Untraced runs use [`Spans::off`], which records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Span recorder; a no-op when off.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rss: Option<Vec<(&'static str, f64)>>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rss: None,
        }
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Spans {
            on: true,
            rss: Some(Vec::new()),
            ..Spans::off()
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn run<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Close every open span at the current time (after a panic
    /// unwound through them).
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for i in std::mem::take(&mut self.open) {
            self.spans[i].end_ns = now;
        }
    }

    /// Record the peak RSS so far as `metric`, once per recorder until
    /// [`Self::take_rss_marks`].
    pub fn note_rss(&mut self, metric: &'static str) {
        if let Some(marks) = &mut self.rss {
            if !marks.iter().any(|(k, _)| *k == metric) {
                marks.push((metric, crate::sys::peak_rss_mb()));
            }
        }
    }

    /// The marks noted so far; later [`Self::note_rss`] calls are
    /// ignored.
    pub fn take_rss_marks(&mut self) -> Vec<(&'static str, f64)> {
        self.rss.take().unwrap_or_default()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time in seconds, summed per span name, over spans whose
    /// outermost ancestor is named `root` (the root included).
    pub fn self_seconds(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.root_of(i) != root {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Durations in seconds of every outermost span named `root`.
    pub fn root_seconds(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    fn root_of(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }

    /// The spans as a Chrome trace-event document (complete events,
    /// microseconds), with each span's parent index in `args`.
    pub fn to_chrome_json(&self) -> String {
        use serde_json::Value;
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::object([
                    ("name".to_string(), Value::String(s.name.to_string())),
                    ("ph".to_string(), Value::String("X".to_string())),
                    ("pid".to_string(), Value::Number(1.0)),
                    ("tid".to_string(), Value::Number(1.0)),
                    ("ts".to_string(), Value::Number(s.start_ns as f64 / 1e3)),
                    (
                        "dur".to_string(),
                        Value::Number((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args".to_string(),
                        Value::object([
                            ("id".to_string(), Value::Number(i as f64)),
                            (
                                "parent".to_string(),
                                s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        serde_json::to_string(&Value::object([(
            "traceEvents".to_string(),
            Value::Array(events),
        )]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let mut sp = Spans::on();
        sp.run("job", |sp| {
            sp.run("a", |sp| {
                sp.run("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            sp.run("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let own = sp.self_seconds("job");
        let total: f64 = own.values().sum();
        let root = sp.root_seconds("job");
        assert_eq!(root.len(), 1);
        assert!((total - root[0]).abs() < 1e-6, "{total} vs {}", root[0]);
        assert!(own["b"] >= 0.004);
        assert!(own["a"] < own["b"]);
    }

    #[test]
    fn off_records_nothing() {
        let mut sp = Spans::off();
        assert_eq!(sp.run("job", |_| 7), 7);
        assert!(sp.root_seconds("job").is_empty());
    }
}
