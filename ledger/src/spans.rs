//! Benchmark-side spans around calls into each layer.
//!
//! Spans nest: a span begun while another is open is its child. A
//! layer's self time is its span's duration minus the time its child
//! spans cover. Spans stay in memory for the whole run.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// An in-memory span recorder.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[must_use]
pub struct Open(usize);

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.open.push(id);
        Open(id)
    }

    /// Close `span`; spans must close innermost first.
    pub fn end(&mut self, span: Open) {
        let id = span.0;
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end = Some(Instant::now());
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    fn duration_s(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end
            .expect("closed span")
            .duration_since(s.start)
            .as_secs_f64()
    }

    /// Summed self time per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for id in 0..self.spans.len() {
            *out.entry(self.spans[id].name).or_default() += self.duration_s(id);
        }
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                *out.entry(self.spans[p].name).or_default() -= self.duration_s(id);
            }
        }
        out
    }

    /// Summed total (inclusive) time per span name, in seconds.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for id in 0..self.spans.len() {
            *out.entry(self.spans[id].name).or_default() += self.duration_s(id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new();
        let root = r.begin("root");
        spin(5);
        r.time("child", || spin(10));
        r.time("child", || spin(10));
        r.end(root);
        let totals = r.totals();
        let selfs = r.self_times();
        assert!(totals["child"] >= 0.020);
        assert!((selfs["root"] - (totals["root"] - totals["child"])).abs() < 1e-9);
        let sum: f64 = selfs.values().sum();
        assert!(
            (sum - totals["root"]).abs() < 1e-9,
            "self times tile the root"
        );
    }
}
