//! Sample summaries, the metric registry the benchmark prints, and the
//! in-memory span recorder of the traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use machtlb_xpr::percentile_nearest_rank;

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0..=100) of `sorted` (ascending,
/// non-empty) and the number of samples strictly beyond its rank.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
    (percentile_nearest_rank(sorted, p), sorted.len() - rank)
}

/// Median of unsorted samples (nearest rank), or 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).0
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes (0: the layer did no observable work
    /// on this workload, or the program exposes no measurement of it).
    pub n: usize,
    /// For a percentile: samples beyond its rank.
    pub beyond: Option<usize>,
}

/// Every metric of one run, by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.0.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                n,
                beyond: None,
            },
        );
    }

    /// Sets `<name>.p50` and `<name>.p90` from `samples`, recording how
    /// many samples lie beyond each rank.
    pub fn set_percentiles(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        for (tag, p) in [("p50", 50.0), ("p90", 90.0)] {
            let (value, beyond) = if v.is_empty() {
                (0.0, 0)
            } else {
                percentile(&v, p)
            };
            self.0.insert(
                format!("{name}.{tag}"),
                Metric {
                    value,
                    unit,
                    n: v.len(),
                    beyond: Some(beyond),
                },
            );
        }
    }

    /// The detail line: every metric with its unit, sample count and, for
    /// percentiles, the samples beyond the rank and whether that meets
    /// [`MIN_BEYOND`].
    pub fn detail_json(&self, header: &str) -> String {
        let mut s = format!("{{{header}, \"metrics\": {{");
        for (i, (name, m)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}",
                num(m.value),
                m.unit,
                m.n
            );
            if let Some(b) = m.beyond {
                let _ = write!(
                    s,
                    ", \"beyond\": {b}, \"tail_supported\": {}",
                    b >= MIN_BEYOND
                );
            }
            s.push('}');
        }
        s.push_str("}}");
        s
    }

    /// The result line: `names` only, as `{"value", "unit"}` pairs.
    pub fn result_json(
        &self,
        names: &[&str],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .0
                .get(*name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with all its digits (non-finite values become 0).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

/// One host-time span recorded by the benchmark around a call into a
/// layer of the program.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Instance the span belongs to (spans of one instance share it).
    pub instance: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans in memory while enabled; when disabled, `span` only
/// returns the call's duration.
#[derive(Debug)]
pub struct Tracer {
    pub enabled: bool,
    epoch: Instant,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
    pub instance: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            instance: 0,
        }
    }

    /// Runs `f` inside a span named `name`; returns its value and its
    /// host duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let id = self.spans.len();
        if self.enabled {
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                name,
                instance: self.instance,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
            });
            self.stack.push(id);
        }
        let out = f(self);
        let end = Instant::now();
        if self.enabled {
            self.stack.pop();
            self.spans[id].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Total and self time (seconds) per span name: self time is a span's
    /// duration minus the part its child spans cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += dur as f64 * 1e-9;
            e.1 += dur.saturating_sub(child_ns[s.id]) as f64 * 1e-9;
            e.2 += 1;
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"instance\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i > 0 { ",\n" } else { "" },
                sp.id,
                sp.name,
                sp.instance,
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("\n]\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_count_the_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), (50.0, 50));
        assert_eq!(percentile(&v, 90.0), (90.0, 10));
        assert_eq!(percentile(&[7.0], 90.0), (7.0, 0));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = t.totals();
        let (outer_total, outer_self, _) = totals["outer"];
        let (inner_total, _, _) = totals["inner"];
        assert!(outer_total >= inner_total);
        assert!((outer_total - outer_self - inner_total).abs() < 1e-6);
    }
}
