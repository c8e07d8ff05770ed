//! Prometheus-style text exposition of the metric registry.
//!
//! [`render`] turns a [`crate::metrics::snapshot`] into the classic
//! text-based exposition format (`# TYPE` comments, cumulative
//! `_bucket{le="..."}` series, `_sum`/`_count`), and [`parse`] reads it
//! back for the round-trip and live-scrape tests — the shim `serde_json`
//! is serialize-only, so the parser is hand-rolled like [`crate::json`].
//! CI checks the `SEQREC_OBS=expo=` dump of its smoke run in Python.
//!
//! Naming: registry names are dotted (`serve.latency_us`); exposition
//! names replace `.` with `_` and gain a `seqrec_` prefix
//! (`seqrec_serve_latency_us`). Rolling-window instruments keep their
//! `.window` suffix (`seqrec_serve_latency_us_window_bucket{...}`) and
//! carry the window length in a `seqrec_obs_window_us` gauge so scrapers
//! know what span the quantiles cover.
//!
//! Histogram `_bucket` series are **cumulative** (each `le` bucket counts
//! every sample at or below the bound, `+Inf` counts everything), exactly
//! like Prometheus — even though the in-memory registry stores disjoint
//! per-bucket counts.

use crate::metrics::{MetricReading, MetricValue};

/// Prefix for every exposed series.
const PREFIX: &str = "seqrec_";

fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(PREFIX.len() + name.len());
    out.push_str(PREFIX);
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

fn push_hist(
    out: &mut String,
    name: &str,
    bounds: &[u64],
    counts: &[u64],
    overflow: u64,
    sum: u64,
) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cum = 0u64;
    for (b, c) in bounds.iter().zip(counts) {
        cum += c;
        out.push_str(&format!("{name}_bucket{{le=\"{b}\"}} {cum}\n"));
    }
    // The +Inf bucket (and _count) is the computed cumulative total, not a
    // separately-read atomic, so one scrape is always self-consistent.
    cum += overflow;
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
    out.push_str(&format!("{name}_sum {sum}\n"));
    out.push_str(&format!("{name}_count {cum}\n"));
}

/// Renders `readings` in the Prometheus text exposition format.
pub fn render(readings: &[MetricReading]) -> String {
    let mut out = String::with_capacity(4096);
    let mut window_us: Option<u64> = None;
    for r in readings {
        let name = sanitize(r.name);
        match &r.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
            MetricValue::Gauge { current, peak } => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {current}\n"));
                out.push_str(&format!("# TYPE {name}_peak gauge\n{name}_peak {peak}\n"));
            }
            MetricValue::Histogram { bounds, counts, overflow, sum, .. } => {
                push_hist(&mut out, &name, bounds, counts, *overflow, *sum);
            }
            MetricValue::Window { window_us: w, bounds, counts, overflow, sum, .. } => {
                window_us = Some(*w);
                push_hist(&mut out, &name, bounds, counts, *overflow, *sum);
            }
            MetricValue::WindowCount { window_us: w, value } => {
                window_us = Some(*w);
                out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
            }
        }
    }
    if let Some(w) = window_us {
        out.push_str(&format!("# TYPE seqrec_obs_window_us gauge\nseqrec_obs_window_us {w}\n"));
    }
    out
}

/// Renders the current registry ([`crate::metrics::snapshot`]).
pub fn render_current() -> String {
    render(&crate::metrics::snapshot())
}

// --- parser ------------------------------------------------------------------

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Series name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in source order (empty when the series has no labels).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition: type declarations plus every sample.
#[derive(Debug, Default)]
pub struct Exposition {
    /// `# TYPE <name> <kind>` declarations in source order.
    pub types: Vec<(String, String)>,
    /// Every sample line in source order.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// The declared type of a metric family, if any.
    pub fn type_of(&self, family: &str) -> Option<&str> {
        self.types.iter().find(|(n, _)| n == family).map(|(_, k)| k.as_str())
    }

    /// The single unlabelled sample named `name`, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples.iter().find(|s| s.name == name && s.labels.is_empty()).map(|s| s.value)
    }

    /// The cumulative bucket samples of histogram `family`, as
    /// `(le-label, value)` pairs in source order (`+Inf` last).
    pub fn buckets(&self, family: &str) -> Vec<(String, f64)> {
        let series = format!("{family}_bucket");
        self.samples
            .iter()
            .filter(|s| s.name == series)
            .filter_map(|s| s.label("le").map(|le| (le.to_string(), s.value)))
            .collect()
    }

    /// Checks structural invariants of every declared histogram: buckets
    /// present, cumulative (non-decreasing), ending in `+Inf`, and
    /// `_count` equal to the `+Inf` bucket. Returns a description of the
    /// first violation.
    pub fn validate_histograms(&self) -> Result<(), String> {
        for (family, kind) in &self.types {
            if kind != "histogram" {
                continue;
            }
            let buckets = self.buckets(family);
            if buckets.is_empty() {
                return Err(format!("histogram {family} has no _bucket samples"));
            }
            let mut prev = f64::NEG_INFINITY;
            let mut prev_bound = f64::NEG_INFINITY;
            for (le, v) in &buckets {
                if *v < prev {
                    return Err(format!("histogram {family} buckets not cumulative at le={le}"));
                }
                let bound =
                    if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(f64::NAN) };
                if bound.is_nan() || bound <= prev_bound {
                    return Err(format!(
                        "histogram {family} bucket bounds not ascending at le={le}"
                    ));
                }
                prev = *v;
                prev_bound = bound;
            }
            let (last_le, last_v) = buckets.last().expect("non-empty");
            if last_le != "+Inf" {
                return Err(format!("histogram {family} does not end in a +Inf bucket"));
            }
            match self.value(&format!("{family}_count")) {
                Some(count) if count == *last_v => {}
                Some(count) => {
                    return Err(format!(
                        "histogram {family}: _count {count} != +Inf bucket {last_v}"
                    ));
                }
                None => return Err(format!("histogram {family} has no _count sample")),
            }
            if self.value(&format!("{family}_sum")).is_none() {
                return Err(format!("histogram {family} has no _sum sample"));
            }
        }
        Ok(())
    }
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(|| format!("label without `=` in {{{s}}}"))?;
        let key = rest[..eq].trim().to_string();
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("unquoted label value in {{{s}}}"));
        }
        // Label values here never contain escaped quotes (they are numeric
        // bounds or +Inf), so scanning for the closing quote is enough.
        let close = rest[1..].find('"').ok_or_else(|| format!("unterminated label in {{{s}}}"))?;
        let value = rest[1..1 + close].to_string();
        labels.push((key, value));
        rest = rest[2 + close..].trim_start_matches(',');
    }
    Ok(labels)
}

/// Parses text in the Prometheus exposition format. Unknown comment lines
/// (`# HELP`, …) are skipped; malformed sample lines are errors.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut out = Exposition::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let name =
                    parts.next().ok_or(format!("line {}: # TYPE without name", lineno + 1))?;
                let kind =
                    parts.next().ok_or(format!("line {}: # TYPE without kind", lineno + 1))?;
                out.types.push((name.to_string(), kind.to_string()));
            }
            continue;
        }
        // `name{labels} value` or `name value`.
        let (series, value_str) = if let Some(open) = line.find('{') {
            let close =
                line.rfind('}').ok_or(format!("line {}: unterminated labels", lineno + 1))?;
            if close < open {
                return Err(format!("line {}: `}}` before `{{`", lineno + 1));
            }
            let labels = parse_labels(&line[open + 1..close])
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            (
                Sample { name: line[..open].trim().to_string(), labels, value: 0.0 },
                line[close + 1..].trim(),
            )
        } else {
            let (name, v) = line
                .split_once(char::is_whitespace)
                .ok_or(format!("line {}: sample without value: {line}", lineno + 1))?;
            (Sample { name: name.to_string(), labels: Vec::new(), value: 0.0 }, v.trim())
        };
        let value: f64 = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v.parse().map_err(|_| format!("line {}: bad value `{v}`", lineno + 1))?,
        };
        out.samples.push(Sample { value, ..series });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValue;

    fn reading(name: &'static str, value: MetricValue) -> MetricReading {
        MetricReading { name, value }
    }

    #[test]
    fn counter_and_gauge_round_trip() {
        let text = render(&[
            reading("serve.requests", MetricValue::Counter(42)),
            reading("serve.queue", MetricValue::Gauge { current: 3, peak: 17 }),
        ]);
        let exp = parse(&text).unwrap();
        assert_eq!(exp.type_of("seqrec_serve_requests"), Some("counter"));
        assert_eq!(exp.value("seqrec_serve_requests"), Some(42.0));
        assert_eq!(exp.type_of("seqrec_serve_queue"), Some("gauge"));
        assert_eq!(exp.value("seqrec_serve_queue"), Some(3.0));
        assert_eq!(exp.value("seqrec_serve_queue_peak"), Some(17.0));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_validated() {
        static BOUNDS: &[u64] = &[10, 100, 1_000];
        let text = render(&[reading(
            "serve.latency_us",
            MetricValue::Histogram {
                bounds: BOUNDS,
                counts: vec![5, 3, 0],
                overflow: 2,
                total: 10,
                sum: 1234,
            },
        )]);
        let exp = parse(&text).unwrap();
        exp.validate_histograms().unwrap();
        let buckets = exp.buckets("seqrec_serve_latency_us");
        assert_eq!(
            buckets,
            vec![
                ("10".to_string(), 5.0),
                ("100".to_string(), 8.0),
                ("1000".to_string(), 8.0),
                ("+Inf".to_string(), 10.0),
            ]
        );
        assert_eq!(exp.value("seqrec_serve_latency_us_count"), Some(10.0));
        assert_eq!(exp.value("seqrec_serve_latency_us_sum"), Some(1234.0));
    }

    #[test]
    fn window_metrics_expose_the_window_length() {
        static BOUNDS: &[u64] = &[50];
        let text = render(&[
            reading(
                "serve.latency_us.window",
                MetricValue::Window {
                    window_us: 10_000_000,
                    bounds: BOUNDS,
                    counts: vec![1],
                    overflow: 0,
                    total: 1,
                    sum: 40,
                },
            ),
            reading(
                "serve.cache.hits.window",
                MetricValue::WindowCount { window_us: 10_000_000, value: 9 },
            ),
        ]);
        let exp = parse(&text).unwrap();
        exp.validate_histograms().unwrap();
        assert_eq!(exp.type_of("seqrec_serve_latency_us_window"), Some("histogram"));
        assert_eq!(exp.value("seqrec_serve_cache_hits_window"), Some(9.0));
        assert_eq!(exp.value("seqrec_obs_window_us"), Some(10_000_000.0));
    }

    #[test]
    fn full_registry_renders_and_parses() {
        let text = render_current();
        let exp = parse(&text).unwrap();
        exp.validate_histograms().unwrap();
        assert!(exp.value("seqrec_serve_requests").is_some());
        assert!(exp.type_of("seqrec_serve_latency_us").is_some());
        // Every series the Grafana dashboard names is a sample or a `# TYPE`
        // family of the registry, so no panel queries a series that is gone.
        let dashboard = include_str!("../../../scripts/obs/grafana-dashboard.json");
        let mut names = 0;
        for (at, _) in dashboard.match_indices("seqrec_") {
            let name: String = dashboard[at..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let known = exp.samples.iter().any(|s| s.name == name) || exp.type_of(&name).is_some();
            assert!(known, "the Grafana dashboard names `{name}`, which the registry lacks");
            names += 1;
        }
        assert!(names > 0, "no seqrec_ series in the dashboard");
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        assert!(parse("seqrec_x").is_err());
        assert!(parse("seqrec_x{le=\"10\" 5").is_err());
        assert!(parse("seqrec_x notanumber").is_err());
        // Unknown comments are fine.
        assert!(parse("# HELP seqrec_x whatever\n").is_ok());
    }

    #[test]
    fn validator_catches_noncumulative_buckets() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"10\"} 5\n\
                    h_bucket{le=\"100\"} 3\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 1\nh_count 5\n";
        let exp = parse(text).unwrap();
        assert!(exp.validate_histograms().is_err());
    }
}
