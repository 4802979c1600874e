//! Dimensional metrics: a small, bounded label set layered on the flat
//! registry.
//!
//! A [`Labels`] value carries at most one value for each of the six
//! supported label keys — `design`, `engine`, `job`, `phase`,
//! `provenance`, `worker` — so series cardinality stays bounded by
//! construction: there
//! is no free-form key API. Labeled series are stored in the same
//! registry as unlabeled ones, under a canonical encoded name of the
//! Prometheus form `name{key="value",...}` with keys sorted; everything
//! built on the registry (snapshots, the wire protocol, manifests, the
//! table renderer) therefore handles labeled series without change.
//!
//! Like every probe entry point, the labeled mutators are gated on the
//! recorder's enabled flag: one relaxed atomic load is the entire cost
//! when disabled — no label rendering, no allocation.

use crate::record::enabled;

/// The fixed label keys, in canonical (sorted) order.
const LABEL_KEYS: [&str; 6] = ["design", "engine", "job", "phase", "provenance", "worker"];

/// A bounded set of label key/value pairs for dimensional metrics.
///
/// Built with chained setters; setting the same key twice keeps the last
/// value. The encoded form is canonical (keys sorted), so two `Labels`
/// with the same pairs always address the same series.
///
/// ```
/// use strober_probe::Labels;
/// let l = Labels::new().job(7).design("rok-tiny").worker("1");
/// assert_eq!(l.render(), r#"{design="rok-tiny",job="7",worker="1"}"#);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Labels {
    /// Values for [`LABEL_KEYS`], index-aligned; `None` = unset.
    values: [Option<String>; 6],
}

impl Labels {
    /// An empty label set.
    #[must_use]
    pub fn new() -> Labels {
        Labels::default()
    }

    fn set(mut self, key: &str, value: String) -> Labels {
        let idx = LABEL_KEYS
            .iter()
            .position(|&k| k == key)
            .expect("label key is one of the fixed set");
        self.values[idx] = Some(value);
        self
    }

    /// Sets the `design` label (the design under estimation).
    #[must_use]
    pub fn design(self, design: &str) -> Labels {
        self.set("design", design.to_owned())
    }

    /// Sets the `engine` label (the hub settle engine: `tape` or
    /// `tape-jit`).
    #[must_use]
    pub fn engine(self, engine: &str) -> Labels {
        self.set("engine", engine.to_owned())
    }

    /// Sets the `job` label (a server job id).
    #[must_use]
    pub fn job(self, job: u64) -> Labels {
        self.set("job", job.to_string())
    }

    /// Sets the `phase` label (e.g. `sim`, `replay`).
    #[must_use]
    pub fn phase(self, phase: &str) -> Labels {
        self.set("phase", phase.to_owned())
    }

    /// Sets the `provenance` label (`warm`, `store` or `cold`).
    #[must_use]
    pub fn provenance(self, provenance: &str) -> Labels {
        self.set("provenance", provenance.to_owned())
    }

    /// Sets the `worker` label (a server worker index).
    #[must_use]
    pub fn worker(self, worker: &str) -> Labels {
        self.set("worker", worker.to_owned())
    }

    /// Whether no labels are set.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(Option::is_none)
    }

    /// The set pairs in canonical key order.
    pub fn pairs(&self) -> Vec<(&'static str, &str)> {
        LABEL_KEYS
            .iter()
            .zip(&self.values)
            .filter_map(|(&k, v)| v.as_deref().map(|v| (k, v)))
            .collect()
    }

    /// The canonical `{key="value",...}` encoding (empty string when no
    /// labels are set). Values are escaped Prometheus-style (`\\`, `\"`,
    /// `\n`).
    #[must_use]
    pub fn render(&self) -> String {
        let pairs = self.pairs();
        if pairs.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        out.push('}');
        out
    }

    /// The full registry key for a metric `name` under these labels.
    #[must_use]
    pub fn decorate(&self, name: &str) -> String {
        let mut out = String::with_capacity(name.len() + 16);
        out.push_str(name);
        out.push_str(&self.render());
        out
    }
}

/// Escapes a label value for the `k="v"` encoding.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Splits an encoded series name into its base name and label pairs.
///
/// Unlabeled names come back with an empty pair list. The inverse of
/// [`Labels::decorate`] for names produced by this crate; foreign names
/// with malformed label blocks are returned whole with no pairs.
#[must_use]
pub fn parse_series(name: &str) -> (&str, Vec<(String, String)>) {
    let Some(open) = name.find('{') else {
        return (name, Vec::new());
    };
    if !name.ends_with('}') {
        return (name, Vec::new());
    }
    let base = &name[..open];
    let body = &name[open + 1..name.len() - 1];
    let mut pairs = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let Some(eq) = rest.find("=\"") else {
            return (name, Vec::new());
        };
        let key = &rest[..eq];
        let mut value = String::new();
        let mut chars = rest[eq + 2..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return (name, Vec::new()),
                },
                '"' => {
                    end = Some(eq + 2 + i);
                    break;
                }
                other => value.push(other),
            }
        }
        let Some(end) = end else {
            return (name, Vec::new());
        };
        pairs.push((key.to_owned(), value));
        rest = &rest[end + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return (name, Vec::new());
        }
    }
    (base, pairs)
}

/// Adds `delta` to a labeled counter ([`crate::counter_add`] with a
/// dimensional series key).
#[inline]
pub fn counter_add_labeled(name: &str, labels: &Labels, delta: u64) {
    if !enabled() {
        return;
    }
    crate::metrics::counter_add(&labels.decorate(name), delta);
}

/// Sets a labeled gauge ([`crate::gauge_set`] with a dimensional series
/// key).
#[inline]
pub fn gauge_set_labeled(name: &str, labels: &Labels, value: f64) {
    if !enabled() {
        return;
    }
    crate::metrics::gauge_set(&labels.decorate(name), value);
}

/// Records into a labeled histogram ([`crate::histogram_record`] with a
/// dimensional series key).
#[inline]
pub fn histogram_record_labeled(name: &str, labels: &Labels, value: f64) {
    if !enabled() {
        return;
    }
    crate::metrics::histogram_record(&labels.decorate(name), value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::testutil;
    use crate::{disable, enable, reset, snapshot};

    #[test]
    fn labels_render_sorted_and_canonical() {
        let a = Labels::new()
            .worker("2")
            .job(9)
            .engine("tape-jit")
            .design("rok");
        let b = Labels::new()
            .design("rok")
            .engine("tape-jit")
            .job(9)
            .worker("2");
        assert_eq!(
            a.render(),
            r#"{design="rok",engine="tape-jit",job="9",worker="2"}"#
        );
        assert_eq!(a, b);
        assert!(Labels::new().is_empty());
        assert_eq!(Labels::new().render(), "");
        assert_eq!(Labels::new().decorate("x"), "x");
    }

    #[test]
    fn label_values_escape_and_parse_back() {
        let l = Labels::new().design("a\"b\\c\nd");
        let key = l.decorate("strober.test.series");
        let (base, pairs) = parse_series(&key);
        assert_eq!(base, "strober.test.series");
        assert_eq!(pairs, vec![("design".to_owned(), "a\"b\\c\nd".to_owned())]);
    }

    #[test]
    fn parse_series_handles_plain_and_malformed_names() {
        assert_eq!(parse_series("plain"), ("plain", Vec::new()));
        let (base, pairs) = parse_series(r#"n{a="1",b="2"}"#);
        assert_eq!(base, "n");
        assert_eq!(
            pairs,
            vec![
                ("a".to_owned(), "1".to_owned()),
                ("b".to_owned(), "2".to_owned())
            ]
        );
        // Malformed blocks come back whole, unparsed.
        assert_eq!(parse_series("n{a=1}").1, Vec::new());
        assert_eq!(parse_series("n{a=\"1\"").1, Vec::new());
    }

    #[test]
    fn labeled_series_land_in_the_registry() {
        let _guard = testutil::exclusive();
        reset();
        enable();
        let l = Labels::new().job(3).phase("sim");
        counter_add_labeled("strober.test.labeled", &l, 2);
        counter_add_labeled("strober.test.labeled", &l, 1);
        gauge_set_labeled("strober.test.rate", &l, 4.5);
        histogram_record_labeled("strober.test.lat", &l, 7.0);
        let snap = snapshot();
        disable();
        assert_eq!(
            snap.counter(r#"strober.test.labeled{job="3",phase="sim"}"#),
            Some(3)
        );
        assert_eq!(
            snap.gauge(r#"strober.test.rate{job="3",phase="sim"}"#),
            Some(4.5)
        );
        assert!(snap
            .histogram(r#"strober.test.lat{job="3",phase="sim"}"#)
            .is_some());
    }

    #[test]
    fn disabled_labeled_calls_do_not_register() {
        let _guard = testutil::exclusive();
        reset();
        disable();
        let l = Labels::new().job(1);
        counter_add_labeled("strober.test.off", &l, 1);
        gauge_set_labeled("strober.test.off_g", &l, 1.0);
        histogram_record_labeled("strober.test.off_h", &l, 1.0);
        assert!(snapshot().is_empty());
    }
}
