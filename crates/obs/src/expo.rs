//! Prometheus-style text exposition: a renderer over
//! [`MetricsRegistry`] and the matching well-formedness checker.
//!
//! The output follows the text format conventions: one `# HELP` and
//! `# TYPE` line per metric family, then one sample line per series.
//! Histograms render as **summaries** — `{quantile="…"}` rows plus
//! `_sum` and `_count` — rather than exploding their (deliberately
//! fine) bin grid into per-bucket rows.
//!
//! [`validate`] re-parses an exposition page and reports the first
//! malformation. The `bst-server metrics` CLI runs it before printing
//! and the CI smoke job relies on that exit code, so a renderer
//! regression can never ship a page a scraper would reject.

use crate::metrics::{MetricsRegistry, Observation, Sample};

/// Escapes a label value per the text format (`\`, `"`, newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes help text (`\` and newline; quotes are legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders `name{k1="v1",…}` — or just `name` without labels — with an
/// optional extra label appended (the summary `quantile`).
fn series(name: &str, labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(&v)));
    }
    if pairs.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{}}}", pairs.join(","))
    }
}

fn type_of(value: &Observation) -> &'static str {
    match value {
        Observation::Counter(_) => "counter",
        Observation::Gauge(_) => "gauge",
        Observation::Summary { .. } => "summary",
    }
}

fn render_sample(out: &mut String, s: &Sample) {
    match &s.value {
        Observation::Counter(v) => {
            out.push_str(&format!("{} {v}\n", series(&s.family, &s.labels, None)));
        }
        Observation::Gauge(v) => {
            out.push_str(&format!(
                "{} {}\n",
                series(&s.family, &s.labels, None),
                fmt_value(*v)
            ));
        }
        Observation::Summary {
            quantiles,
            sum,
            count,
        } => {
            for (q, v) in quantiles {
                out.push_str(&format!(
                    "{} {}\n",
                    series(&s.family, &s.labels, Some(("quantile", format!("{q}")))),
                    fmt_value(*v)
                ));
            }
            out.push_str(&format!(
                "{} {}\n",
                series(&format!("{}_sum", s.family), &s.labels, None),
                fmt_value(*sum)
            ));
            out.push_str(&format!(
                "{} {count}\n",
                series(&format!("{}_count", s.family), &s.labels, None)
            ));
        }
    }
}

/// Serialises the registry's current values as a Prometheus text page.
/// Series are grouped by family in first-registration order; each
/// family gets one `# HELP`/`# TYPE` header (the first registration's
/// help and kind win).
pub fn render(registry: &MetricsRegistry) -> String {
    let samples = registry.collect();
    let mut families: Vec<String> = Vec::new();
    for s in &samples {
        if !families.contains(&s.family) {
            families.push(s.family.clone());
        }
    }
    let mut out = String::new();
    for family in &families {
        let mut first = true;
        for s in samples.iter().filter(|s| &s.family == family) {
            if first {
                out.push_str(&format!("# HELP {family} {}\n", escape_help(&s.help)));
                out.push_str(&format!("# TYPE {family} {}\n", type_of(&s.value)));
                first = false;
            }
            render_sample(&mut out, s);
        }
    }
    out
}

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits a label body `k1="v1",k2="v2"` respecting quotes/escapes;
/// returns `Err` on malformation.
fn check_labels(body: &str, line_no: usize) -> Result<(), String> {
    let mut rest = body;
    loop {
        let Some(eq) = rest.find('=') else {
            return Err(format!("line {line_no}: label pair without `=`"));
        };
        let key = &rest[..eq];
        if !is_name(key) {
            return Err(format!("line {line_no}: bad label name `{key}`"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("line {line_no}: label value must be quoted"));
        }
        // Walk the quoted value, honouring backslash escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in after.char_indices().skip(1) {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let Some(end) = end else {
            return Err(format!("line {line_no}: unterminated label value"));
        };
        rest = &after[end + 1..];
        if rest.is_empty() {
            return Ok(());
        }
        let Some(stripped) = rest.strip_prefix(',') else {
            return Err(format!("line {line_no}: expected `,` between labels"));
        };
        rest = stripped;
    }
}

/// Checks that `text` is a well-formed exposition page: every sample
/// line parses (`name{labels} value` with a numeric value), every
/// sample belongs to a family announced by a preceding `# TYPE` line,
/// and at least one sample is present. Returns the number of sample
/// lines on success, the first malformation on failure.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut declared: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix("# TYPE ") {
            let mut parts = meta.split_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                return Err(format!("line {line_no}: malformed TYPE line"));
            };
            if !is_name(name) {
                return Err(format!("line {line_no}: bad family name `{name}`"));
            }
            if !["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind) {
                return Err(format!("line {line_no}: unknown metric type `{kind}`"));
            }
            declared.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP lines and free comments
        }
        // Sample line: name[{labels}] value
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if !is_name(name) {
            return Err(format!("line {line_no}: bad series name `{name}`"));
        }
        let mut rest = &line[name_end..];
        if let Some(body_start) = rest.strip_prefix('{') {
            let Some(close) = body_start.find('}') else {
                return Err(format!("line {line_no}: unterminated label set"));
            };
            // A `}` inside a quoted value would split early; values we
            // emit never contain one, and a scraper rejects that page
            // too, so the simple scan errs on the strict side.
            let body = &body_start[..close];
            if !body.is_empty() {
                check_labels(body, line_no)?;
            }
            rest = &body_start[close + 1..];
        }
        let value = rest.trim();
        if value.is_empty() || value.split_whitespace().count() > 1 {
            return Err(format!("line {line_no}: expected exactly one value"));
        }
        if value.parse::<f64>().is_err() {
            return Err(format!("line {line_no}: non-numeric value `{value}`"));
        }
        let known = declared
            .iter()
            .any(|f| name == f || name == format!("{f}_sum") || name == format!("{f}_count"));
        if !known {
            return Err(format!(
                "line {line_no}: series `{name}` has no preceding # TYPE"
            ));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no sample lines".to_string());
    }
    Ok(samples)
}

/// The value of series `family{labels}` on an exposition page, or
/// `None` when no such line exists. `labels` must list the pairs in
/// rendered order; for a summary, `family_count`/`family_sum` name the
/// count and sum rows and a trailing `("quantile", "0.5")` pair picks a
/// quantile row.
pub fn scrape(page: &str, family: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let owned: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let want = series(family, &owned, None);
    page.lines().find_map(|line| {
        let (name, value) = line.rsplit_once(' ')?;
        (name == want).then(|| value.parse().ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        let c = reg.counter("bst_demo_ops_total", "ops served", &[]);
        c.add(7);
        let g = reg.gauge("bst_demo_live", "live things", &[("kind", "conn")]);
        g.set(3);
        let h = reg.histogram("bst_demo_lat_us", "latency", &[("op", "sample")]);
        for v in [10.0, 20.0, 30.0] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn renders_and_validates_roundtrip() {
        let reg = demo_registry();
        let text = render(&reg);
        assert!(text.contains("# HELP bst_demo_ops_total ops served\n"));
        assert!(text.contains("# TYPE bst_demo_ops_total counter\n"));
        assert!(text.contains("bst_demo_ops_total 7\n"));
        assert!(text.contains("bst_demo_live{kind=\"conn\"} 3\n"));
        assert!(text.contains("# TYPE bst_demo_lat_us summary\n"));
        assert!(text.contains("bst_demo_lat_us{op=\"sample\",quantile=\"0.5\"}"));
        assert!(text.contains("bst_demo_lat_us_sum{op=\"sample\"} 60\n"));
        assert!(text.contains("bst_demo_lat_us_count{op=\"sample\"} 3\n"));
        let samples = validate(&text).expect("page validates");
        // 1 counter + 1 gauge + (3 quantiles + sum + count)
        assert_eq!(samples, 7);
    }

    #[test]
    fn scrape_reads_back_rendered_values() {
        let text = render(&demo_registry());
        let op = [("op", "sample")];
        assert_eq!(scrape(&text, "bst_demo_ops_total", &[]), Some(7.0));
        assert_eq!(
            scrape(&text, "bst_demo_live", &[("kind", "conn")]),
            Some(3.0)
        );
        assert_eq!(scrape(&text, "bst_demo_lat_us_count", &op), Some(3.0));
        assert_eq!(scrape(&text, "bst_demo_lat_us_sum", &op), Some(60.0));
        let p50 = scrape(&text, "bst_demo_lat_us", &[op[0], ("quantile", "0.5")]);
        assert!((p50.expect("p50 row") - 20.0).abs() <= 1.0);
        assert_eq!(
            scrape(&text, "bst_demo_live", &[]),
            None,
            "labels must match"
        );
        assert_eq!(scrape(&text, "bst_demo_missing", &[]), None);
    }

    #[test]
    fn labeled_variants_share_one_header() {
        let reg = MetricsRegistry::new();
        reg.counter("bst_demo_x_total", "x", &[("op", "a")]).inc();
        reg.counter("bst_demo_x_total", "x", &[("op", "b")]).inc();
        let text = render(&reg);
        assert_eq!(text.matches("# TYPE bst_demo_x_total").count(), 1);
        assert_eq!(text.matches("# HELP bst_demo_x_total").count(), 1);
        assert!(text.contains("bst_demo_x_total{op=\"a\"} 1\n"));
        assert!(text.contains("bst_demo_x_total{op=\"b\"} 1\n"));
        assert_eq!(validate(&text), Ok(2));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.gauge("bst_demo_g", "g", &[("path", "a\\b\"c\nd")])
            .set(1);
        let text = render(&reg);
        assert!(text.contains("path=\"a\\\\b\\\"c\\nd\""));
        assert_eq!(validate(&text), Ok(1));
        assert_eq!(
            scrape(&text, "bst_demo_g", &[("path", "a\\b\"c\nd")]),
            Some(1.0)
        );
    }

    #[test]
    fn nan_quantiles_still_validate() {
        let reg = MetricsRegistry::new();
        reg.histogram("bst_demo_h", "h", &[]); // empty: quantiles are NaN
        let text = render(&reg);
        assert!(text.contains("NaN"));
        assert!(validate(&text).is_ok());
    }

    #[test]
    fn validate_rejects_malformations() {
        assert!(validate("").is_err(), "empty page has no samples");
        assert!(validate("# TYPE a counter\n").is_err(), "no samples");
        assert!(validate("a 1\n").is_err(), "sample without TYPE");
        assert!(validate("# TYPE a counter\na one\n").is_err(), "bad value");
        assert!(validate("# TYPE a counter\na 1 2\n").is_err(), "two values");
        assert!(
            validate("# TYPE a wat\na 1\n").is_err(),
            "unknown metric type"
        );
        assert!(
            validate("# TYPE a counter\na{k=1} 1\n").is_err(),
            "unquoted label value"
        );
        assert!(
            validate("# TYPE a counter\na{k=\"v\" 1\n").is_err(),
            "unterminated labels"
        );
        assert!(
            validate("# TYPE a counter\n9bad 1\n").is_err(),
            "bad series name"
        );
    }

    #[test]
    fn validate_accepts_sum_count_of_declared_summary() {
        let page = "# TYPE s summary\ns{quantile=\"0.5\"} 1.5\ns_sum 3\ns_count 2\n";
        assert_eq!(validate(page), Ok(3));
    }
}
