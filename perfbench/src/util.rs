//! Small helpers: percentiles, process memory, METRICS page scraping, a
//! FIFO handle cache, and the in-memory span recorder of the traced run.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The `q`-quantile of ascending `sorted`, interpolating linearly between
/// order statistics (numpy's default).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Fewest samples a chunk may hold for its p50, and for its p99 (which
/// then rests on at least ten samples beyond it).
pub const P50_CHUNK: usize = 500;
pub const P99_CHUNK: usize = 1000;

/// The `q`-quantile of `samples` (in arrival order), robust to noisy
/// stretches of the run: the samples are cut into as many equal
/// consecutive chunks of at least `chunk` samples as they fill, the
/// quantile is taken per chunk, and the median over chunks is reported.
pub fn chunked_quantile(samples: &[f32], q: f64, chunk: usize) -> f64 {
    let chunks = (samples.len() / chunk).max(1);
    let per = samples.len() / chunks;
    let per_chunk: Vec<f64> = (0..chunks)
        .map(|c| {
            let end = if c + 1 == chunks {
                samples.len()
            } else {
                (c + 1) * per
            };
            let mut v: Vec<f64> = samples[c * per..end].iter().map(|&x| x as f64).collect();
            v.sort_by(f64::total_cmp);
            quantile(&v, q)
        })
        .collect();
    median(&per_chunk)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The value of series `family{labels}` on a Prometheus text page;
/// `labels` is the exact rendered label body (`op="sample",quantile="0.5"`)
/// or empty for an unlabelled series.
pub fn scrape(page: &str, family: &str, labels: &str) -> Option<f64> {
    let want = if labels.is_empty() {
        family.to_string()
    } else {
        format!("{family}{{{labels}}}")
    };
    page.lines().find_map(|line| {
        let (series, value) = line.rsplit_once(' ')?;
        (series == want).then(|| value.parse().ok())?
    })
}

/// A bounded FIFO cache (first-opened entry evicted first), the
/// discipline the server's per-connection session applies to handles.
pub struct Fifo<K, V> {
    cap: usize,
    entries: VecDeque<(K, V)>,
}

impl<K: PartialEq, V> Fifo<K, V> {
    pub fn new(cap: usize) -> Self {
        Fifo {
            cap,
            entries: VecDeque::new(),
        }
    }

    /// The cached value, or `open()`'s, cached with FIFO eviction.
    pub fn get_or_open<E>(&mut self, key: K, open: impl FnOnce() -> Result<V, E>) -> Result<&V, E> {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            return Ok(&self.entries[pos].1);
        }
        let v = open()?;
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back((key, v));
        Ok(&self.entries.back().expect("just pushed").1)
    }

    pub fn evict(&mut self, key: &K) {
        self.entries.retain(|(k, _)| k != key);
    }
}

/// One recorded span: a named interval of benchmark code around a call
/// into one layer's public function.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the parent span; 0 for a root.
    pub parent: usize,
    pub request: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1000.0
    }
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns the id to pass to [`Self::end`] and to
    /// children as their `parent`.
    pub fn begin(&mut self, name: &'static str, parent: usize, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len()
    }

    /// Closes span `id`; returns its duration in µs.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id - 1];
        span.end_ns = now;
        span.us()
    }

    /// Runs `f` inside a span; returns its result and duration in µs.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, request);
        let out = f();
        let us = self.end(id);
        (out, us)
    }

    /// Median self time (duration minus the time its children cover) per
    /// span name, with the number of spans of that name.
    pub fn self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let selfs: Vec<f64> = self
                    .spans
                    .iter()
                    .zip(&child_ns)
                    .filter(|(s, _)| s.name == name)
                    .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1000.0)
                    .collect();
                (name, median(&selfs), selfs.len())
            })
            .collect()
    }

    /// Writes every span as a tab-separated line:
    /// `id parent request name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// JSON string literal.
pub fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number (non-finite values become `null`).
pub fn jn(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}
