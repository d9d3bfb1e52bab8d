//! A minimal, offline, in-tree stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this shim
//! implements the subset of criterion's API the workspace's benches
//! use — [`Criterion::bench_function`], benchmark groups with
//! `sample_size`/`throughput`/`bench_with_input`, [`BenchmarkId`],
//! [`Throughput`], and the [`criterion_group!`]/[`criterion_main!`]
//! macros — with plain wall-clock timing and stdout reporting instead
//! of criterion's statistical machinery.

use std::time::{Duration, Instant};

/// One completed benchmark measurement, recorded for machine-readable
/// output ([`Criterion::save_json`]).
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Full label (`group/function`).
    pub label: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Elements processed per iteration, when declared via
    /// [`Throughput::Elements`].
    pub elements_per_iter: Option<u64>,
    /// Bytes processed per iteration, when declared via
    /// [`Throughput::Bytes`].
    pub bytes_per_iter: Option<u64>,
    /// Free-form numeric annotations attached via
    /// [`BenchmarkGroup::annotate`] — serialized as extra JSON fields
    /// so benches can record context (worker utilization, effective
    /// parallelism) alongside the timing.
    pub extra: Vec<(String, f64)>,
}

impl Measurement {
    fn json(&self) -> String {
        // Labels come from bench source code; escape the two JSON
        // specials anyway.
        let label = self.label.replace('\\', "\\\\").replace('"', "\\\"");
        let mut s = format!(
            "{{\"label\": \"{label}\", \"ns_per_iter\": {:.3}",
            self.ns_per_iter
        );
        // A rate over no time at all (a difference of two timings can
        // come out as zero) has no JSON number: `null`.
        let rate = |n: u64| match n as f64 / (self.ns_per_iter * 1e-9) {
            r if r.is_finite() => format!("{r:.1}"),
            _ => "null".to_owned(),
        };
        if let Some(n) = self.elements_per_iter {
            s.push_str(&format!(
                ", \"elements_per_iter\": {n}, \"ns_per_element\": {:.3}, \"elements_per_sec\": {}",
                self.ns_per_iter / n as f64,
                rate(n)
            ));
        }
        if let Some(n) = self.bytes_per_iter {
            s.push_str(&format!(
                ", \"bytes_per_iter\": {n}, \"bytes_per_sec\": {}",
                rate(n)
            ));
        }
        for (key, value) in &self.extra {
            let key = key.replace('\\', "\\\\").replace('"', "\\\"");
            s.push_str(&format!(", \"{key}\": {value:.4}"));
        }
        s.push('}');
        s
    }
}

/// Throughput annotation for a benchmark group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier composed of a function name and a parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id rendered as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id from the parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

/// Passed to the closure given to `bench_function`; call [`Bencher::iter`].
pub struct Bencher {
    samples: usize,
    /// (total duration, total iterations) accumulated by `iter`.
    measured: Option<(Duration, u64)>,
}

impl Bencher {
    /// Times `routine`, running it enough times to smooth noise.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One untimed warm-up call.
        std::hint::black_box(routine());
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        for _ in 0..self.samples {
            let start = Instant::now();
            std::hint::black_box(routine());
            total += start.elapsed();
            iters += 1;
        }
        self.measured = Some((total, iters));
    }

    /// Lets `routine` do its own timing: it is asked to run `iters`
    /// iterations and returns the time to charge for them — for
    /// measurements that are a *difference* of two timed runs, or that
    /// must keep set-up out of the clock.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        // One untimed warm-up iteration.
        std::hint::black_box(routine(1));
        let iters = self.samples as u64;
        self.measured = Some((routine(iters), iters));
    }
}

fn report(
    label: &str,
    measured: Option<(Duration, u64)>,
    throughput: Option<Throughput>,
) -> Option<Measurement> {
    let Some((total, iters)) = measured else {
        println!("{label:<40} (no measurement)");
        return None;
    };
    let per_iter = total.as_secs_f64() / iters as f64;
    let rate = match throughput {
        Some(Throughput::Elements(n)) => format!("  {:.3e} elem/s", n as f64 / per_iter),
        Some(Throughput::Bytes(n)) => format!("  {:.3e} B/s", n as f64 / per_iter),
        None => String::new(),
    };
    println!(
        "{label:<40} {:>12.3?}/iter{rate}",
        Duration::from_secs_f64(per_iter)
    );
    Some(Measurement {
        label: label.to_owned(),
        ns_per_iter: per_iter * 1e9,
        elements_per_iter: match throughput {
            Some(Throughput::Elements(n)) => Some(n),
            _ => None,
        },
        bytes_per_iter: match throughput {
            Some(Throughput::Bytes(n)) => Some(n),
            _ => None,
        },
        extra: Vec::new(),
    })
}

/// A named group of benchmarks sharing sample-size and throughput
/// settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Declares per-iteration throughput for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<R: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkLabel,
        mut routine: R,
    ) -> &mut Self {
        let mut b = Bencher {
            samples: self.samples,
            measured: None,
        };
        routine(&mut b);
        let label = format!("{}/{}", self.name, id.into_label());
        if let Some(m) = report(&label, b.measured, self.throughput) {
            self.criterion.measurements.push(m);
        }
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I, R: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchmarkLabel,
        input: &I,
        mut routine: R,
    ) -> &mut Self {
        let mut b = Bencher {
            samples: self.samples,
            measured: None,
        };
        routine(&mut b, input);
        let label = format!("{}/{}", self.name, id.into_label());
        if let Some(m) = report(&label, b.measured, self.throughput) {
            self.criterion.measurements.push(m);
        }
        self
    }

    /// Attaches a numeric annotation to the most recently recorded
    /// measurement (a no-op if nothing has been recorded yet). The
    /// annotation is serialized as an extra JSON field on that
    /// measurement's row in [`Criterion::save_json`] output.
    pub fn annotate(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        if let Some(m) = self.criterion.measurements.last_mut() {
            m.extra.push((key.into(), value));
        }
        self
    }

    /// Ends the group (reporting happens eagerly; this is a no-op).
    pub fn finish(&mut self) {}
}

/// Conversion of the various id forms benches pass to `bench_function`.
pub trait IntoBenchmarkLabel {
    /// The rendered label.
    fn into_label(self) -> String;
}

impl IntoBenchmarkLabel for &str {
    fn into_label(self) -> String {
        self.to_owned()
    }
}

impl IntoBenchmarkLabel for String {
    fn into_label(self) -> String {
        self
    }
}

impl IntoBenchmarkLabel for BenchmarkId {
    fn into_label(self) -> String {
        self.name
    }
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {
    default_samples: usize,
    measurements: Vec<Measurement>,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let samples = self.samples();
        BenchmarkGroup {
            name: name.into(),
            samples,
            throughput: None,
            criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<R: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkLabel,
        mut routine: R,
    ) -> &mut Self {
        let mut b = Bencher {
            samples: self.samples(),
            measured: None,
        };
        routine(&mut b);
        if let Some(m) = report(&id.into_label(), b.measured, None) {
            self.measurements.push(m);
        }
        self
    }

    /// Every measurement recorded so far, in execution order.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Writes the recorded measurements as a JSON document — the
    /// machine-readable bench output CI archives as an artifact.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let entries: Vec<String> = self
            .measurements
            .iter()
            .map(|m| format!("    {}", m.json()))
            .collect();
        let doc = format!(
            "{{\n  \"benchmarks\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(path, doc)
    }

    fn samples(&self) -> usize {
        if self.default_samples == 0 {
            10
        } else {
            self.default_samples
        }
    }
}

/// Declares a group-runner function invoking each benchmark function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_are_recorded_and_serialized() {
        let mut c = Criterion::default();
        c.bench_function("plain", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("grp");
        g.sample_size(2)
            .throughput(Throughput::Elements(100))
            .bench_function("counted", |b| b.iter(|| 2 * 2));
        g.finish();
        assert_eq!(c.measurements().len(), 2);
        assert_eq!(c.measurements()[0].label, "plain");
        assert_eq!(c.measurements()[1].label, "grp/counted");
        assert_eq!(c.measurements()[1].elements_per_iter, Some(100));
        let path = std::env::temp_dir().join("hvft_criterion_shim_test.json");
        c.save_json(&path).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(doc.contains("\"label\": \"grp/counted\""));
        assert!(doc.contains("\"elements_per_iter\": 100"));
        assert!(doc.contains("\"ns_per_element\":"));
        assert!(doc.starts_with("{\n  \"benchmarks\": ["));
    }

    #[test]
    fn a_zero_difference_writes_a_null_rate() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("grp");
            g.throughput(Throughput::Elements(8))
                .bench_function("difference", |b| b.iter_custom(|_| Duration::ZERO));
        }
        let json = c.measurements()[0].json();
        assert!(json.contains("\"elements_per_sec\": null"), "{json}");
    }

    #[test]
    fn annotations_attach_to_the_last_measurement() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("grp");
            g.sample_size(2)
                .bench_function("annotated", |b| b.iter(|| 1 + 1));
            g.annotate("utilization", 0.75)
                .annotate("effective_workers", 4.0);
        }
        assert_eq!(
            c.measurements()[0].extra,
            vec![
                ("utilization".to_owned(), 0.75),
                ("effective_workers".to_owned(), 4.0)
            ]
        );
        let path = std::env::temp_dir().join("hvft_criterion_shim_annotate.json");
        c.save_json(&path).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(doc.contains("\"utilization\": 0.7500"));
        assert!(doc.contains("\"effective_workers\": 4.0000"));
    }

    #[test]
    fn bench_function_reports_without_panicking() {
        let mut c = Criterion::default();
        c.bench_function("smoke", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("grouped");
        g.sample_size(3)
            .throughput(Throughput::Elements(10))
            .bench_function(BenchmarkId::new("f", 42), |b| b.iter(|| 2 * 2));
        g.bench_with_input(BenchmarkId::from_parameter(7), &7u32, |b, &x| {
            b.iter(|| x * x)
        });
        g.finish();
    }
}
