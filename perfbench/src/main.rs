//! Closed-loop end-to-end benchmark of the PASCAL/R engine.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload olap_mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One client thread sends each request after the previous one completed.
//! Every workload is generated from `--seed`, every result is checked, and
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the per-layer
//! timings and counts, taken around the calls into each crate from this
//! benchmark's own code.  See `perfbench/README.md` for the workloads, the
//! metric definitions and the measured notes.

#![forbid(unsafe_code)]

mod adhoc;
mod check;
mod gauge;
mod ingest;
mod layers;
mod olap;
mod report;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// The workloads, by the names `BENCHMARK.json` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    OlapMix,
    AdhocText,
    IngestDurable,
}

impl Workload {
    pub(crate) const ALL: [Workload; 3] = [
        Workload::OlapMix,
        Workload::AdhocText,
        Workload::IngestDurable,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::OlapMix => "olap_mix",
            Workload::AdhocText => "adhoc_text",
            Workload::IngestDurable => "ingest_durable",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes and run length.  [`Config::full`] is what the command line runs;
/// the self-test uses [`Config::tiny`].
#[derive(Debug, Clone)]
pub(crate) struct Config {
    pub(crate) seed: u64,
    /// Minimum measured time of the main request loop.
    pub(crate) seconds: Duration,
    pub(crate) trace: bool,
    /// Scale of the generated database `olap_mix` queries.
    pub(crate) olap_scale: u32,
    /// Scale of the generated catalog `ingest_durable` loads; its `papers`
    /// are the inserted tuples.
    pub(crate) ingest_scale: u32,
    /// Inserts of the write probe that ends the two read-only workloads.
    pub(crate) probe_inserts: usize,
    /// Minimum number of read samples, so a p99 has ten samples beyond it.
    pub(crate) min_reads: usize,
    /// Minimum wall time spent repeating the set-up for `setup_s`.
    pub(crate) setup_budget: Duration,
    /// Deliberately corrupts the first checked read result (self-test only).
    pub(crate) corrupt_first_result: bool,
}

impl Config {
    fn full(seed: u64, seconds: Duration, trace: bool) -> Config {
        Config {
            seed,
            seconds,
            trace,
            olap_scale: 24,
            ingest_scale: 96,
            probe_inserts: 1250,
            min_reads: 1000,
            setup_budget: Duration::from_secs(1),
            corrupt_first_result: false,
        }
    }

    #[cfg(test)]
    pub(crate) fn tiny(trace: bool) -> Config {
        Config {
            seed: 7,
            seconds: Duration::from_millis(200),
            trace,
            olap_scale: 1,
            ingest_scale: 2,
            probe_inserts: 150,
            min_reads: 20,
            setup_budget: Duration::from_millis(10),
            corrupt_first_result: false,
        }
    }
}

/// Runs the set-up at least five times and for at least
/// `config.setup_budget`, records each duration, and returns the last
/// set-up's result.
pub(crate) fn repeat_setup<T>(
    config: &Config,
    m: &mut report::Measured,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let start = std::time::Instant::now();
    loop {
        let (out, d) = stats::timed(&mut setup);
        let out = out?;
        let f = m.gauge.factor();
        m.setup.push(d.mul_f64(f));
        if m.setup.len() >= 5 && start.elapsed() >= config.setup_budget {
            return Ok(out);
        }
    }
}

/// Runs one workload and returns its report.
pub(crate) fn run(workload: Workload, config: &Config) -> Result<Report, String> {
    match workload {
        Workload::OlapMix => olap::run(config),
        Workload::AdhocText => adhoc::run(config),
        Workload::IngestDurable => ingest::run(config),
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <olap_mix|adhoc_text|ingest_durable> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s > 0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = Config::full(args.seed, Duration::from_secs(args.seconds), args.trace);
    match run(args.workload, &config) {
        Ok(report) => {
            print!("{}", report.render(args.workload, &config));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod selftest {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    fn metrics(trace: bool) -> Vec<(String, &'static str)> {
        if trace {
            report::per_layer_metrics()
        } else {
            report::END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    #[test]
    fn benchmark_json_names_every_workload_and_metric() {
        let json = benchmark_json();
        let mut names = 0;
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
            names += 1;
        }
        for (name, unit) in metrics(false).into_iter().chain(metrics(true)) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            names += 1;
        }
        assert_eq!(json.matches("\"name\":").count(), names);
    }

    /// The result line of a tiny run of every workload, traced and not.
    #[test]
    fn tiny_runs_emit_every_metric_with_its_unit() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let config = Config::tiny(trace);
                let out = run(w, &config).unwrap().render(w, &config);
                let last = out.lines().last().unwrap();
                assert!(
                    last.starts_with("{\"correct\": true, "),
                    "{}: {last}",
                    w.name()
                );
                assert!(last.contains("\"failed\": 0, "), "{}: {last}", w.name());
                for (name, unit) in metrics(trace) {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    let at = last
                        .find(&entry)
                        .unwrap_or_else(|| panic!("{name} missing"));
                    let rest = &last[at..];
                    let unit_at = rest.find("\"unit\": ").unwrap();
                    assert!(rest[unit_at..].starts_with(&format!("\"unit\": \"{unit}\"}}")));
                }
                assert!(out.contains("\"run\": {"), "run record missing");
            }
        }
    }

    #[test]
    fn a_corrupted_result_counts_as_failed() {
        for w in Workload::ALL {
            let config = Config {
                corrupt_first_result: true,
                ..Config::tiny(false)
            };
            let report = run(w, &config).unwrap();
            assert_eq!(report.measured.failed, 1, "{}", w.name());
            let last = report.render(w, &config);
            assert!(last
                .lines()
                .last()
                .unwrap()
                .starts_with("{\"correct\": false, "));
        }
    }
}
