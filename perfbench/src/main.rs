//! The repository's benchmark: three workloads, each made from `--seed`,
//! measured for `--seconds`, checked, and reported as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_day --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes and reports the per-layer metrics. Every
//! workload reports every metric of its table (see GLOSSARY.md for what
//! each means on each workload). The last stdout line is the result;
//! the line before it carries the run metadata and output digest.

mod client_replay;
mod digest;
mod ledger;
mod model_refresh;
mod mutate;
mod refresh;
mod stats;
mod stream_day;

use refresh::{Refresh, Seeds};
use stats::{spread, Envelope};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use yav_exec::ExecConfig;
use yav_stats::summary::median;

/// End-to-end metrics and units, in BENCHMARK.json order.
const END_TO_END: [(&str, &str); 8] = [
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("observe_p50_ns", "ns"),
    ("observe_p99_ns", "ns"),
    ("client_req_per_s", "1/s"),
    ("refresh_s", "s"),
    ("cv_accuracy", "ratio"),
];

/// Per-layer metrics and units, in BENCHMARK.json order.
const PER_LAYER: [(&str, &str); 28] = [
    ("weblog.generate_ns_per_event", "ns"),
    ("auction.market_ns_per_event", "ns"),
    ("auction.runs_per_event", "count"),
    ("analyzer.ingest_ns_per_event", "ns"),
    ("analyzer.detect_share", "ratio"),
    ("analyzer.malformed_nurls", "count"),
    ("core.tenant_feed_ns_per_event", "ns"),
    ("core.tenant_finish_us_per_shard", "us"),
    ("exec.shard_setup_us", "us"),
    ("exec.fold_us_per_window", "us"),
    ("exec.barrier_wait_share", "ratio"),
    ("exec.cpu_util", "ratio"),
    ("exec.unattributed_share", "ratio"),
    ("core.observe_reject_ns", "ns"),
    ("core.observe_notify_ns", "ns"),
    ("core.notify_share", "ratio"),
    ("core.parse_error_share", "ratio"),
    ("nurl.screen_ns", "ns"),
    ("pme.predict_ns", "ns"),
    ("campaign.a1_s", "s"),
    ("campaign.a2_s", "s"),
    ("campaign.win_share", "ratio"),
    ("campaign.cpu_util", "ratio"),
    ("pme.train_s", "s"),
    ("pme.train_cpu_util", "ratio"),
    ("pme.artifact_bytes", "bytes"),
    ("pme.artifact_load_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// A run times at least `SETUPS` set-ups, and more until they add up to
/// `SETUP_BUDGET` or number `MAX_SETUPS`, so cheap set-ups get enough
/// samples; `setup_s` is their median.
const SETUPS: usize = 3;
/// See [`SETUPS`].
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// See [`SETUPS`].
const MAX_SETUPS: usize = 1001;

/// Measured metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records a value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Median per metric over several value sets.
fn median_values(sets: &[Values]) -> Values {
    let mut out = Values::default();
    if let Some(first) = sets.first() {
        for name in first.0.keys() {
            let v: Vec<f64> = sets.iter().filter_map(|s| s.0.get(name).copied()).collect();
            out.set(name, median(&v));
        }
    }
    out
}

/// A telemetry counter's current value.
pub fn counter(name: &str) -> u64 {
    yav_telemetry::counter(name).get()
}

/// A microsecond telemetry histogram's running sum, in nanoseconds.
pub fn hist_sum_ns(name: &str) -> f64 {
    yav_telemetry::histogram(name).snapshot().sum * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A workload run's verdict and measurements.
struct Outcome {
    attempted: u64,
    failed: u64,
    digest: u64,
    values: Values,
    notes: Vec<(&'static str, f64)>,
}

/// Tallies pass verdicts: a pass fails if its gate breaks or its digest
/// differs from the first pass's.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Gate {
    fn record(&mut self, verdict: Result<(), String>, digest: u64) {
        self.attempted += 1;
        let verdict = verdict.and_then(|()| match self.digest {
            Some(d) if d != digest => Err(format!("digest {digest:016x} != first pass {d:016x}")),
            _ => Ok(()),
        });
        self.digest.get_or_insert(digest);
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!("pass {} failed its check: {e}", self.attempted);
        }
    }
}

/// Times one set-up.
fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let product = setup()?;
    Ok((product, t.elapsed().as_secs_f64()))
}

/// Times set-ups, dropping each as soon as it is timed, until `secs`
/// holds at least [`SETUPS`] and they add up to `budget` (or number
/// [`MAX_SETUPS`]). Runs call it with [`SETUP_BUDGET`] once the passes are
/// done and their own set-up is dropped: the measured product is so built
/// first, on a fresh heap, and `VmHWM` never holds two set-ups at once.
fn more_setups<T>(
    secs: &mut Vec<f64>,
    budget: Duration,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(), String> {
    while secs.len() < SETUPS
        || (secs.len() < MAX_SETUPS && secs.iter().sum::<f64>() < budget.as_secs_f64())
    {
        let (product, s) = timed(&mut setup)?;
        drop(product);
        secs.push(s);
    }
    Ok(())
}

/// What a pass is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Fills caches and lazy state; checked, not timed.
    Warmup,
    /// Untraced: the end-to-end metrics.
    Plain,
    /// Traced: the per-layer metrics.
    Traced,
}

/// Runs an optional warm-up pass, then passes until `seconds` have
/// elapsed, at least one; traced runs alternate untraced and traced
/// passes and run at least one of each.
fn passes(
    args: &Args,
    warmup: bool,
    mut pass: impl FnMut(Pass) -> Result<(), String>,
) -> Result<(), String> {
    if warmup {
        pass(Pass::Warmup)?;
    }
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut n = 0u64;
    loop {
        pass(if args.trace && n % 2 == 1 {
            Pass::Traced
        } else {
            Pass::Plain
        })?;
        n += 1;
        let enough = !args.trace || n >= 2;
        if enough && start.elapsed() >= budget {
            return Ok(());
        }
    }
}

fn peak_rss_mib() -> f64 {
    yav_telemetry::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// A run's untraced passes over one input, read through their lower
/// envelope: every pass reruns the same chunks of work (a replay's
/// chunks of requests, a day's windows of shards), so each chunk's
/// fastest instance is a reading of the program, not of the host's
/// phase. Per-pass rates are kept for the run's own spread note.
#[derive(Default)]
struct Passes {
    envelope: Envelope,
    rates: Vec<f64>,
}

impl Passes {
    fn add<'a>(
        &mut self,
        events: u64,
        wall_ns: f64,
        chunks: impl ExactSizeIterator<Item = (u64, &'a [u64])>,
    ) {
        self.rates.push(events as f64 / (wall_ns / 1e9));
        self.envelope.add(events, chunks);
    }

    /// The client metrics: throughput and the p50/p99 latencies.
    fn set_client(&self, v: &mut Values) {
        let latency = self.envelope.latencies();
        v.set("client_req_per_s", self.envelope.rate());
        v.set("observe_p50_ns", latency.quantile(0.50) as f64);
        v.set("observe_p99_ns", latency.quantile(0.99) as f64);
    }

    /// Latency samples the envelope kept.
    fn samples(&self) -> f64 {
        self.envelope.latencies().count() as f64
    }
}

/// The fastest of a run's refreshes. They repeat the same work from the
/// same seeds, so, as with [`Passes`], the fastest reads the program and
/// the others read how busy the host was.
fn fastest(refresh_s: &[f64]) -> f64 {
    refresh_s.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Per-layer metrics of the back-end refresh.
fn refresh_layers(r: &Refresh, threads: usize, v: &mut Values) {
    let campaign_cpu = r.a1_time.cpu_s + r.a2_time.cpu_s;
    let campaign_wall = r.a1_time.wall_s + r.a2_time.wall_s;
    v.set("campaign.a1_s", r.a1_time.wall_s);
    v.set("campaign.a2_s", r.a2_time.wall_s);
    v.set(
        "campaign.win_share",
        r.impressions_bought as f64 / r.auctions_entered.max(1) as f64,
    );
    v.set(
        "campaign.cpu_util",
        campaign_cpu / (threads as f64 * campaign_wall),
    );
    v.set("pme.train_s", r.train_time.wall_s);
    v.set("pme.train_cpu_util", r.train_time.cpu_util(threads));
    v.set("pme.artifact_bytes", r.artifact.len() as f64);
    v.set("pme.artifact_load_us", r.load_s * 1e6);
}

/// Client-path per-layer metrics of a traced replay.
fn observe_layers(out: &client_replay::ReplayOut, v: &mut Values) {
    let ev = out.events as f64;
    v.set(
        "core.observe_reject_ns",
        out.reject_ns as f64 / (out.events - out.notify_calls).max(1) as f64,
    );
    v.set(
        "core.observe_notify_ns",
        out.notify_ns as f64 / out.notify_calls.max(1) as f64,
    );
    v.set("core.notify_share", out.notify_calls as f64 / ev);
    v.set("core.parse_error_share", out.parse_error as f64 / ev);
    v.set(
        "pme.predict_ns",
        out.predict_ns / out.predictions.max(1) as f64,
    );
}

/// Layers a workload never calls report 0.
fn zero_fill(v: &mut Values) {
    for (name, _) in PER_LAYER {
        v.0.entry(name).or_insert(0.0);
    }
}

/// Interquartile spread of a run's per-pass rates over their median (0
/// with fewer than two passes), so a noisy run shows in its own metadata.
fn pass_spread(rates: &[f64]) -> f64 {
    if rates.len() < 2 {
        0.0
    } else {
        spread(rates)
    }
}

fn overhead_pct(plain: &[f64], traced: &[f64]) -> f64 {
    let base = median(plain);
    100.0 * (median(traced) - base) / base
}

fn run_stream_day(args: &Args, exec: &ExecConfig) -> Result<Outcome, String> {
    let seeds = Seeds::from_run(args.seed);
    let mut refresh_s = Vec::new();
    let mut setup = || {
        let day = stream_day::setup(&seeds, stream_day::USERS, exec)?;
        refresh_s.push(day.refresh.total_s());
        Ok(day)
    };
    let (day, first_setup_s) = timed(&mut setup)?;
    let mut gate = Gate::default();
    let mut plain = Passes::default();
    let (mut plain_wall, mut traced_wall, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = 0;
    passes(args, true, |mode| {
        let (out, wall_ns, trace) = stream_day::pass(&day, exec, mode == Pass::Traced)?;
        gate.record(stream_day::check(&out), stream_day::digest(args.seed, &out));
        events = out.events;
        if mode == Pass::Warmup {
            return Ok(());
        }
        if let Some(trace) = trace {
            eprint!("ledger (threads x loop wall):\n{}", trace.ledger.render());
            let mut v = Values::default();
            stream_day::layer_metrics(&trace, &out, &mut v)?;
            layers.push(v);
            traced_wall.push(wall_ns);
        } else {
            plain_wall.push(wall_ns);
            plain.add(out.events, wall_ns, out.window_samples());
        }
        Ok(())
    })?;

    let mut v = Values::default();
    if args.trace {
        v = median_values(&layers);
        refresh_layers(&day.refresh, exec.threads(), &mut v);
        let urls = stream_day::url_sample(&day, 64);
        v.set("nurl.screen_ns", client_replay::screen_ns(urls.iter()));
        v.set(
            "trace.overhead_pct",
            overhead_pct(&plain_wall, &traced_wall),
        );
        zero_fill(&mut v);
    } else {
        v.set("events_per_s", plain.envelope.rate());
        plain.set_client(&mut v);
    }
    v.set("cv_accuracy", day.refresh.cv_accuracy);
    drop(day);
    let mut setup_s = vec![first_setup_s];
    more_setups(&mut setup_s, SETUP_BUDGET, setup)?;
    v.set("setup_s", median(&setup_s));
    v.set("refresh_s", fastest(&refresh_s));
    Ok(Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        digest: gate.digest.unwrap_or(0),
        values: v,
        notes: vec![
            ("events_per_pass", events as f64),
            ("feed_latency_samples", plain.samples()),
            ("pass_rate_spread", pass_spread(&plain.rates)),
        ],
    })
}

fn run_client_replay(args: &Args, exec: &ExecConfig) -> Result<Outcome, String> {
    let seeds = Seeds::from_run(args.seed);
    let mut refresh_s = Vec::new();
    let mut setup = || {
        let r = client_replay::setup(&seeds, exec)?;
        refresh_s.push(r.refresh.total_s());
        Ok(r)
    };
    let (replay, first_setup_s) = timed(&mut setup)?;
    let stream = &replay.stream;
    let model = &replay.refresh.model;
    let mut gate = Gate::default();
    let mut plain = Passes::default();
    let (mut plain_wall, mut traced_wall, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    passes(args, true, |mode| {
        let out = client_replay::replay(stream, model, mode == Pass::Traced);
        gate.record(
            client_replay::check(stream, &out),
            client_replay::digest(args.seed, stream, &out),
        );
        if mode == Pass::Warmup {
            return Ok(());
        }
        if mode == Pass::Traced {
            let mut v = Values::default();
            observe_layers(&out, &mut v);
            layers.push(v);
            traced_wall.push(out.wall_ns);
        } else {
            plain_wall.push(out.wall_ns);
            plain.add(out.events, out.wall_ns, out.chunk_samples());
        }
        Ok(())
    })?;

    let mut v = Values::default();
    if args.trace {
        v = median_values(&layers);
        refresh_layers(&replay.refresh, exec.threads(), &mut v);
        v.set(
            "nurl.screen_ns",
            client_replay::screen_ns(stream.requests.iter().map(|r| r.url.as_str())),
        );
        v.set(
            "trace.overhead_pct",
            overhead_pct(&plain_wall, &traced_wall),
        );
        zero_fill(&mut v);
    } else {
        v.set("events_per_s", plain.envelope.rate());
        plain.set_client(&mut v);
    }
    v.set("cv_accuracy", replay.refresh.cv_accuracy);
    let notes = vec![
        ("requests_per_pass", stream.requests.len() as f64),
        ("stream_mib", stream.bytes() as f64 / (1024.0 * 1024.0)),
        ("notifications", stream.notifications as f64),
        ("malformed", stream.malformed as f64),
        ("latency_samples", plain.samples()),
        ("pass_rate_spread", pass_spread(&plain.rates)),
    ];
    drop(replay);
    let mut setup_s = vec![first_setup_s];
    more_setups(&mut setup_s, SETUP_BUDGET, setup)?;
    v.set("setup_s", median(&setup_s));
    v.set("refresh_s", fastest(&refresh_s));
    Ok(Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        digest: gate.digest.unwrap_or(0),
        values: v,
        notes,
    })
}

fn run_model_refresh(args: &Args, exec: &ExecConfig) -> Result<Outcome, String> {
    let seeds = Seeds::from_run(args.seed);
    let setup = || Ok(model_refresh::setup(&seeds));
    let (backend, first_setup_s) = timed(setup)?;
    // Built after the first refresh, so the peak read then is the
    // back-end's alone: set-up and training, no stream and no clients.
    let mut stream = None;
    let mut backend_peak_mib = 0.0;
    // Every set-up timed, and the fastest of each slice of them.
    let mut setup_s = vec![first_setup_s];
    let mut slice_best = vec![first_setup_s];
    let mut gate = Gate::default();
    let (mut refresh_s, mut rows, mut cv) = (Vec::new(), 0, Vec::new());
    let mut plain = Passes::default();
    let (mut plain_wall, mut traced_wall, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    // Each refresh is followed by `--seconds` of replays: the envelope
    // needs as many seconds of the host's phases as client_replay's.
    let budget = Duration::from_secs(args.seconds);
    let mut replay_count = 0;
    // One refresh outlasts any cache warm-up, so there is no warm-up pass.
    passes(args, false, |mode| {
        let traced = mode == Pass::Traced;
        let r = model_refresh::run(&backend, &seeds, exec)?;
        if stream.is_none() {
            backend_peak_mib = peak_rss_mib();
            stream = Some(model_refresh::replay_stream(&backend, &seeds, exec)?);
        }
        let stream = stream.as_ref().expect("built above");
        let refresh_digest = model_refresh::digest(args.seed, &r);
        let mut replay_layers = Vec::new();
        let mut replay_s = 0.0;
        let replays_start = Instant::now();
        while replays_start.elapsed() < budget {
            // The set-up takes milliseconds, so its samples are timed in
            // slices between the replays: they then span the replays'
            // seconds of a shared host's fast and slow phases, not one
            // moment. The peak RSS was read before, and one universe is
            // small beside the stream.
            let share = replays_start.elapsed().as_secs_f64() / budget.as_secs_f64();
            let n = setup_s.len();
            more_setups(&mut setup_s, SETUP_BUDGET.mul_f64(share), setup)?;
            slice_best.extend(setup_s[n..].iter().copied().reduce(f64::min));
            let out = client_replay::replay(stream, &r.model, traced);
            replay_count += 1;
            replay_s += out.wall_ns / 1e9;
            let digest = refresh_digest ^ client_replay::digest(args.seed, stream, &out);
            gate.record(client_replay::check(stream, &out), digest);
            if traced {
                let mut v = Values::default();
                observe_layers(&out, &mut v);
                replay_layers.push(v);
            } else {
                plain.add(out.events, out.wall_ns, out.chunk_samples());
            }
        }
        let wall = r.total_s() + replay_s;
        refresh_s.push(r.total_s());
        rows = r.a1.rows.len() + r.a2.rows.len();
        cv.push(r.cv_accuracy);
        if traced {
            let mut v = median_values(&replay_layers);
            refresh_layers(&r, exec.threads(), &mut v);
            layers.push(v);
            traced_wall.push(wall);
        } else {
            plain_wall.push(wall);
        }
        Ok(())
    })?;
    let stream = stream.expect("passes ran at least once");
    let n = setup_s.len();
    more_setups(&mut setup_s, SETUP_BUDGET, setup)?;
    slice_best.extend(setup_s[n..].iter().copied().reduce(f64::min));

    let mut v = Values::default();
    if args.trace {
        v = median_values(&layers);
        v.set(
            "nurl.screen_ns",
            client_replay::screen_ns(stream.requests.iter().map(|r| r.url.as_str())),
        );
        v.set(
            "trace.overhead_pct",
            overhead_pct(&plain_wall, &traced_wall),
        );
        zero_fill(&mut v);
    } else {
        v.set("events_per_s", rows as f64 / fastest(&refresh_s));
        v.set("peak_rss_mib", backend_peak_mib);
        plain.set_client(&mut v);
    }
    let notes = vec![
        ("requests_per_replay", stream.requests.len() as f64),
        ("replays", replay_count as f64),
        ("setups", setup_s.len() as f64),
        ("setup_slices", slice_best.len() as f64),
        ("latency_samples", plain.samples()),
        ("replay_rate_spread", pass_spread(&plain.rates)),
    ];
    // A slice repeats the same set-up back to back, ~4 ms each: its
    // fastest reads the program, and the host's phases (which can double
    // it for tens of ms) stay out of the median.
    v.set("setup_s", median(&slice_best));
    v.set("refresh_s", fastest(&refresh_s));
    v.set("cv_accuracy", median(&cv));
    Ok(Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        digest: gate.digest.unwrap_or(0),
        values: v,
        notes,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload <stream_day|client_replay|model_refresh> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let exec = ExecConfig::with_threads(threads);
    let outcome = match args.workload.as_str() {
        "stream_day" => run_stream_day(&args, &exec),
        "client_replay" => run_client_replay(&args, &exec),
        "model_refresh" => run_model_refresh(&args, &exec),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    outcome
        .values
        .0
        .entry("peak_rss_mib")
        .or_insert_with(peak_rss_mib);

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let Some(value) = outcome.values.0.get(name).filter(|v| v.is_finite()) else {
            eprintln!("perfbench: metric {name} was not measured");
            std::process::exit(1);
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"machine\": {}, \"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"threads\": {threads}, \"rustc\": \"{}\", \"commit\": \"{}\", \"digest\": \"{:016x}\", {}}}}}",
        yav_bench::machine_json(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        outcome.digest,
        notes.join(", "),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A set-up product that counts the live ones.
    struct Live<'a>(&'a Cell<usize>);

    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.0.set(self.0.get() - 1);
        }
    }

    /// Set-ups timed together never overlap one another, so no two products are
    /// ever alive at once to inflate `VmHWM`, and at least `SETUPS` are
    /// timed.
    #[test]
    fn more_setups_hold_one_product_at_a_time() {
        let live = Cell::new(0);
        let most = Cell::new(0);
        let setup = || {
            live.set(live.get() + 1);
            most.set(most.get().max(live.get()));
            Ok(Live(&live))
        };
        let (first, s) = timed(setup).unwrap();
        drop(first);
        let mut secs = vec![s];
        more_setups(&mut secs, SETUP_BUDGET, setup).unwrap();
        assert!((SETUPS..=MAX_SETUPS).contains(&secs.len()));
        assert_eq!(most.get(), 1);
        assert_eq!(live.get(), 0);
    }
}
