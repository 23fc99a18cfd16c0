//! `stream_day`: one simulated day of a lazy Huge-profile panel streamed
//! through generate → market → analyze → tenant monitors in windows of
//! shards on `exec`'s pool, folding commutative aggregates in shard
//! order — the loop `StreamWorld::build_with_users` runs, driven here
//! through the same public entry points so the run seed reaches every
//! input. With the production seeds its output equals `StreamWorld`'s
//! (pinned by a test below).

use crate::digest::Digest;
use crate::ledger::Ledger;
use crate::refresh::{cpu_seconds, refresh, train_config, Refresh, Seeds};
use crate::{counter, hist_sum_ns, Values};
use std::time::Instant;
use yav_analyzer::{AnalyzerReport, Retention, WeblogAnalyzer};
use yav_auction::MarketTemplate;
use yav_bench::{Scale, TruthStats};
use yav_core::{TenantReport, TenantStore};
use yav_exec::ExecConfig;
use yav_pme::model::ClientModel;
use yav_weblog::{Panel, PanelUser, WeblogConfig, WeblogGenerator, USERS_PER_SHARD};

/// Panel size of one pass.
pub const USERS: u32 = 20_000;

/// Every 64th event's `TenantStore::feed` is timed for the latency
/// percentiles; the other 63 run without a clock.
const FEED_SAMPLE: u64 = 64;

/// Set-up products: generator, market template and the refreshed model.
pub struct Day {
    config: WeblogConfig,
    generator: WeblogGenerator,
    template: MarketTemplate,
    /// The refresh run as set-up (campaigns at 40/30 per setup, quick
    /// training).
    pub refresh: Refresh,
}

/// Builds what the loop needs, in `StreamWorld`'s order.
pub fn setup(seeds: &Seeds, users: u32, exec: &ExecConfig) -> Result<Day, String> {
    let config = WeblogConfig {
        seed: seeds.weblog,
        users,
        exec: *exec,
        ..WeblogConfig::huge()
    };
    let generator = WeblogGenerator::new(config.clone());
    let market = seeds.market_config();
    let template = MarketTemplate::new(market.clone());
    let train = train_config(Scale::Huge, exec, seeds);
    let refresh = refresh(&market, generator.universe(), (40, 30), &train, seeds, exec)?;
    Ok(Day {
        config,
        generator,
        template,
        refresh,
    })
}

/// What one pass folds.
#[derive(Default)]
pub struct DayOut {
    /// Bounded analyzer report.
    pub report: AnalyzerReport,
    /// Ground-truth aggregates.
    pub truth: TruthStats,
    /// The tenant fleet's report.
    pub tenants: TenantReport,
    /// HTTP events streamed.
    pub events: u64,
    /// Sampled `TenantStore::feed` latencies, in window order.
    pub feed_ns: Vec<u64>,
    /// Per window: wall time (map and fold, ns) and the end of its
    /// samples in `feed_ns`.
    pub windows: Vec<(u64, usize)>,
}

impl DayOut {
    /// Each window's wall time with its feed latency samples.
    pub fn window_samples(&self) -> impl ExactSizeIterator<Item = (u64, &[u64])> {
        (0..self.windows.len()).map(|k| {
            let start = k.checked_sub(1).map_or(0, |j| self.windows[j].1);
            let (ns, end) = self.windows[k];
            (ns, &self.feed_ns[start..end])
        })
    }
}

/// Per-shard clock readings of a traced pass, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
struct ShardClock {
    busy: u64,
    setup: u64,
    run: u64,
    ingest: u64,
    feed: u64,
    analyzer_finish: u64,
    tenant_finish: u64,
}

impl ShardClock {
    fn add(&mut self, o: &ShardClock) {
        self.busy += o.busy;
        self.setup += o.setup;
        self.run += o.run;
        self.ingest += o.ingest;
        self.feed += o.feed;
        self.analyzer_finish += o.analyzer_finish;
        self.tenant_finish += o.tenant_finish;
    }
}

struct Part {
    report: AnalyzerReport,
    truth: TruthStats,
    tenants: TenantReport,
    events: u64,
    feed_ns: Vec<u64>,
    clock: ShardClock,
}

/// The panel users of shard `s`, drawn as one lazy block.
fn shard_users(config: &WeblogConfig, s: usize) -> Vec<PanelUser> {
    let n = config.users as usize;
    let lo = (s * USERS_PER_SHARD).min(n);
    let hi = (lo + USERS_PER_SHARD).min(n);
    Panel::build_block(config.seed, lo as u32, hi as u32)
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One shard: generate → market → analyze → tenants. `traced` adds a
/// clock pair around every analyzer and tenant call.
fn shard(day: &Day, model: Option<&ClientModel>, s: usize, traced: bool) -> Part {
    let start = Instant::now();
    let mut clock = ShardClock::default();
    let mut market = day.template.shard(s as u64);
    let mut analyzer = WeblogAnalyzer::with_retention(Retention::Bounded);
    let mut store = TenantStore::new();
    let users = shard_users(&day.config, s);
    for user in &users {
        store.register(user.id, user.home);
    }
    let mut events = 0u64;
    let mut truth = TruthStats::default();
    let mut feed_ns = Vec::new();
    clock.setup = ns(start);

    let run = Instant::now();
    day.generator.run_shard_with_users(
        &users,
        &mut market,
        |req| {
            events += 1;
            if traced {
                let t0 = Instant::now();
                analyzer.ingest_quiet(req);
                let t1 = Instant::now();
                store.feed(model, req);
                let t2 = Instant::now();
                clock.ingest += (t1 - t0).as_nanos() as u64;
                let feed = (t2 - t1).as_nanos() as u64;
                clock.feed += feed;
                if events.is_multiple_of(FEED_SAMPLE) {
                    feed_ns.push(feed);
                }
            } else if events.is_multiple_of(FEED_SAMPLE) {
                analyzer.ingest_quiet(req);
                let t = Instant::now();
                store.feed(model, req);
                feed_ns.push(ns(t));
            } else {
                analyzer.ingest_quiet(req);
                store.feed(model, req);
            }
        },
        |t| truth.record(&t),
    );
    clock.run = ns(run);

    let t = Instant::now();
    let report = analyzer.finish_with_state().0;
    clock.analyzer_finish = ns(t);
    let t = Instant::now();
    let tenants = store.finish(model);
    clock.tenant_finish = ns(t);
    clock.busy = ns(start);
    Part {
        report,
        truth,
        tenants,
        events,
        feed_ns,
        clock,
    }
}

/// A traced pass's time ledger inputs.
pub struct DayTrace {
    /// The ledger (rows sum with the remainder to threads × loop wall).
    pub ledger: Ledger,
    /// Loop wall time, ns.
    pub wall_ns: f64,
    clock: ShardClock,
    generate_ns: f64,
    market_ns: f64,
    market_runs: u64,
    fold_ns: f64,
    windows: u64,
    shards: u64,
    cpu_s: f64,
    threads: usize,
}

/// One pass over the whole panel. Returns the fold, the loop wall time
/// and, when `traced`, the ledger.
pub fn pass(
    day: &Day,
    exec: &ExecConfig,
    traced: bool,
) -> Result<(DayOut, f64, Option<DayTrace>), String> {
    let model = Some(&day.refresh.model);
    let threads = exec.threads().max(1);
    let window = threads * 4;
    let shards = day.generator.shard_count();
    let mut out = DayOut::default();
    let mut clock = ShardClock::default();
    let mut idle_ns = 0.0;
    let mut fold_ns = 0.0;
    let mut windows = 0u64;

    let market_ns0 = hist_sum_ns("auction.market.us");
    let runs0 = counter("auction.market.runs");
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    for lo in (0..shards).step_by(window) {
        let n = window.min(shards - lo);
        let w = Instant::now();
        let t = Instant::now();
        let parts = yav_exec::par_map_indexed(exec, n, |i| shard(day, model, lo + i, traced));
        let map_ns = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let mut busy = 0u64;
        for mut part in parts {
            out.report.merge(part.report);
            out.truth.merge(&part.truth);
            out.tenants.merge(&part.tenants);
            out.events += part.events;
            out.feed_ns.append(&mut part.feed_ns);
            busy += part.clock.busy;
            clock.add(&part.clock);
        }
        fold_ns += t.elapsed().as_nanos() as f64;
        out.windows
            .push((w.elapsed().as_nanos() as u64, out.feed_ns.len()));
        idle_ns += threads as f64 * map_ns - busy as f64;
        windows += 1;
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    if !traced {
        return Ok((out, wall_ns, None));
    }

    let cpu_s = cpu_seconds() - cpu0;
    let market_ns = hist_sum_ns("auction.market.us") - market_ns0;
    // The generator's self time: its call minus the sink and the market.
    let generate_ns = clock.run as f64 - clock.ingest as f64 - clock.feed as f64 - market_ns;
    let mut ledger = Ledger::new(threads, wall_ns);
    ledger.row("shard_setup", clock.setup as f64)?;
    ledger.row("generate", generate_ns)?;
    ledger.row("market", market_ns)?;
    ledger.row("analyze", (clock.ingest + clock.analyzer_finish) as f64)?;
    ledger.row("tenant_feed", clock.feed as f64)?;
    ledger.row("tenant_finish", clock.tenant_finish as f64)?;
    // The fold is serial: every worker slot waits on it.
    ledger.row("fold", threads as f64 * fold_ns)?;
    ledger.row("barrier_wait", idle_ns)?;
    let trace = DayTrace {
        ledger,
        wall_ns,
        clock,
        generate_ns,
        market_ns,
        market_runs: counter("auction.market.runs") - runs0,
        fold_ns,
        windows,
        shards: shards as u64,
        cpu_s,
        threads,
    };
    Ok((out, wall_ns, Some(trace)))
}

/// The identities every pass must satisfy.
pub fn check(out: &DayOut) -> Result<(), String> {
    let s = &out.report.summary;
    let t = &out.truth;
    let f = &out.tenants;
    let fail = |what: &str, a: i128, b: i128| Err(format!("{what}: {a} != {b}"));
    if (s.total, s.cleartext, s.encrypted) != (t.impressions, t.cleartext, t.encrypted) {
        return Err(format!(
            "detections {}/{}/{} != truth {}/{}/{}",
            s.total, s.cleartext, s.encrypted, t.impressions, t.cleartext, t.encrypted
        ));
    }
    if s.cleartext_micros != f.fleet.cleartext.micros() {
        return fail(
            "summary cleartext != fleet cleartext",
            s.cleartext_micros as i128,
            f.fleet.cleartext.micros() as i128,
        );
    }
    let valued = f.fleet.cleartext_count + f.fleet.encrypted_count + f.skipped_no_model;
    if valued != s.total {
        return fail(
            "fleet counts + skipped != detections",
            valued as i128,
            s.total as i128,
        );
    }
    if f.drops.not_notification + s.total != out.events {
        return fail(
            "not_notification + detections != events",
            (f.drops.not_notification + s.total) as i128,
            out.events as i128,
        );
    }
    if out.events == 0 || s.total == 0 {
        return Err("the pass streamed no impressions".into());
    }
    Ok(())
}

/// The pass's output digest.
pub fn digest(seed: u64, out: &DayOut) -> u64 {
    digest_parts(seed, &out.report, &out.truth, &out.tenants, out.events)
}

fn digest_parts(
    seed: u64,
    r: &AnalyzerReport,
    t: &TruthStats,
    f: &TenantReport,
    events: u64,
) -> u64 {
    let mut d = Digest::new(seed);
    let s = &r.summary;
    d.u64(events)
        .u64(s.total)
        .u64(s.cleartext)
        .u64(s.encrypted)
        .i64(s.cleartext_micros);
    for n in &s.by_adx {
        d.u64(*n);
    }
    d.u64(r.malformed_nurls)
        .u64(r.total_requests)
        .u64(r.users_seen as u64);
    for n in r.class_counts.values() {
        d.u64(*n);
    }
    d.u64(t.impressions)
        .u64(t.cleartext)
        .u64(t.encrypted)
        .i64(t.charge_micros);
    d.u64(f.users).u64(f.events).u64(f.skipped_no_model);
    d.i64(f.fleet.cleartext.micros())
        .i64(f.fleet.encrypted_estimated.micros());
    d.u64(f.fleet.cleartext_count).u64(f.fleet.encrypted_count);
    d.u64(f.drops.parse_error).u64(f.drops.not_notification);
    for n in &f.cost_hist {
        d.u64(*n);
    }
    d.finish()
}

/// Per-layer metrics of a traced pass.
pub fn layer_metrics(trace: &DayTrace, out: &DayOut, v: &mut Values) -> Result<(), String> {
    let ev = out.events as f64;
    let c = &trace.clock;
    let l = &trace.ledger;
    v.set("weblog.generate_ns_per_event", trace.generate_ns / ev);
    v.set("auction.market_ns_per_event", trace.market_ns / ev);
    v.set("auction.runs_per_event", trace.market_runs as f64 / ev);
    v.set("analyzer.ingest_ns_per_event", c.ingest as f64 / ev);
    v.set(
        "analyzer.detect_share",
        out.report.summary.total as f64 / ev,
    );
    v.set(
        "analyzer.malformed_nurls",
        out.report.malformed_nurls as f64,
    );
    v.set("core.tenant_feed_ns_per_event", c.feed as f64 / ev);
    // The fleet values every detection: its notification share is the
    // analyzer's detection share.
    v.set("core.notify_share", out.report.summary.total as f64 / ev);
    v.set(
        "core.parse_error_share",
        out.tenants.drops.parse_error as f64 / ev,
    );
    v.set(
        "core.tenant_finish_us_per_shard",
        c.tenant_finish as f64 / 1e3 / trace.shards as f64,
    );
    v.set(
        "exec.shard_setup_us",
        c.setup as f64 / 1e3 / trace.shards as f64,
    );
    v.set(
        "exec.fold_us_per_window",
        trace.fold_ns / 1e3 / trace.windows as f64,
    );
    v.set("exec.barrier_wait_share", l.share("barrier_wait"));
    v.set(
        "exec.cpu_util",
        trace.cpu_s * 1e9 / (trace.threads as f64 * trace.wall_ns),
    );
    v.set("exec.unattributed_share", l.unattributed_share()?);
    Ok(())
}

/// A sample of the day's URLs for the `nurl.screen_ns` timing: the first
/// `shards` shards regenerated after the loop, so the capture costs the
/// measured passes nothing.
pub fn url_sample(day: &Day, shards: usize) -> Vec<String> {
    let mut urls = Vec::new();
    for s in 0..shards.min(day.generator.shard_count()) {
        let mut market = day.template.shard(s as u64);
        let users = shard_users(&day.config, s);
        day.generator.run_shard_with_users(
            &users,
            &mut market,
            |r| urls.push(r.url.clone()),
            |_| {},
        );
    }
    urls
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_bench::StreamWorld;

    /// With the production seeds the benchmark's loop reproduces the
    /// production streaming builder bit for bit, at one thread and at
    /// two, traced or not.
    #[test]
    fn matches_stream_world_and_is_thread_and_trace_invariant() {
        let users = 1_000;
        let seeds = Seeds::production();
        let world = StreamWorld::build_with_users(users, &ExecConfig::with_threads(2));
        let want = digest_parts(
            0,
            &world.report,
            &world.truth,
            &world.tenants,
            world.http_requests,
        );
        for threads in [1, 2] {
            let exec = ExecConfig::with_threads(threads);
            let day = setup(&seeds, users, &exec).unwrap();
            for traced in [false, true] {
                let (out, _, trace) = pass(&day, &exec, traced).unwrap();
                check(&out).unwrap();
                assert_eq!(digest(0, &out), want, "threads={threads} traced={traced}");
                if let Some(trace) = trace {
                    assert!(trace.ledger.unattributed_share().unwrap() >= 0.0);
                }
            }
        }
    }

    #[test]
    fn digest_is_stable_and_seeded() {
        let exec = ExecConfig::with_threads(2);
        let run = |seed| {
            let day = setup(&Seeds::from_run(seed), 300, &exec).unwrap();
            let (out, _, _) = pass(&day, &exec, false).unwrap();
            check(&out).unwrap();
            digest(seed, &out)
        };
        let a = run(7);
        assert_eq!(a, run(7));
        assert_ne!(a, run(8));
    }
}
