//! `client_replay`: one `YourAdValue` per panel user, fed a materialised
//! generator stream with `observe` on a single thread — the extension's
//! real-time path (nURL screen and parse, compiled-tree predict, ledger
//! commit) with no generator, market or analyzer in the timed loop.
//! About 1% of the stream's notifications are replaced by malformed
//! variants the clients must drop.

use crate::digest::Digest;
use crate::mutate::mutate;
use crate::refresh::{refresh, train_config, Refresh, Seeds};
use crate::{counter, hist_sum_ns};
use std::hint::black_box;
use std::time::Instant;
use yav_auction::MarketTemplate;
use yav_bench::Scale;
use yav_core::YourAdValue;
use yav_exec::{derive_seed, ExecConfig};
use yav_pme::model::ClientModel;
use yav_types::{City, PriceVisibility};
use yav_weblog::{HttpRequest, Panel, WeblogConfig, WeblogGenerator, USERS_PER_SHARD};

/// Panel size and simulated days the replay stream is drawn from
/// (generation stops once [`REQUESTS`] exist, after ~300 users).
pub const USERS: u32 = 400;
/// See [`USERS`].
pub const DAYS: u32 = 140;

/// Requests in the stream: ~130 MiB of request records (see
/// [`Stream::bytes`]), larger than a 105 MiB last-level cache.
pub const REQUESTS: usize = 640_000;

/// One in `MALFORMED_EVERY` notifications (on average) is mutated.
const MALFORMED_EVERY: u64 = 100;

/// In untraced passes, every 16th `observe` gets a clock pair for the
/// latency percentiles.
const LATENCY_SAMPLE: usize = 16;

/// Untraced passes are timed in chunks of this many requests (~0.2 ms
/// each), the unit of [`crate::stats::Envelope`]; a multiple of
/// [`LATENCY_SAMPLE`], so every chunk holds the same number of samples.
/// Finer chunks catch shorter fast windows of a shared host: on a 2-vCPU
/// Xeon the envelope read 3% faster at 1024 requests than at 16384, and
/// 5–15% faster than the best whole pass, with less spread over seeds.
pub const CHUNK: usize = 1 << 10;

/// A replay stream with its ground truth.
pub struct Stream {
    /// Requests in (time, user) order.
    pub requests: Vec<HttpRequest>,
    /// Home city per user id (clients are configured with it).
    pub homes: Vec<City>,
    /// Notifications left intact.
    pub notifications: u64,
    /// Notifications replaced by a malformed variant.
    pub malformed: u64,
    /// Ground-truth cleartext total of the intact notifications.
    pub cleartext_micros: i64,
}

/// The replay stream's generator configuration: the Small profile's
/// traffic mix (about 5.5% of requests are notifications) over a lazy
/// panel of [`USERS`] users and [`DAYS`] days.
pub fn stream_config(seeds: &Seeds, exec: &ExecConfig) -> WeblogConfig {
    WeblogConfig {
        seed: seeds.weblog,
        users: USERS,
        days: DAYS,
        exec: *exec,
        lazy_panel: true,
        ..WeblogConfig::small()
    }
}

impl Stream {
    /// Heap bytes the request records hold: the vector and both strings
    /// of every request.
    pub fn bytes(&self) -> usize {
        self.requests.capacity() * std::mem::size_of::<HttpRequest>()
            + self
                .requests
                .iter()
                .map(|r| r.url.capacity() + r.user_agent.capacity())
                .sum::<usize>()
    }
}

/// Generates shards of `config`'s panel in order
/// against `template`'s markets until `requests` requests exist,
/// interleaves them in (time, user) order, and mutates a seeded ~1% of
/// the notifications. Generation stops at the cut, so the stream's size
/// and its set-up footprint do not vary with the seed. Fails if the
/// panel runs out first.
pub fn build_stream(
    config: &WeblogConfig,
    generator: &WeblogGenerator,
    template: &MarketTemplate,
    run_seed: u64,
    requests: usize,
) -> Result<Stream, String> {
    struct Entry {
        req: HttpRequest,
        truth: Option<(yav_types::Adx, i64, PriceVisibility)>,
    }
    let mut entries: Vec<Entry> = Vec::with_capacity(requests);
    let mut users = 0;
    for s in 0..generator.shard_count() {
        if entries.len() >= requests {
            break;
        }
        let base = entries.len();
        let emitted = std::cell::Cell::new(0usize);
        let mut truths = Vec::new();
        let mut market = template.shard(s as u64);
        generator.run_shard(
            s,
            &mut market,
            |r| {
                if base + emitted.get() < requests {
                    entries.push(Entry {
                        req: r.clone(),
                        truth: None,
                    });
                }
                emitted.set(emitted.get() + 1);
            },
            // The notification is the request emitted just before its
            // ground-truth record.
            |t| {
                truths.push((
                    base + emitted.get() - 1,
                    (t.adx, t.charge.micros(), t.visibility),
                ))
            },
        );
        for (i, truth) in truths {
            if let Some(e) = entries.get_mut(i) {
                e.truth = Some(truth);
            }
        }
        users = ((s + 1) * USERS_PER_SHARD).min(config.users as usize);
    }
    if entries.len() < requests {
        return Err(format!(
            "generated {} requests, the stream needs {requests}",
            entries.len()
        ));
    }
    entries.sort_by_key(|e| (e.req.time.minutes(), e.req.user.0));

    let mut stream = Stream {
        requests: Vec::new(),
        homes: Panel::build_block(config.seed, 0, users as u32)
            .iter()
            .map(|u| u.home)
            .collect(),
        notifications: 0,
        malformed: 0,
        cleartext_micros: 0,
    };
    for (k, e) in entries.iter_mut().enumerate() {
        if let Some((adx, micros, visibility)) = e.truth {
            let draw = derive_seed(run_seed ^ 0x4D41_4C46, k as u64);
            if draw.is_multiple_of(MALFORMED_EVERY) {
                e.req.url = mutate(&e.req.url, adx, draw / MALFORMED_EVERY);
                stream.malformed += 1;
            } else {
                stream.notifications += 1;
                if visibility == PriceVisibility::Cleartext {
                    stream.cleartext_micros += micros;
                }
            }
        }
    }
    // Move, not copy: a second copy of the stream would set the run's
    // peak RSS above anything the clients or training allocate.
    stream.requests = entries.into_iter().map(|e| e.req).collect();
    Ok(stream)
}

/// What one replay pass produced.
#[derive(Debug, Default)]
pub struct ReplayOut {
    /// Requests replayed.
    pub events: u64,
    /// Loop wall time, ns.
    pub wall_ns: f64,
    /// Sampled per-request `observe` latencies (ns).
    pub latency_ns: Vec<u64>,
    /// Untraced passes: wall time of each [`CHUNK`] of requests, ns.
    pub chunk_ns: Vec<u64>,
    /// Valued events across all clients' ledgers.
    pub valued: u64,
    /// Of which estimated from encrypted prices.
    pub estimated: u64,
    /// Ledger cleartext total.
    pub cleartext_micros: i64,
    /// Ledger estimated total.
    pub estimated_micros: i64,
    /// Encrypted sightings without a model.
    pub skipped_no_model: u64,
    /// Dropped as malformed.
    pub parse_error: u64,
    /// Dropped as ordinary traffic.
    pub not_notification: u64,
    /// Traced passes: total ns of `observe` calls that returned an event.
    pub notify_ns: u64,
    /// Traced passes: calls that returned an event.
    pub notify_calls: u64,
    /// Traced passes: total ns of calls that returned nothing.
    pub reject_ns: u64,
    /// Traced passes: `pme.predict.us` sum delta, ns.
    pub predict_ns: f64,
    /// Traced passes: `pme.predictions_total` delta.
    pub predictions: u64,
}

/// Replays `stream` through fresh clients holding `model`. Untraced
/// passes time every [`CHUNK`] and every [`LATENCY_SAMPLE`]th call;
/// traced passes time every call and split the time by outcome.
pub fn replay(stream: &Stream, model: &ClientModel, traced: bool) -> ReplayOut {
    let mut clients: Vec<YourAdValue> = stream
        .homes
        .iter()
        .map(|&home| {
            let mut c = YourAdValue::new(Some(home));
            c.install_model(model.clone());
            c
        })
        .collect();
    let mut out = ReplayOut {
        latency_ns: Vec::with_capacity(stream.requests.len() / LATENCY_SAMPLE + 1),
        ..ReplayOut::default()
    };
    let predict0 = hist_sum_ns("pme.predict.us");
    let predictions0 = counter("pme.predictions_total");
    let start = Instant::now();
    if traced {
        for req in &stream.requests {
            let client = &mut clients[req.user.0 as usize];
            let t = Instant::now();
            let event = black_box(client.observe(black_box(req)));
            let ns = t.elapsed().as_nanos() as u64;
            if event.is_some() {
                out.notify_ns += ns;
                out.notify_calls += 1;
            } else {
                out.reject_ns += ns;
            }
        }
    } else {
        for chunk in stream.requests.chunks(CHUNK) {
            let c = Instant::now();
            for (i, req) in chunk.iter().enumerate() {
                let client = &mut clients[req.user.0 as usize];
                if i % LATENCY_SAMPLE == 0 {
                    let t = Instant::now();
                    black_box(client.observe(black_box(req)));
                    out.latency_ns.push(t.elapsed().as_nanos() as u64);
                } else {
                    black_box(client.observe(black_box(req)));
                }
            }
            out.chunk_ns.push(c.elapsed().as_nanos() as u64);
        }
    }
    out.wall_ns = start.elapsed().as_nanos() as f64;
    out.predict_ns = hist_sum_ns("pme.predict.us") - predict0;
    out.predictions = counter("pme.predictions_total") - predictions0;
    out.events = stream.requests.len() as u64;
    for c in &clients {
        let s = c.ledger().summary();
        out.valued += c.ledger().len() as u64;
        out.estimated += s.encrypted_count;
        out.cleartext_micros += s.cleartext.micros();
        out.estimated_micros += s.encrypted_estimated.micros();
        out.skipped_no_model += c.skipped_no_model();
        let d = c.drop_stats();
        out.parse_error += d.parse_error;
        out.not_notification += d.not_notification;
    }
    out
}

impl ReplayOut {
    /// Each chunk's wall time with its latency samples. Every chunk's
    /// first request is sampled, so no chunk is without samples.
    pub fn chunk_samples(&self) -> impl ExactSizeIterator<Item = (u64, &[u64])> {
        let per_chunk = CHUNK / LATENCY_SAMPLE;
        self.chunk_ns
            .iter()
            .copied()
            .zip(self.latency_ns.chunks(per_chunk))
    }
}

/// The identities every replay must satisfy.
pub fn check(stream: &Stream, out: &ReplayOut) -> Result<(), String> {
    if out.valued != stream.notifications || out.skipped_no_model != 0 {
        return Err(format!(
            "{} of {} intact notifications valued ({} skipped without a model)",
            out.valued, stream.notifications, out.skipped_no_model
        ));
    }
    if out.cleartext_micros != stream.cleartext_micros {
        return Err(format!(
            "ledger cleartext {} != ground truth {}",
            out.cleartext_micros, stream.cleartext_micros
        ));
    }
    if out.parse_error + out.not_notification + out.valued != out.events {
        return Err("a request was neither valued nor dropped".into());
    }
    if out.parse_error < stream.malformed {
        return Err(format!(
            "{} malformed variants but {} parse-error drops",
            stream.malformed, out.parse_error
        ));
    }
    if stream.notifications == 0 || out.estimated == 0 {
        return Err("the stream exercised no valuation".into());
    }
    Ok(())
}

/// The replay's output digest.
pub fn digest(seed: u64, stream: &Stream, out: &ReplayOut) -> u64 {
    let mut d = Digest::new(seed);
    d.u64(out.events)
        .u64(stream.notifications)
        .u64(stream.malformed);
    d.u64(out.valued).u64(out.estimated);
    d.i64(out.cleartext_micros).i64(out.estimated_micros);
    d.u64(out.parse_error).u64(out.not_notification);
    d.finish()
}

/// Set-up products of `client_replay`.
pub struct Replay {
    /// The stream.
    pub stream: Stream,
    /// The refresh that produced the clients' model.
    pub refresh: Refresh,
}

/// Stream generation and model training.
pub fn setup(seeds: &Seeds, exec: &ExecConfig) -> Result<Replay, String> {
    let config = stream_config(seeds, exec);
    let generator = WeblogGenerator::new(config.clone());
    let market = seeds.market_config();
    let template = MarketTemplate::new(market.clone());
    let stream = build_stream(&config, &generator, &template, seeds.run, REQUESTS)?;
    let train = train_config(Scale::Huge, exec, seeds);
    let refresh = refresh(&market, generator.universe(), (40, 30), &train, seeds, exec)?;
    Ok(Replay { stream, refresh })
}

/// `yav_nurl::screen_adx` cost per URL over `urls`: median of three
/// timed sweeps.
pub fn screen_ns(urls: impl Iterator<Item = impl AsRef<str>> + Clone) -> f64 {
    let n = urls.clone().count().max(1) as f64;
    let mut sweeps = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for u in urls.clone() {
            let _ = black_box(yav_nurl::screen_adx(black_box(u.as_ref())));
        }
        sweeps.push(t.elapsed().as_nanos() as f64 / n);
    }
    yav_stats::summary::median(&sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> (Stream, ClientModel) {
        let seeds = Seeds::from_run(seed);
        let exec = ExecConfig::with_threads(2);
        let config = WeblogConfig {
            users: 40,
            days: 40,
            ..stream_config(&seeds, &exec)
        };
        let generator = WeblogGenerator::new(config.clone());
        let market = seeds.market_config();
        let template = MarketTemplate::new(market.clone());
        let stream = build_stream(&config, &generator, &template, seeds.run, 15_000).unwrap();
        let train = train_config(Scale::Small, &exec, &seeds);
        let r = refresh(
            &market,
            generator.universe(),
            (40, 30),
            &train,
            &seeds,
            &exec,
        )
        .unwrap();
        (stream, r.model)
    }

    #[test]
    fn replay_passes_its_gate_and_digest_is_stable() {
        let (stream, model) = small(11);
        assert!(
            stream.malformed > 0,
            "the seed must mutate some notifications"
        );
        let plain = replay(&stream, &model, false);
        let traced = replay(&stream, &model, true);
        check(&stream, &plain).unwrap();
        check(&stream, &traced).unwrap();
        assert_eq!(digest(11, &stream, &plain), digest(11, &stream, &traced));
        let (again, model2) = small(11);
        assert_eq!(
            digest(11, &stream, &plain),
            digest(11, &again, &replay(&again, &model2, false))
        );
    }
}
