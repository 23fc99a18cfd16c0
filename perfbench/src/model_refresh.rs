//! `model_refresh`: the PME back-end at Mid sizes — A1/A2 probe
//! campaigns at 200/120 impressions per setup, training with Mid's
//! `TrainConfig` on `nproc` threads, then the client-artifact round trip
//! — followed by replays through clients holding the reloaded artifact,
//! which check that the shipped model values a stream and measure what a
//! refresh costs the client.

use crate::client_replay::{build_stream, stream_config, Stream, REQUESTS};
use crate::digest::Digest;
use crate::refresh::{refresh, train_config, Refresh, Seeds};
use yav_auction::{MarketConfig, MarketTemplate};
use yav_bench::Scale;
use yav_exec::ExecConfig;
use yav_weblog::{PublisherUniverse, WeblogConfig, WeblogGenerator};

/// Set-up products: the publisher universe and the market.
pub struct Backend {
    universe: PublisherUniverse,
    market: MarketConfig,
    template: MarketTemplate,
}

/// Universe and template build at Mid's publisher counts.
pub fn setup(seeds: &Seeds) -> Backend {
    let mid = WeblogConfig::paper();
    let universe = PublisherUniverse::build(seeds.weblog, mid.web_publishers, mid.app_publishers);
    let market = seeds.market_config();
    let template = MarketTemplate::new(market.clone());
    Backend {
        universe,
        market,
        template,
    }
}

/// The post-refresh replay stream, the same shape as `client_replay`'s.
/// Built once per run outside the timed set-up: it is the benchmark's
/// input, not the back-end's set-up.
pub fn replay_stream(
    backend: &Backend,
    seeds: &Seeds,
    exec: &ExecConfig,
) -> Result<Stream, String> {
    let config = stream_config(seeds, exec);
    let generator = WeblogGenerator::new(config.clone());
    build_stream(&config, &generator, &backend.template, seeds.run, REQUESTS)
}

/// One refresh at Mid sizes.
pub fn run(backend: &Backend, seeds: &Seeds, exec: &ExecConfig) -> Result<Refresh, String> {
    let train = train_config(Scale::Mid, exec, seeds);
    refresh(
        &backend.market,
        &backend.universe,
        (200, 120),
        &train,
        seeds,
        exec,
    )
}

/// The refresh's output digest: campaign sizes, CV accuracy and the
/// artifact bytes.
pub fn digest(seed: u64, r: &Refresh) -> u64 {
    let mut d = Digest::new(seed);
    d.u64(r.a1.rows.len() as u64).u64(r.a2.rows.len() as u64);
    d.u64(r.cv_accuracy.to_bits());
    d.u64(r.artifact.len() as u64);
    for chunk in r.artifact.as_bytes().chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        d.u64(u64::from_le_bytes(w));
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The refresh at a small size is thread-count independent and
    /// reproducible: same campaigns, same CV accuracy, same artifact.
    #[test]
    fn refresh_digest_is_thread_invariant() {
        let seeds = Seeds::from_run(3);
        let run_at = |threads| {
            let exec = ExecConfig::with_threads(threads);
            let backend = setup(&seeds);
            let train = train_config(Scale::Small, &exec, &seeds);
            let r = refresh(
                &backend.market,
                &backend.universe,
                (40, 30),
                &train,
                &seeds,
                &exec,
            )
            .unwrap();
            digest(3, &r)
        };
        let one = run_at(1);
        assert_eq!(one, run_at(2));
        assert_eq!(one, run_at(2));
    }
}
