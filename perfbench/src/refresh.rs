//! Seeds and the model refresh every workload runs: the A1/A2 probe
//! campaigns, PME training on A1, and the client-artifact round trip
//! (serialise, reload, compare) — the back-end half of the paper's
//! system (§5). `stream_day` and `client_replay` run it as set-up at the
//! Huge profile's sizes; `model_refresh` times it at Mid's.

use std::time::Instant;
use yav_auction::MarketConfig;
use yav_campaign::{Campaign, CampaignReport};
use yav_exec::{derive_seed, ExecConfig};
use yav_pme::model::{ClientModel, TrainConfig};
use yav_pme::Pme;
use yav_weblog::PublisherUniverse;

/// Every randomness stream a workload's inputs derive from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// The `--seed` argument (0 for [`Seeds::production`]).
    pub run: u64,
    /// Weblog generator and publisher universe.
    pub weblog: u64,
    /// Market (valuation, DSP roster, price keys).
    pub market: u64,
    /// Campaign A1 traffic synthesis.
    pub a1: u64,
    /// Campaign A2 traffic synthesis.
    pub a2: u64,
    /// Training subsample and CV folds.
    pub train: u64,
}

impl Seeds {
    /// Independent streams derived from one `--seed`.
    pub fn from_run(run: u64) -> Seeds {
        Seeds {
            run,
            weblog: derive_seed(run, 1),
            market: derive_seed(run, 2),
            a1: derive_seed(run, 3),
            a2: derive_seed(run, 4),
            train: derive_seed(run, 5),
        }
    }

    /// The seeds the production builders hard-wire, so a workload run
    /// with them reproduces `StreamWorld`'s output exactly.
    #[cfg(test)]
    pub fn production() -> Seeds {
        Seeds {
            run: 0,
            weblog: yav_weblog::WeblogConfig::huge().seed,
            market: MarketConfig::default().seed,
            a1: Campaign::a1().seed,
            a2: Campaign::a2().seed,
            train: TrainConfig::default().seed,
        }
    }

    /// The default market with this run's market seed.
    pub fn market_config(&self) -> MarketConfig {
        MarketConfig {
            seed: self.market,
            ..MarketConfig::default()
        }
    }
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat` at the kernel's fixed 100 Hz user tick.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Wall and CPU seconds of one timed call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
}

impl Timed {
    /// CPU time over `threads × wall`.
    pub fn cpu_util(&self, threads: usize) -> f64 {
        self.cpu_s / (threads as f64 * self.wall_s)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let (c0, t0) = (cpu_seconds(), Instant::now());
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (
        out,
        Timed {
            wall_s,
            cpu_s: cpu_seconds() - c0,
        },
    )
}

/// One refresh's products and timings.
pub struct Refresh {
    /// Campaign A1 (encrypting exchanges): the training rows.
    pub a1: CampaignReport,
    /// Campaign A2 (MoPub cleartext).
    pub a2: CampaignReport,
    /// The client artifact as reloaded from its serialised form.
    pub model: ClientModel,
    /// Serialised artifact.
    pub artifact: String,
    /// Cross-validated accuracy of the trained model.
    pub cv_accuracy: f64,
    /// `campaign::execute_parallel` for A1.
    pub a1_time: Timed,
    /// `campaign::execute_parallel` for A2.
    pub a2_time: Timed,
    /// `Pme::train_from_campaign`.
    pub train_time: Timed,
    /// Serialising the artifact.
    pub save_s: f64,
    /// Reloading the artifact.
    pub load_s: f64,
    /// Campaign auctions entered and impressions bought (counter deltas).
    pub auctions_entered: u64,
    /// See `auctions_entered`.
    pub impressions_bought: u64,
}

impl Refresh {
    /// Wall time of the whole refresh.
    pub fn total_s(&self) -> f64 {
        self.a1_time.wall_s
            + self.a2_time.wall_s
            + self.train_time.wall_s
            + self.save_s
            + self.load_s
    }
}

/// The training configuration a scale uses, on `exec`'s threads and the
/// run's training seed.
pub fn train_config(scale: yav_bench::Scale, exec: &ExecConfig, seeds: &Seeds) -> TrainConfig {
    let mut train = scale.train_config();
    train.forest.threads = exec.threads();
    train.seed = seeds.train;
    train
}

/// Runs the campaigns, trains, and round-trips the client artifact.
/// Fails if the reloaded artifact differs from the trained one.
pub fn refresh(
    market: &MarketConfig,
    universe: &PublisherUniverse,
    impressions: (u32, u32),
    train: &TrainConfig,
    seeds: &Seeds,
    exec: &ExecConfig,
) -> Result<Refresh, String> {
    let entered = yav_telemetry::counter("campaign.executor.auctions_entered");
    let bought = yav_telemetry::counter("campaign.executor.impressions_bought");
    let (entered0, bought0) = (entered.get(), bought.get());
    let campaign = |base: Campaign, seed: u64, imps: u32| Campaign {
        seed,
        ..base.scaled(imps)
    };
    let (a1, a1_time) = timed(|| {
        let c = campaign(Campaign::a1(), seeds.a1, impressions.0);
        yav_campaign::execute_parallel(market, universe, &c, exec)
    });
    let (a2, a2_time) = timed(|| {
        let c = campaign(Campaign::a2(), seeds.a2, impressions.1);
        yav_campaign::execute_parallel(market, universe, &c, exec)
    });
    let pme = Pme::new();
    let (_, train_time) = timed(|| pme.train_from_campaign(&a1.rows, train));
    let trained = pme.current_model().ok_or("training produced no model")?;
    let cv_accuracy = pme.trained_model().map_or(0.0, |m| m.cv.accuracy);

    let t = Instant::now();
    let artifact = serde_json::to_string(&trained).map_err(|e| format!("artifact save: {e:?}"))?;
    let save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model: ClientModel =
        serde_json::from_str(&artifact).map_err(|e| format!("artifact load: {e:?}"))?;
    let load_s = t.elapsed().as_secs_f64();
    if model != trained {
        return Err("reloaded client artifact differs from the trained one".into());
    }
    if a1.rows.is_empty() || a2.rows.is_empty() {
        return Err("a probe campaign bought nothing".into());
    }
    Ok(Refresh {
        a1,
        a2,
        model,
        artifact,
        cv_accuracy,
        a1_time,
        a2_time,
        train_time,
        save_s,
        load_s,
        auctions_entered: entered.get() - entered0,
        impressions_bought: bought.get() - bought0,
    })
}
