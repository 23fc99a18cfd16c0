//! Malformed-notification variants for `client_replay`: each takes a
//! well-formed nURL and breaks its price field so the client must drop
//! it — the middlebox-mangled and truncated shapes the hostile-input
//! suites cover, placed in a realistic stream.

use yav_types::Adx;

/// Number of distinct variants [`mutate`] cycles through.
pub const VARIANTS: u64 = 4;

/// Breaks the price parameter of a well-formed `adx` notification.
/// Variants: 0 empties the value, 1 puts an invalid percent escape in
/// front of it, 2 renames the parameter away, 3 truncates the URL just
/// after the parameter's `=`.
pub fn mutate(url: &str, adx: Adx, variant: u64) -> String {
    let param = yav_nurl::template::price_param(adx);
    let Some(key) = find_param(url, param) else {
        // No literal price parameter: cut the URL down to its exchange
        // host, which no notification template accepts.
        let host_end = url.find("://").map_or(0, |i| i + 3);
        let end = url[host_end..]
            .find('/')
            .map_or(url.len(), |i| host_end + i);
        return format!("{}/", &url[..end]);
    };
    let value = key + param.len() + 1;
    let value_end = url[value..].find('&').map_or(url.len(), |i| value + i);
    match variant % VARIANTS {
        0 => format!("{}{}", &url[..value], &url[value_end..]),
        1 => format!("{}%zz{}", &url[..value], &url[value..]),
        2 => format!("{}x_{}", &url[..key], &url[key..]),
        _ => url[..value].to_owned(),
    }
}

/// Byte offset of `name` as a whole query key (`?name=` or `&name=`).
fn find_param(url: &str, name: &str) -> Option<usize> {
    let query = url.find('?')?;
    let mut at = query;
    while at < url.len() {
        let key = at + 1;
        if url[key..].starts_with(name) && url[key + name.len()..].starts_with('=') {
            return Some(key);
        }
        at = key + url[key..].find('&')?;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_core::YourAdValue;
    use yav_crypto::{PriceCrypter, PriceKeys};
    use yav_nurl::fields::PricePayload;
    use yav_nurl::NurlFields;
    use yav_types::{AuctionId, Cpm, DspId, ImpressionId, SimTime};
    use yav_weblog::HttpRequest;

    /// Every variant of every exchange's cleartext and encrypted
    /// notification is dropped by `observe` — never valued, never
    /// counted as a model-less sighting — while the originals are valued.
    #[test]
    fn every_mutant_is_rejected_by_observe() {
        let crypter = PriceCrypter::new(PriceKeys::derive("perfbench-mutants"));
        let t = SimTime::from_ymd_hm(2015, 6, 15, 12, 0);
        let mut fed = 0u64;
        let mut yav = YourAdValue::new(None);
        for (i, &adx) in Adx::ALL.iter().enumerate() {
            let token = crypter.encrypt(700_000 + i as u64, [i as u8; 16]);
            let prices = [
                PricePayload::Cleartext(Cpm::from_f64(0.31 + i as f64 / 100.0)),
                PricePayload::Encrypted(token),
            ];
            for price in prices {
                let fields = NurlFields::minimal(
                    adx,
                    DspId(i as u32),
                    price,
                    ImpressionId(i as u64),
                    AuctionId(i as u64 + 99),
                );
                let url = yav_nurl::emit(&fields).to_string();
                let valued_before = yav.ledger().len() as u64 + yav.skipped_no_model();
                yav.observe(&HttpRequest::bare(t, url.clone()));
                let valued_after = yav.ledger().len() as u64 + yav.skipped_no_model();
                assert_eq!(
                    valued_after,
                    valued_before + 1,
                    "original must be valued: {url}"
                );
                for variant in 0..VARIANTS {
                    let bad = mutate(&url, adx, variant);
                    assert_ne!(bad, url);
                    assert!(
                        yav.observe(&HttpRequest::bare(t, bad.clone())).is_none(),
                        "{bad}"
                    );
                    fed += 1;
                }
                assert_eq!(
                    yav.ledger().len() as u64 + yav.skipped_no_model(),
                    valued_after,
                    "no mutant of {url} may be valued"
                );
            }
        }
        let drops = yav.drop_stats();
        assert_eq!(drops.parse_error + drops.not_notification, fed);
    }

    #[test]
    fn finds_whole_keys_only() {
        assert_eq!(find_param("http://h/p?xprice=1&price=2", "price"), Some(20));
        assert_eq!(find_param("http://h/p?price=2", "price"), Some(11));
        assert_eq!(find_param("http://h/p?xprice=1", "price"), None);
        assert_eq!(find_param("http://h/p", "price"), None);
    }
}
