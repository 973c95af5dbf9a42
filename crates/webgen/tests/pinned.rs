//! Pins the generator's output in the unit-test tier.
//!
//! Every byte of the synthetic web is a function of `(seed, rank)`, and
//! the crawl, its golden digests and every calibrated table depend on
//! those bytes. This test hashes seed 7's landing pages, their headers and
//! every resource a landing page references over ranks 1..=2,000, so a
//! generator change that moves any byte fails `cargo test`, not only the
//! 20k-origin digest gates in `scripts/ci.sh`.

use netsim::ContentProvider;
use webgen::{site, PopulationConfig, WebPopulation};
use weburl::Url;

/// FNV-1a over length-prefixed fields, so field boundaries count.
struct Fnv(u64);

impl Fnv {
    fn field(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn header(&mut self, value: Option<String>) {
        match value {
            Some(v) => self.field(format!("+{v}").as_bytes()),
            None => self.field(b"-"),
        }
    }
}

#[test]
fn seed7_pages_headers_and_resources_are_pinned() {
    const SEED: u64 = 7;
    let pop = WebPopulation::new(PopulationConfig {
        seed: SEED,
        size: 2_000,
    });
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    let mut resources = 0usize;
    for rank in 1..=2_000u64 {
        let page = site::page_html(SEED, rank);
        fnv.field(page.as_bytes());
        fnv.header(site::page_pp_header(SEED, rank));
        fnv.header(site::page_fp_header(SEED, rank));
        fnv.header(site::page_csp_header(SEED, rank));
        let origin = pop.origin(rank);
        fnv.field(format!("{:?}", pop.resolve(&origin)).as_bytes());
        let doc = html::scan(&page);
        let scripts = doc.scripts.iter().filter_map(|s| s.src.as_deref());
        let frames = doc.iframes.iter().filter_map(|f| f.src.as_deref());
        for src in scripts.chain(frames) {
            let Ok(url) = Url::parse_with_base(src, Some(&origin)) else {
                fnv.field(src.as_bytes());
                continue;
            };
            fnv.field(format!("{:?}", pop.resolve(&url)).as_bytes());
            resources += 1;
        }
    }
    assert!(resources > 2_000, "only {resources} referenced resources");
    assert_eq!(
        fnv.0, 0x7283_ec1e_e8e7_6258,
        "seed-7 generator output moved"
    );
}
