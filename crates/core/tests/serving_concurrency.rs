//! Concurrent serve-path stress: N client threads — what N connections
//! are to a `NetServer` — calling `serve_encoded` at once, most of them on
//! one hot seed, proving
//!
//! 1. **result equivalence** — every concurrent serve returns bytes
//!    identical to a sequential serve of the same seed;
//! 2. **exact accounting** — `served` moves by exactly the number of
//!    requests;
//! 3. **the borrowed encode path agrees** — `serve_encoded` produces the
//!    same canonical bytes as encoding the owned result.

use helios_core::{HeliosConfig, HeliosDeployment};
use helios_datagen::Preset;
use helios_query::SamplingStrategy;
use helios_types::VertexId;
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::Duration;

const SETTLE: Duration = Duration::from_secs(60);
const CLIENTS: usize = 8;
const ITERS_PER_CLIENT: usize = 250;

#[test]
fn concurrent_serves_match_sequential_under_hot_seed_skew() {
    let dataset = Preset::Fin.dataset(0.02);
    let query = dataset.table2_query(SamplingStrategy::TopK, false);
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 1), query).unwrap();
    let events: Vec<_> = dataset.events().collect();
    helios.ingest_and_settle(&events, SETTLE).unwrap();

    let (lo, hi) = dataset.id_range(dataset.seed_population());
    let seeds: Vec<VertexId> = (lo..hi).map(VertexId).collect();
    assert!(seeds.len() >= 4, "FIN at scale 0.02 has a seed population");
    let hot = seeds[0];

    // Sequential reference pass: no concurrency, no updates flowing, so
    // each serve is deterministic.
    let mut reference: HashMap<VertexId, Vec<u8>> = HashMap::new();
    for &seed in &seeds {
        let mut bytes = Vec::new();
        helios.serve_encoded(seed, &mut bytes).unwrap();
        // The owned adapter must agree with the borrowed path.
        let mut owned = Vec::new();
        helios.serve(seed).unwrap().encode_into(&mut owned);
        assert_eq!(
            bytes, owned,
            "serve_encoded bytes differ from owned encoding for seed {seed:?}"
        );
        reference.insert(seed, bytes);
    }

    let served_before: u64 = helios.serving_workers().iter().map(|w| w.served()).sum();

    // Concurrent pass: 75% hot seed, 25% uniform mix, every client
    // released at once.
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (helios, seeds, reference, start) = (&helios, &seeds, &reference, &start);
            scope.spawn(move || {
                let mut bytes = Vec::new();
                start.wait();
                for i in 0..ITERS_PER_CLIENT {
                    let seed = if i % 4 != 3 {
                        hot
                    } else {
                        seeds[(i * 13 + c * 7) % seeds.len()]
                    };
                    helios.serve_encoded(seed, &mut bytes).unwrap();
                    assert_eq!(
                        bytes, reference[&seed],
                        "client {c} call {i}: seed {seed:?} differs from its sequential reference"
                    );
                }
            });
        }
    });

    let served: u64 = helios.serving_workers().iter().map(|w| w.served()).sum();
    assert_eq!(
        served - served_before,
        (CLIENTS * ITERS_PER_CLIENT) as u64,
        "every request counts as served, exactly once"
    );

    helios.shutdown();
}
