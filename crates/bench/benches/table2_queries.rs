//! Table 2: the sampling queries used in the evaluation, as registered
//! with the coordinator (pattern, hop count, fan-outs, lookup bounds).

use helios_datagen::Preset;
use helios_query::SamplingStrategy;
use helios_telemetry::Table;

fn main() {
    let mut t = Table::new(
        "Table 2: sampling queries",
        &[
            "Dataset",
            "Query Pattern",
            "Hops",
            "Fan-outs",
            "Sample lookups",
            "Feature lookups",
        ],
    );
    let patterns = [
        (Preset::Bi, "Person-Knows-Person-Likes-Comment", false),
        (Preset::Inter, "Forum-Has-Person-Knows-Person", false),
        (
            Preset::Fin,
            "Account-TransferTo-Account-TransferTo-Account",
            false,
        ),
        (Preset::Taobao, "User-Click-Item-CoPurchase-Item", false),
        (
            Preset::Inter,
            "Forum-Has-Person-Knows-Person-Knows-Person",
            true,
        ),
    ];
    for (preset, pattern, three_hop) in patterns {
        let d = preset.dataset(0.01);
        let q = d.table2_query(SamplingStrategy::TopK, three_hop);
        t.row(&[
            preset.name().to_string(),
            pattern.to_string(),
            q.hops().to_string(),
            format!("{:?}", q.fanouts()),
            q.max_sample_lookups().to_string(),
            q.max_feature_lookups().to_string(),
        ]);
    }
    t.print();
    println!("serving cost is bounded by these lookup counts regardless of vertex degree (§6)");
}
