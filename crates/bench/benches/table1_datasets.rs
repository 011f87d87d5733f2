//! Table 1: dataset statistics.
//!
//! The paper's datasets are billion-edge; the presets preserve their
//! *shapes* (vertex:edge ratio, degree skew, feature dim) at a default
//! scale controlled by `HELIOS_BENCH_SCALE` (default 0.05).

use helios_datagen::{compute_stats, Preset};
use helios_telemetry::Table;

fn scale() -> f64 {
    std::env::var("HELIOS_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05)
}

fn main() {
    let mut t = Table::new(
        format!("Table 1: dataset statistics (scale {})", scale()),
        &[
            "Dataset",
            "Vertices",
            "Edges",
            "Feature Dim.",
            "Max Out-Deg",
            "Min Out-Deg",
            "Avg Out-Deg",
        ],
    );
    for preset in Preset::ALL {
        let d = preset.dataset(scale());
        let st = compute_stats(d.events());
        t.row(&[
            preset.name().to_string(),
            st.vertices.to_string(),
            st.edges.to_string(),
            st.feature_dim.to_string(),
            st.max_out_degree.to_string(),
            st.min_out_degree.to_string(),
            format!("{:.2}", st.avg_out_degree),
        ]);
    }
    t.print();
    println!(
        "paper (full scale): BI 1.9B/2.4B dim10 avg1.26 | INTER 40M/3.8B dim10 avg95 | \
         FIN 2M/2.2B dim10 avg5.5 | Taobao 1.8M/8.6M dim128 avg4.8"
    );
}
