//! See `Cargo.toml`: this package exists for its test targets.
