//! The benchmark's own decoder of a serve reply.
//!
//! A reply is the canonical `SampledSubgraph::encode_into` layout, all
//! little-endian: seed `u64`; hop count `u32`; per hop a group count `u32`
//! and per group `parent u64, n u32, n × child u64`; then a feature count
//! `u32` and per feature `vertex u64, dim u32, dim × f32`. Decoding it
//! here, independently of `helios-query`, is what lets every timed reply
//! be checked (seed echo, group sizes within the fan-out) without trusting
//! the code under test to check itself.

/// What the checks and the freshness probe need from one reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplySummary {
    /// Parents looked up across all hops: the sample-table lookups.
    pub groups: u32,
    /// Feature vectors returned: the feature-table hits.
    pub features: u32,
    /// First component of the seed's own feature vector, if present —
    /// the slot a freshness marker writes its sequence number into.
    pub seed_feature0: Option<f32>,
}

/// Parse `bytes` as a reply to a query for `seed` with the given per-hop
/// fan-outs; any structural violation is an error naming it.
pub fn decode_reply(bytes: &[u8], seed: u64, fanouts: &[u32]) -> Result<ReplySummary, String> {
    let mut cur = Cursor { bytes, pos: 0 };
    let echoed = cur.u64("seed")?;
    if echoed != seed {
        return Err(format!("reply echoes seed {echoed}, asked for {seed}"));
    }
    let hops = cur.u32("hop count")? as usize;
    if hops > fanouts.len() {
        return Err(format!("{hops} hops in a {}-hop query", fanouts.len()));
    }
    let mut groups = 0u32;
    for &fanout in &fanouts[..hops] {
        let n_groups = cur.u32("group count")?;
        groups += n_groups;
        for _ in 0..n_groups {
            cur.u64("group parent")?;
            let children = cur.u32("group size")?;
            if children > fanout {
                return Err(format!("group of {children} exceeds fan-out {fanout}"));
            }
            cur.skip(children as usize * 8, "group children")?;
        }
    }
    let features = cur.u32("feature count")?;
    let mut seed_feature0 = None;
    for _ in 0..features {
        let vertex = cur.u64("feature vertex")?;
        let dim = cur.u32("feature dim")? as usize;
        if vertex == seed && dim > 0 {
            seed_feature0 = Some(f32::from_le_bytes(cur.array("feature value")?));
            cur.skip((dim - 1) * 4, "feature values")?;
        } else {
            cur.skip(dim * 4, "feature values")?;
        }
    }
    if cur.pos != bytes.len() {
        return Err(format!("{} trailing bytes", bytes.len() - cur.pos));
    }
    Ok(ReplySummary {
        groups,
        features,
        seed_feature0,
    })
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn skip(&mut self, n: usize, what: &str) -> Result<(), String> {
        // `n` comes from the reply; compare before adding so a huge count
        // cannot overflow the position.
        if n > self.bytes.len() - self.pos {
            return Err(format!("truncated at {what} (byte {})", self.pos));
        }
        self.pos += n;
        Ok(())
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], String> {
        let start = self.pos;
        self.skip(N, what)?;
        Ok(self.bytes[start..start + N]
            .try_into()
            .expect("slice of length N"))
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_query::{HopSamples, SampledSubgraph};
    use helios_types::VertexId;

    fn sample() -> SampledSubgraph {
        let mut r = SampledSubgraph::new(VertexId(1));
        r.hops.push(HopSamples {
            groups: vec![(VertexId(1), vec![VertexId(10), VertexId(11)])],
        });
        r.hops.push(HopSamples {
            groups: vec![
                (VertexId(10), vec![VertexId(20), VertexId(21)]),
                (VertexId(11), vec![]),
            ],
        });
        for v in [1u64, 10, 11, 20, 21] {
            r.features.insert(VertexId(v), vec![v as f32 + 0.5; 3]);
        }
        r
    }

    #[test]
    fn decodes_what_encode_into_writes() {
        let mut bytes = Vec::new();
        sample().encode_into(&mut bytes);
        let got = decode_reply(&bytes, 1, &[25, 10]).unwrap();
        assert_eq!(
            got,
            ReplySummary {
                groups: 3,
                features: 5,
                seed_feature0: Some(1.5)
            }
        );
    }

    #[test]
    fn an_empty_subgraph_is_a_valid_reply() {
        let mut bytes = Vec::new();
        SampledSubgraph::new(VertexId(9)).encode_into(&mut bytes);
        let got = decode_reply(&bytes, 9, &[25, 10]).unwrap();
        assert_eq!((got.groups, got.features, got.seed_feature0), (0, 0, None));
    }

    #[test]
    fn rejects_wrong_seed_oversized_groups_truncation_and_trailing_bytes() {
        let mut bytes = Vec::new();
        sample().encode_into(&mut bytes);
        assert!(decode_reply(&bytes, 2, &[25, 10])
            .unwrap_err()
            .contains("seed"));
        assert!(decode_reply(&bytes, 1, &[1, 10])
            .unwrap_err()
            .contains("fan-out"));
        assert!(decode_reply(&bytes, 1, &[25]).unwrap_err().contains("hops"));
        for cut in 0..bytes.len() {
            assert!(
                decode_reply(&bytes[..cut], 1, &[25, 10]).is_err(),
                "cut {cut}"
            );
        }
        bytes.push(0);
        assert!(decode_reply(&bytes, 1, &[25, 10])
            .unwrap_err()
            .contains("trailing"));
    }
}
