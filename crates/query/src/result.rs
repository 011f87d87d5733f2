//! The K-hop sampling result assembled by serving workers and consumed by
//! GNN inference.

use helios_types::{FxHashMap, FxHashSet, VertexId};

/// Samples of a single hop: for every parent vertex of the previous
/// frontier, the list of sampled neighbors (`groups` preserves parent
/// order, so the GNN layer can aggregate children into the right parent).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HopSamples {
    /// `(parent, sampled children)` pairs in frontier order.
    pub groups: Vec<(VertexId, Vec<VertexId>)>,
}

impl HopSamples {
    /// All sampled vertices of this hop, in order, with duplicates (a
    /// vertex can be sampled under several parents).
    pub fn flat(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.groups.iter().flat_map(|(_, c)| c.iter().copied())
    }

    /// Number of sampled (parent, child) edges in this hop.
    pub fn edge_count(&self) -> usize {
        self.groups.iter().map(|(_, c)| c.len()).sum()
    }
}

/// A complete K-hop sampled subgraph for one seed vertex, together with
/// the features of every vertex it references.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampledSubgraph {
    /// The inference seed.
    pub seed: VertexId,
    /// Per-hop samples; `hops[0]` are the seed's direct samples.
    pub hops: Vec<HopSamples>,
    /// Feature vectors for the seed and all sampled vertices. Vertices
    /// whose features have not arrived yet (eventual consistency, §6) are
    /// absent; the model layer substitutes zeros.
    pub features: FxHashMap<VertexId, Vec<f32>>,
}

impl SampledSubgraph {
    /// New empty result for a seed.
    pub fn new(seed: VertexId) -> Self {
        SampledSubgraph {
            seed,
            hops: Vec::new(),
            features: FxHashMap::default(),
        }
    }

    /// Number of hops in the result.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The frontier *entering* hop `k`: the seed for `k == 0`, otherwise
    /// the flattened samples of hop `k-1` (with duplicates, in order).
    pub fn frontier(&self, k: usize) -> Vec<VertexId> {
        if k == 0 {
            vec![self.seed]
        } else {
            self.hops
                .get(k - 1)
                .map(|h| h.flat().collect())
                .unwrap_or_default()
        }
    }

    /// Every distinct vertex mentioned (seed + all samples).
    pub fn all_vertices(&self) -> FxHashSet<VertexId> {
        let mut s = FxHashSet::default();
        s.insert(self.seed);
        for h in &self.hops {
            for v in h.flat() {
                s.insert(v);
            }
        }
        s
    }

    /// Total sampled edges across hops (the "size" of the subgraph).
    pub fn sampled_edge_count(&self) -> usize {
        self.hops.iter().map(HopSamples::edge_count).sum()
    }

    /// Fraction of referenced vertices whose features are present — a
    /// staleness measure under eventual consistency.
    pub fn feature_coverage(&self) -> f64 {
        let all = self.all_vertices();
        if all.is_empty() {
            return 1.0;
        }
        let have = all.iter().filter(|v| self.features.contains_key(v)).count();
        have as f64 / all.len() as f64
    }

    /// Feature of `v`, or `None` if it has not been propagated yet.
    pub fn feature(&self, v: VertexId) -> Option<&[f32]> {
        self.features.get(&v).map(Vec::as_slice)
    }

    /// Owned half of the encode path: serialize into the canonical
    /// response wire form (see [`SubgraphView::encode_into`] for the
    /// borrowed half, which produces byte-identical output for the same
    /// logical content). Features are ordered by vertex id, so the bytes
    /// are a *normalized* form — two equivalent results encode
    /// identically regardless of map iteration order or assembly path.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seed.raw().to_le_bytes());
        out.extend_from_slice(&(self.hops.len() as u32).to_le_bytes());
        for hop in &self.hops {
            out.extend_from_slice(&(hop.groups.len() as u32).to_le_bytes());
            for (parent, children) in &hop.groups {
                out.extend_from_slice(&parent.raw().to_le_bytes());
                out.extend_from_slice(&(children.len() as u32).to_le_bytes());
                for c in children {
                    out.extend_from_slice(&c.raw().to_le_bytes());
                }
            }
        }
        let mut order: Vec<VertexId> = self.features.keys().copied().collect();
        order.sort_unstable_by_key(|v| v.raw());
        out.extend_from_slice(&(order.len() as u32).to_le_bytes());
        for v in order {
            let f = &self.features[&v];
            out.extend_from_slice(&v.raw().to_le_bytes());
            out.extend_from_slice(&(f.len() as u32).to_le_bytes());
            for x in f {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
}

/// `(parent, start, len)` of one parent's children within the arena's
/// flat vertex storage.
#[derive(Debug, Clone, Copy)]
struct GroupRef {
    parent: VertexId,
    start: u32,
    len: u32,
}

/// `(vertex, start, len)` of one feature vector within the arena's flat
/// f32 storage.
#[derive(Debug, Clone, Copy)]
struct FeatRef {
    vertex: VertexId,
    start: u32,
    len: u32,
}

/// A preallocated, reusable response arena for assembling one K-hop
/// result without per-group or per-feature heap allocations.
///
/// Where [`SampledSubgraph`] owns one `Vec` per parent's children and one
/// `Vec<f32>` per feature vector, the arena stores all children in one
/// flat vertex buffer and all features in one flat f32 buffer, with
/// `(start, len)` references on top. [`SubgraphArena::reset`] keeps the
/// buffers' capacity, so a serving thread reaches a steady state where
/// assembling a result allocates nothing at all. [`SubgraphArena::view`]
/// borrows the assembled result for encoding or owned conversion.
#[derive(Debug, Default)]
pub struct SubgraphArena {
    seed: VertexId,
    /// Flat children storage, all hops concatenated in assembly order.
    verts: Vec<VertexId>,
    /// Per-parent group references, all hops concatenated.
    groups: Vec<GroupRef>,
    /// End index into `groups` for each finished hop.
    hop_ends: Vec<u32>,
    /// Flat feature storage.
    feat_data: Vec<f32>,
    /// Per-vertex feature references.
    feats: Vec<FeatRef>,
}

impl SubgraphArena {
    /// New empty arena.
    pub fn new() -> Self {
        SubgraphArena::default()
    }

    /// Clear for a new request, keeping all buffer capacity.
    pub fn reset(&mut self, seed: VertexId) {
        self.seed = seed;
        self.verts.clear();
        self.groups.clear();
        self.hop_ends.clear();
        self.feat_data.clear();
        self.feats.clear();
    }

    /// The seed this arena is assembling for.
    pub fn seed(&self) -> VertexId {
        self.seed
    }

    /// Bytes of buffer capacity this arena holds onto across resets —
    /// the steady-state footprint a serving thread pays for its reuse. Used
    /// by the serving worker's scratch accounting.
    pub fn capacity_bytes(&self) -> usize {
        self.verts.capacity() * std::mem::size_of::<VertexId>()
            + self.groups.capacity() * std::mem::size_of::<GroupRef>()
            + self.hop_ends.capacity() * std::mem::size_of::<u32>()
            + self.feat_data.capacity() * std::mem::size_of::<f32>()
            + self.feats.capacity() * std::mem::size_of::<FeatRef>()
    }

    /// Open a new `(parent, children)` group in the current hop.
    pub fn begin_group(&mut self, parent: VertexId) {
        self.groups.push(GroupRef {
            parent,
            start: self.verts.len() as u32,
            len: 0,
        });
    }

    /// Append one sampled child to the group opened last.
    #[inline]
    pub fn push_child(&mut self, v: VertexId) {
        debug_assert!(!self.groups.is_empty(), "push_child before begin_group");
        self.verts.push(v);
        if let Some(g) = self.groups.last_mut() {
            g.len += 1;
        }
    }

    /// Close the current hop (the groups opened since the previous
    /// [`SubgraphArena::end_hop`] form it).
    pub fn end_hop(&mut self) {
        self.hop_ends.push(self.groups.len() as u32);
    }

    /// Number of finished hops.
    pub fn hop_count(&self) -> usize {
        self.hop_ends.len()
    }

    /// All children sampled in the last finished hop — the frontier
    /// entering the next hop (duplicates preserved, in order).
    pub fn last_hop_children(&self) -> &[VertexId] {
        let hops = self.hop_ends.len();
        if hops == 0 {
            return &[];
        }
        let gstart = if hops >= 2 {
            self.hop_ends[hops - 2] as usize
        } else {
            0
        };
        let vstart = self
            .groups
            .get(gstart)
            .map(|g| g.start as usize)
            .unwrap_or(self.verts.len());
        &self.verts[vstart..]
    }

    /// Decode one wire-encoded feature vector (`u32` count + f32 LE
    /// values, the cache's value format) straight into the flat feature
    /// storage — no intermediate `Vec<f32>`. Returns `false` (appending
    /// nothing) when the payload is malformed. Features are kept in
    /// vertex-id order, the encoded order, so pushing them in ascending
    /// id order only ever appends.
    pub fn push_feature_raw(&mut self, v: VertexId, raw: &[u8]) -> bool {
        if raw.len() < 4 {
            return false;
        }
        let n = u32::from_le_bytes(raw[..4].try_into().unwrap()) as usize;
        if raw.len() != 4 + n * 4 {
            return false;
        }
        let start = self.feat_data.len() as u32;
        self.feat_data.extend(
            raw[4..]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap())),
        );
        let at = self.feats.partition_point(|f| f.vertex.raw() < v.raw());
        self.feats.insert(
            at,
            FeatRef {
                vertex: v,
                start,
                len: n as u32,
            },
        );
        true
    }

    /// Number of feature vectors gathered.
    pub fn feature_count(&self) -> usize {
        self.feats.len()
    }

    /// Every child sampled so far, all hops flattened, duplicates
    /// preserved (the seed is not included). The serve path's feature
    /// gather deduplicates `seed ∪ sampled_vertices()` for its lookups.
    pub fn sampled_vertices(&self) -> &[VertexId] {
        &self.verts
    }

    /// Borrow the assembled result.
    pub fn view(&self) -> SubgraphView<'_> {
        SubgraphView { arena: self }
    }
}

/// A borrowed view of an arena-assembled K-hop result: the *borrowed*
/// half of the encode path. Everything it exposes references the arena's
/// flat buffers; converting to the classic owned [`SampledSubgraph`] (one
/// allocation per group and per feature) is explicit via
/// [`SubgraphView::to_subgraph`].
#[derive(Debug, Clone, Copy)]
pub struct SubgraphView<'a> {
    arena: &'a SubgraphArena,
}

impl<'a> SubgraphView<'a> {
    /// The inference seed.
    pub fn seed(&self) -> VertexId {
        self.arena.seed
    }

    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.arena.hop_ends.len()
    }

    /// `(parent, children)` groups of hop `k`, borrowing the flat arena
    /// storage.
    pub fn groups(&self, k: usize) -> impl Iterator<Item = (VertexId, &'a [VertexId])> + 'a {
        let end = self.arena.hop_ends.get(k).map(|&e| e as usize).unwrap_or(0);
        let start = if k == 0 {
            0
        } else {
            self.arena.hop_ends[k - 1] as usize
        };
        let arena = self.arena;
        arena.groups[start.min(end)..end].iter().map(move |g| {
            (
                g.parent,
                &arena.verts[g.start as usize..(g.start + g.len) as usize],
            )
        })
    }

    /// Gathered `(vertex, feature)` pairs in vertex-id order.
    pub fn features(&self) -> impl Iterator<Item = (VertexId, &'a [f32])> + 'a {
        let arena = self.arena;
        arena.feats.iter().map(move |f| {
            (
                f.vertex,
                &arena.feat_data[f.start as usize..(f.start + f.len) as usize],
            )
        })
    }

    /// Total sampled edges across hops.
    pub fn sampled_edge_count(&self) -> usize {
        self.arena.verts.len()
    }

    /// Owned conversion: materialize the classic per-group/per-feature
    /// allocated [`SampledSubgraph`] handed to the model layer.
    pub fn to_subgraph(&self) -> SampledSubgraph {
        let mut out = SampledSubgraph::new(self.arena.seed);
        out.hops.reserve(self.hop_count());
        for k in 0..self.hop_count() {
            let mut hs = HopSamples::default();
            for (parent, children) in self.groups(k) {
                hs.groups.push((parent, children.to_vec()));
            }
            out.hops.push(hs);
        }
        out.features.reserve(self.arena.feats.len());
        for (v, f) in self.features() {
            out.features.insert(v, f.to_vec());
        }
        out
    }

    /// Borrowed half of the encode path: serialize straight from the
    /// arena into `out`, producing bytes identical to
    /// [`SampledSubgraph::encode_into`] on the equivalent owned result —
    /// no owned subgraph is ever constructed.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let arena = self.arena;
        out.extend_from_slice(&arena.seed.raw().to_le_bytes());
        out.extend_from_slice(&(arena.hop_ends.len() as u32).to_le_bytes());
        for k in 0..arena.hop_ends.len() {
            let end = arena.hop_ends[k] as usize;
            let start = if k == 0 {
                0
            } else {
                arena.hop_ends[k - 1] as usize
            };
            out.extend_from_slice(&((end - start) as u32).to_le_bytes());
            for g in &arena.groups[start..end] {
                out.extend_from_slice(&g.parent.raw().to_le_bytes());
                out.extend_from_slice(&g.len.to_le_bytes());
                for c in &arena.verts[g.start as usize..(g.start + g.len) as usize] {
                    out.extend_from_slice(&c.raw().to_le_bytes());
                }
            }
        }
        // Normalized feature order (by vertex id, which the arena keeps),
        // matching the owned encoder.
        out.extend_from_slice(&(arena.feats.len() as u32).to_le_bytes());
        for f in &arena.feats {
            out.extend_from_slice(&f.vertex.raw().to_le_bytes());
            out.extend_from_slice(&f.len.to_le_bytes());
            for x in &arena.feat_data[f.start as usize..(f.start + f.len) as usize] {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_hop_result() -> SampledSubgraph {
        let mut r = SampledSubgraph::new(VertexId(1));
        r.hops.push(HopSamples {
            groups: vec![(VertexId(1), vec![VertexId(10), VertexId(11)])],
        });
        r.hops.push(HopSamples {
            groups: vec![
                (VertexId(10), vec![VertexId(20), VertexId(21)]),
                (VertexId(11), vec![VertexId(20)]), // shared neighbor
            ],
        });
        for v in [1u64, 10, 11, 20, 21] {
            r.features.insert(VertexId(v), vec![v as f32; 4]);
        }
        r
    }

    #[test]
    fn frontiers() {
        let r = two_hop_result();
        assert_eq!(r.frontier(0), vec![VertexId(1)]);
        assert_eq!(r.frontier(1), vec![VertexId(10), VertexId(11)]);
        assert_eq!(
            r.frontier(2),
            vec![VertexId(20), VertexId(21), VertexId(20)]
        );
        assert!(r.frontier(3).is_empty());
    }

    #[test]
    fn vertex_and_edge_accounting() {
        let r = two_hop_result();
        assert_eq!(r.hop_count(), 2);
        assert_eq!(r.sampled_edge_count(), 5);
        let all = r.all_vertices();
        assert_eq!(all.len(), 5); // 1, 10, 11, 20, 21 (20 deduped)
        assert!(all.contains(&VertexId(20)));
    }

    #[test]
    fn feature_coverage_reflects_missing() {
        let mut r = two_hop_result();
        assert_eq!(r.feature_coverage(), 1.0);
        r.features.remove(&VertexId(21));
        let cov = r.feature_coverage();
        assert!((cov - 0.8).abs() < 1e-9, "coverage {cov}");
        assert!(r.feature(VertexId(21)).is_none());
        assert_eq!(r.feature(VertexId(20)).unwrap().len(), 4);
    }

    #[test]
    fn empty_result_is_well_behaved() {
        let r = SampledSubgraph::new(VertexId(5));
        assert_eq!(r.hop_count(), 0);
        assert_eq!(r.sampled_edge_count(), 0);
        assert_eq!(r.all_vertices().len(), 1);
        assert_eq!(r.feature_coverage(), 0.0); // seed feature missing
    }

    /// Wire-encode one feature vector the way the cache stores it.
    fn raw_feature(vals: &[f32]) -> Vec<u8> {
        let mut raw = (vals.len() as u32).to_le_bytes().to_vec();
        for v in vals {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        raw
    }

    /// Assemble [`two_hop_result`] through the arena path. Features are
    /// pushed deliberately out of id order to exercise normalization.
    fn two_hop_arena() -> SubgraphArena {
        let mut a = SubgraphArena::new();
        a.reset(VertexId(1));
        a.begin_group(VertexId(1));
        a.push_child(VertexId(10));
        a.push_child(VertexId(11));
        a.end_hop();
        a.begin_group(VertexId(10));
        a.push_child(VertexId(20));
        a.push_child(VertexId(21));
        a.begin_group(VertexId(11));
        a.push_child(VertexId(20));
        a.end_hop();
        for v in [20u64, 1, 21, 10, 11] {
            assert!(a.push_feature_raw(VertexId(v), &raw_feature(&[v as f32; 4])));
        }
        a
    }

    #[test]
    fn arena_view_matches_owned_assembly() {
        let a = two_hop_arena();
        let view = a.view();
        assert_eq!(view.hop_count(), 2);
        assert_eq!(view.sampled_edge_count(), 5);
        assert_eq!(
            a.last_hop_children(),
            &[VertexId(20), VertexId(21), VertexId(20)]
        );
        let owned = view.to_subgraph();
        let reference = two_hop_result();
        assert_eq!(owned.seed, reference.seed);
        for k in 0..2 {
            assert_eq!(owned.hops[k].groups, reference.hops[k].groups);
        }
        assert_eq!(owned.features, reference.features);
    }

    #[test]
    fn borrowed_and_owned_encodes_are_byte_identical() {
        let a = two_hop_arena();
        let mut borrowed = Vec::new();
        a.view().encode_into(&mut borrowed);
        let mut owned = Vec::new();
        two_hop_result().encode_into(&mut owned);
        assert_eq!(borrowed, owned);
        // Owned conversion round-trips to the same normalized bytes too.
        let mut converted = Vec::new();
        a.view().to_subgraph().encode_into(&mut converted);
        assert_eq!(converted, owned);
    }

    #[test]
    fn arena_reset_reuses_capacity_and_clears_state() {
        let mut a = two_hop_arena();
        let mut first = Vec::new();
        a.view().encode_into(&mut first);
        a.reset(VertexId(99));
        assert_eq!(a.seed(), VertexId(99));
        assert_eq!(a.hop_count(), 0);
        assert_eq!(a.feature_count(), 0);
        assert!(a.last_hop_children().is_empty());
        // Rebuild the identical result under the original seed: no
        // leftovers from the previous request may leak in.
        let b = two_hop_arena();
        let mut second = Vec::new();
        b.view().encode_into(&mut second);
        assert_eq!(first, second);
    }

    #[test]
    fn push_feature_raw_rejects_malformed_payloads() {
        let mut a = SubgraphArena::new();
        a.reset(VertexId(7));
        assert!(!a.push_feature_raw(VertexId(1), &[1, 2])); // short header
        let mut truncated = raw_feature(&[1.0, 2.0]);
        truncated.pop();
        assert!(!a.push_feature_raw(VertexId(1), &truncated));
        let mut oversized = raw_feature(&[1.0]);
        oversized.push(0);
        assert!(!a.push_feature_raw(VertexId(1), &oversized));
        assert_eq!(a.feature_count(), 0);
        assert!(a.push_feature_raw(VertexId(1), &raw_feature(&[]))); // empty vec is legal
        assert_eq!(a.feature_count(), 1);
    }

    #[test]
    fn empty_arena_encodes_like_empty_subgraph() {
        let mut a = SubgraphArena::new();
        a.reset(VertexId(5));
        let mut borrowed = Vec::new();
        a.view().encode_into(&mut borrowed);
        let mut owned = Vec::new();
        SampledSubgraph::new(VertexId(5)).encode_into(&mut owned);
        assert_eq!(borrowed, owned);
    }
}
