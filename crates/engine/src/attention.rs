//! Self-attention with KV caching, supporting both MHSA and GQA.
//!
//! Three execution paths share one fused, flash-style attention core,
//! [`Attention::attend_tile`], which attends a tile of consecutive
//! query rows of one sequence:
//!
//! * token-at-a-time decode ([`Attention::forward`] and the
//!   workspace-backed [`Attention::forward_ws`]) — 1-row tiles,
//! * multi-token causal prefill ([`Attention::prefill`]) — one GEMM per
//!   projection for the whole prompt, then tiles of up to
//!   [`PREFILL_TILE_ROWS`] rows, attended in parallel,
//! * cross-sequence batched decode ([`Attention::forward_batch`]) — one
//!   GEMM per projection for a batch of independent sequences, then one
//!   1-row tile per sequence.
//!
//! The core streams directly over the paged KV block chain, one KV
//! head and one 64-position span (`SPAN`) at a time, walking each
//! span's KV-block pieces in position order. A span inside every row's
//! window is read once for all (rows × GQA group heads) queries of the
//! tile; the leading span of a sliding window and the diagonal spans
//! are folded per row. Queries go in lane groups of four through three
//! kernels: scores as 4-query × 2-key register tiles, the online-softmax
//! weigh with one query per lane, and weighted sums of two queries per
//! pass over the shared value rows (a lone query, as in MHSA decode,
//! puts keys in the lanes instead). Each (row, head) keeps its own
//! [`OnlineSoftmax`], so the full `O(context)` score row is never
//! materialized. Span boundaries are a pure function of (window start,
//! visible positions), every score is bitwise one `dot_kernel`, and
//! every kernel performs the per-row operations in the per-row order,
//! so every path folds the same values in the same order and all three
//! stay bitwise identical to each other.

use crate::blockpool::BlockPool;
use crate::config::EngineConfig;
use crate::flash::{weigh_lanes, weighted_sum, weighted_sum_lanes, OnlineSoftmax, LANES};
use crate::model::{Linear, Workspace};
use crate::quant::QuantMode;
use crate::tensor::{score1, score4, Matrix, RopeTable, PARALLEL_FLOP_THRESHOLD};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

/// Default KV-block size in token positions, matching the serving
/// layer's default paged-allocator block (`kv_block_tokens`).
pub const DEFAULT_BLOCK_TOKENS: usize = 16;

/// Query rows per prefill attention tile: each KV block inside every
/// row's window is read and scored once per tile instead of once per
/// row.
const PREFILL_TILE_ROWS: usize = 8;

/// Positions per softmax chunk: the core folds `[pos, next multiple of
/// SPAN)` at a time, whatever the KV block size, so per-call overhead
/// is paid once per span and chunk boundaries depend only on (window
/// start, visible positions).
const SPAN: usize = 64;

/// One fixed-size block of KV storage: `block_tokens` consecutive
/// positions across every layer. Keys/values for layer `l`, in-block
/// slot `s` live at `(l * block_tokens + s) * kv_dim`. Blocks are shared
/// between caches (and the [`crate::PrefixCache`] trie) behind `Arc`;
/// the strong count *is* the reference count that keeps a block alive.
#[derive(Debug, Clone)]
pub struct KvBlock {
    keys: Vec<f32>,
    vals: Vec<f32>,
}

impl KvBlock {
    /// Zero-filled block storage for `layers × block_tokens` positions.
    pub(crate) fn zeroed(layers: usize, block_tokens: usize, kv_dim: usize) -> Self {
        Self {
            keys: vec![0.0; layers * block_tokens * kv_dim],
            vals: vec![0.0; layers * block_tokens * kv_dim],
        }
    }
}

/// Per-layer key/value cache backed by fixed-size shared blocks.
///
/// Position `p` lives in block `p / block_tokens`, slot `p %
/// block_tokens`. Each block spans *all* layers, so a whole block can be
/// shared between sequences with one `Arc`. Appends write through
/// [`Arc::make_mut`]: a block referenced only by this cache is written
/// in place (no copy, storage never moves), while a block shared with
/// another cache or the prefix trie is copied first — the copy-on-write
/// rule that lets divergent continuations never corrupt a shared prefix.
#[derive(Debug, Clone)]
pub struct KvCache {
    kv_dim: usize,
    max_seq: usize,
    block_tokens: usize,
    blocks: Vec<Arc<KvBlock>>,
    /// Cached positions per layer.
    lens: Vec<usize>,
    /// Storage recycler: blocks dropped by `truncate` return here when
    /// this cache holds the last reference.
    pool: Option<Arc<BlockPool>>,
}

impl KvCache {
    /// Empty cache for `layers` layers with the given KV width and
    /// capacity for `max_seq` positions per layer, using the default
    /// block size and no shared pool.
    pub fn new(layers: usize, kv_dim: usize, max_seq: usize) -> Self {
        Self {
            kv_dim,
            max_seq,
            block_tokens: DEFAULT_BLOCK_TOKENS,
            blocks: Vec::new(),
            lens: vec![0; layers],
            pool: None,
        }
    }

    /// Empty cache drawing and recycling its block storage through a
    /// shared [`BlockPool`] (which fixes `layers`, `kv_dim`, and the
    /// block size).
    pub fn in_pool(pool: Arc<BlockPool>, max_seq: usize) -> Self {
        Self {
            kv_dim: pool.kv_dim(),
            max_seq,
            block_tokens: pool.block_tokens(),
            blocks: Vec::new(),
            lens: vec![0; pool.layers()],
            pool: Some(pool),
        }
    }

    /// Cached positions (same across layers once a forward pass
    /// completes). Zero for a cache with no layers.
    pub fn len(&self) -> usize {
        self.lens.first().copied().unwrap_or(0)
    }

    /// Cached positions for one layer (mid-forward, deeper layers lag
    /// the first by one position).
    pub fn layer_len(&self, layer: usize) -> usize {
        self.lens[layer]
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Token positions per block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// The blocks currently backing this cache.
    pub(crate) fn blocks(&self) -> &[Arc<KvBlock>] {
        &self.blocks
    }

    /// Seed an *empty* cache with already-computed prefix blocks (every
    /// block full). Subsequent appends continue at position
    /// `blocks.len() * block_tokens`, exactly as if this cache had
    /// prefilled the prefix itself — the blocks hold identical floats,
    /// so everything downstream is bitwise identical too.
    pub(crate) fn adopt_prefix(&mut self, blocks: &[Arc<KvBlock>]) {
        assert!(self.is_empty(), "prefix adoption requires an empty cache");
        let tokens = blocks.len() * self.block_tokens;
        assert!(tokens <= self.max_seq, "prefix exceeds cache capacity");
        self.blocks.extend(blocks.iter().cloned());
        for l in self.lens.iter_mut() {
            *l = tokens;
        }
    }

    /// Append one position's K and V for a layer.
    pub fn append(&mut self, layer: usize, k: &[f32], v: &[f32]) {
        assert_eq!(k.len(), self.kv_dim);
        assert_eq!(v.len(), self.kv_dim);
        let pos = self.lens[layer];
        assert!(pos < self.max_seq, "KV cache capacity exceeded");
        let (b, slot) = (pos / self.block_tokens, pos % self.block_tokens);
        if b == self.blocks.len() {
            // Layer 0 leads deeper layers, so only it ever opens a block.
            self.blocks.push(match &self.pool {
                Some(pool) => pool.allocate(),
                None => Arc::new(KvBlock::zeroed(
                    self.lens.len(),
                    self.block_tokens,
                    self.kv_dim,
                )),
            });
        }
        // Copy-on-write: cloned caches and trie-resident prefix blocks
        // share storage until someone writes.
        let block = Arc::make_mut(&mut self.blocks[b]);
        let at = (layer * self.block_tokens + slot) * self.kv_dim;
        block.keys[at..at + self.kv_dim].copy_from_slice(k);
        block.vals[at..at + self.kv_dim].copy_from_slice(v);
        self.lens[layer] = pos + 1;
    }

    /// Discard cached positions beyond `len` (speculative-decoding
    /// rollback after a rejected draft token). Whole blocks past the new
    /// end are released (recycled through the pool when unshared).
    pub fn truncate(&mut self, len: usize) {
        for l in self.lens.iter_mut() {
            *l = (*l).min(len);
        }
        let keep = self
            .lens
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .div_ceil(self.block_tokens);
        while self.blocks.len() > keep {
            let block = self.blocks.pop().expect("len checked");
            if let Some(pool) = &self.pool {
                pool.release(block);
            }
        }
    }

    /// Bytes of live cached data (keys and values for every cached
    /// position). Shared blocks are counted in full here; use
    /// [`KvCache::unique_live_positions`] to deduplicate across caches.
    pub fn bytes(&self) -> usize {
        2 * self.lens.iter().sum::<usize>() * self.kv_dim * 4
    }

    /// Live `(layer, position)` pairs held by blocks not yet in `seen`,
    /// inserting this cache's blocks into `seen`. Summing over a set of
    /// caches counts each shared block once.
    pub(crate) fn unique_live_positions(&self, seen: &mut HashSet<usize>) -> usize {
        let len = self.len();
        let mut positions = 0;
        for (b, block) in self.blocks.iter().enumerate() {
            if seen.insert(Arc::as_ptr(block) as usize) {
                positions += len
                    .saturating_sub(b * self.block_tokens)
                    .min(self.block_tokens);
            }
        }
        positions * self.lens.len()
    }

    /// The contiguous key slab for one layer of one block:
    /// `block_tokens × kv_dim` floats, slot-major. The attention core
    /// streams these directly instead of slicing per position.
    pub(crate) fn layer_keys(&self, layer: usize, block: usize) -> &[f32] {
        let span = self.block_tokens * self.kv_dim;
        &self.blocks[block].keys[layer * span..(layer + 1) * span]
    }

    /// The contiguous value slab for one layer of one block.
    pub(crate) fn layer_vals(&self, layer: usize, block: usize) -> &[f32] {
        let span = self.block_tokens * self.kv_dim;
        &self.blocks[block].vals[layer * span..(layer + 1) * span]
    }

    #[cfg(test)]
    fn key_at(&self, layer: usize, pos: usize) -> &[f32] {
        let (b, slot) = (pos / self.block_tokens, pos % self.block_tokens);
        let at = (layer * self.block_tokens + slot) * self.kv_dim;
        &self.blocks[b].keys[at..at + self.kv_dim]
    }

    #[cfg(test)]
    fn val_at(&self, layer: usize, pos: usize) -> &[f32] {
        let (b, slot) = (pos / self.block_tokens, pos % self.block_tokens);
        let at = (layer * self.block_tokens + slot) * self.kv_dim;
        &self.blocks[b].vals[at..at + self.kv_dim]
    }
}

impl Drop for KvCache {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            for block in self.blocks.drain(..) {
                pool.release(block);
            }
        }
    }
}

/// One attention module (Q, K, V, O projections).
#[derive(Debug, Clone)]
pub struct Attention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
    rope: RopeTable,
    sliding_window: Option<usize>,
}

impl Attention {
    /// Build with seeded random weights in the given precision.
    pub fn new(cfg: &EngineConfig, seed: u64, mode: QuantMode) -> Self {
        let h = cfg.hidden;
        let kv = cfg.kv_dim();
        let scale = (6.0 / (2.0 * h as f32)).sqrt();
        Self {
            wq: Linear::random(h, h, seed, scale, mode),
            wk: Linear::random(kv, h, seed.wrapping_add(1), scale, mode),
            wv: Linear::random(kv, h, seed.wrapping_add(2), scale, mode),
            wo: Linear::random(h, h, seed.wrapping_add(3), scale, mode),
            heads: cfg.heads,
            kv_heads: cfg.kv_heads,
            head_dim: cfg.head_dim(),
            rope: RopeTable::new(cfg.head_dim(), cfg.rope_theta),
            sliding_window: cfg.sliding_window,
        }
    }

    /// RoPE-rotate the `heads` heads of `q` and the `kv_heads` heads of
    /// `k` for position `pos`.
    fn rope_qk(&self, q: &mut [f32], k: &mut [f32], pos: usize) {
        let d = self.head_dim;
        for h in 0..self.heads {
            self.rope.apply(&mut q[h * d..(h + 1) * d], pos);
        }
        for h in 0..self.kv_heads {
            self.rope.apply(&mut k[h * d..(h + 1) * d], pos);
        }
    }

    /// The attention core: a tile of consecutive query rows of one
    /// sequence (`q` holds `rows × heads × head_dim` floats; row `r`
    /// sees cached positions `[window_start(v), v)` of `layer` with
    /// `v = first_visible + r`) writes the concatenated head outputs of
    /// every row into `out`.
    ///
    /// Per KV head, cached positions are folded one span chunk
    /// `[pos, next multiple of SPAN)` at a time. The SPAN-aligned range
    /// `[lo, hi)` inside every row's window is folded once for the whole
    /// (rows × GQA group heads) tile; the leading chunks of a sliding
    /// window and the diagonal chunks past the first row's end are
    /// folded per row. Either way each (row, head) folds the same chunks
    /// in the same order as a 1-row tile would — chunk boundaries depend
    /// only on (window start, visible), not on the KV block size or the
    /// tile — and each chunk goes through the split fold: scores,
    /// `weigh` (max, rescale, the engine's `exp_f32`, normalizer), then
    /// the weighted value sum. All of it is inside the bitwise contract,
    /// so decode, prefill, batched and prefix-hit paths stay identical.
    fn attend_tile(
        &self,
        q: &[f32],
        layer: usize,
        cache: &KvCache,
        first_visible: usize,
        scratch: &mut TileScratch,
        out: &mut [f32],
    ) {
        let width = self.heads * self.head_dim;
        let rows = q.len() / width;
        let window_start = |visible: usize| match self.sliding_window {
            Some(w) => visible.saturating_sub(w),
            None => 0,
        };
        // Spans `[lo, hi)` lie inside every row's window: the last row's
        // window starts latest, the first row's prefix ends earliest.
        let lo = window_start(first_visible + rows - 1).next_multiple_of(SPAN);
        let hi = first_visible / SPAN * SPAN;
        let (lo, hi) = if lo < hi {
            (lo, hi)
        } else {
            (usize::MAX, usize::MAX)
        };
        let group = self.heads / self.kv_heads;
        scratch.scores.resize(span_scores(rows * group), 0.0);
        scratch.states.clear();
        scratch
            .states
            .resize(rows * self.heads, OnlineSoftmax::new());
        out.fill(0.0);
        let tile = Tile {
            attn: self,
            q,
            layer,
            cache,
        };
        for kvh in 0..self.kv_heads {
            for r in 0..rows {
                let visible = first_visible + r;
                tile.fold(
                    kvh,
                    r..r + 1,
                    window_start(visible),
                    lo.min(visible),
                    scratch,
                    out,
                );
            }
            tile.fold(kvh, 0..rows, lo, hi, scratch, out);
            for r in 0..rows {
                tile.fold(kvh, r..r + 1, hi, first_visible + r, scratch, out);
            }
        }
        for (os, oh) in scratch
            .states
            .drain(..)
            .zip(out.chunks_exact_mut(self.head_dim))
        {
            os.finish(oh);
        }
    }

    /// Forward one token at absolute position `pos`, reading and
    /// extending the cache for `layer`.
    pub fn forward(&self, x: &[f32], pos: usize, layer: usize, cache: &mut KvCache) -> Vec<f32> {
        let mut q = self.wq.matmul_vec(x);
        let mut k = self.wk.matmul_vec(x);
        let v = self.wv.matmul_vec(x);
        self.rope_qk(&mut q, &mut k, pos);
        cache.append(layer, &k, &v);
        let mut out = vec![0.0f32; self.heads * self.head_dim];
        let mut scratch = TileScratch::new(1, self.heads, self.kv_heads);
        self.attend_tile(
            &q,
            layer,
            cache,
            cache.layer_len(layer),
            &mut scratch,
            &mut out,
        );
        self.wo.matmul_vec(&out)
    }

    /// [`Attention::forward`] against workspace buffers: reads the
    /// normalized activation from `ws.normed`, leaves the projected
    /// output in `ws.proj`, and allocates nothing.
    pub(crate) fn forward_ws(
        &self,
        ws: &mut Workspace,
        pos: usize,
        layer: usize,
        cache: &mut KvCache,
    ) {
        self.wq.matmul_vec_into(&ws.normed, &mut ws.q, &mut ws.xq);
        self.wk.matmul_vec_into(&ws.normed, &mut ws.k, &mut ws.xq);
        self.wv.matmul_vec_into(&ws.normed, &mut ws.v, &mut ws.xq);
        self.rope_qk(&mut ws.q, &mut ws.k, pos);
        cache.append(layer, &ws.k, &ws.v);
        self.attend_tile(
            &ws.q,
            layer,
            cache,
            cache.layer_len(layer),
            &mut ws.attn_tile,
            &mut ws.attn,
        );
        self.wo.matmul_vec_into(&ws.attn, &mut ws.proj, &mut ws.xq);
    }

    /// Causal multi-token prefill: project a whole block of normalized
    /// activations (`xs`, one row per token) with one GEMM per weight
    /// matrix, extend the cache, and attend each token to its causal
    /// prefix in tiles of up to 8 consecutive rows. Row `t` of the
    /// result attends to cached positions `..start + t + 1`, so the
    /// output matches feeding the rows through [`Attention::forward`]
    /// one at a time exactly.
    pub fn prefill(&self, xs: &Matrix, layer: usize, cache: &mut KvCache) -> Matrix {
        let t = xs.rows();
        let start = cache.layer_len(layer);
        let mut q = self.wq.matmul_mat(xs);
        let mut k = self.wk.matmul_mat(xs);
        let v = self.wv.matmul_mat(xs);
        for i in 0..t {
            self.rope_qk(q.row_mut(i), k.row_mut(i), start + i);
        }
        for i in 0..t {
            cache.append(layer, k.row(i), v.row(i));
        }
        let width = self.heads * self.head_dim;
        let mut out = Matrix::zeros(t, width);
        // Tiles are independent, so prefill attends them in parallel
        // above the work threshold, each with its own scratch; every
        // row folds the same chunks either way, so the result stays
        // bitwise equal to the serial (and token-at-a-time) path.
        let flops = t * (start + t) * width;
        let cache = &*cache;
        out.for_each_tile_mut(
            PREFILL_TILE_ROWS,
            flops >= PARALLEL_FLOP_THRESHOLD,
            |r0, tile| {
                let rows = tile.len() / width;
                let mut scratch = TileScratch::new(rows, self.heads, self.kv_heads);
                let q = &q.data()[r0 * width..(r0 + rows) * width];
                self.attend_tile(q, layer, cache, start + r0 + 1, &mut scratch, tile);
            },
        );
        self.wo.matmul_mat(&out)
    }

    /// Batched decode step: one GEMM per projection for a batch of
    /// *independent* sequences (row `b` of `xs` belongs to `caches[b]`
    /// at position `positions[b]`). Weights stream from memory once per
    /// step instead of once per sequence; each row's attention still
    /// runs against its own cache, so results are bitwise identical to
    /// per-sequence [`Attention::forward`] calls.
    pub fn forward_batch(
        &self,
        xs: &Matrix,
        positions: &[usize],
        layer: usize,
        caches: &mut [&mut KvCache],
    ) -> Matrix {
        let b = xs.rows();
        assert_eq!(b, positions.len());
        assert_eq!(b, caches.len());
        let mut q = self.wq.matmul_mat(xs);
        let mut k = self.wk.matmul_mat(xs);
        let v = self.wv.matmul_mat(xs);
        let mut out = Matrix::zeros(b, self.heads * self.head_dim);
        let mut scratch = TileScratch::new(1, self.heads, self.kv_heads);
        for i in 0..b {
            self.rope_qk(q.row_mut(i), k.row_mut(i), positions[i]);
            caches[i].append(layer, k.row(i), v.row(i));
            let visible = caches[i].layer_len(layer);
            self.attend_tile(
                q.row(i),
                layer,
                caches[i],
                visible,
                &mut scratch,
                out.row_mut(i),
            );
        }
        self.wo.matmul_mat(&out)
    }
}

/// Reusable scratch of the attention core: one span of lane-interleaved
/// scores for every query of a tile's GQA group, and one online-softmax
/// state per (row, head). Sized once per tile shape, so a decode loop
/// that keeps one allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct TileScratch {
    scores: Vec<f32>,
    states: Vec<OnlineSoftmax>,
}

impl TileScratch {
    /// Scratch for tiles of up to `rows` query rows.
    pub(crate) fn new(rows: usize, heads: usize, kv_heads: usize) -> Self {
        Self {
            scores: Vec::with_capacity(span_scores(rows * heads / kv_heads)),
            states: Vec::with_capacity(rows * heads),
        }
    }
}

/// Score slots for `nq` queries over one span: whole lane groups.
fn span_scores(nq: usize) -> usize {
    nq.next_multiple_of(LANES) * SPAN
}

/// What every span fold of one [`Attention::attend_tile`] call shares.
struct Tile<'a> {
    attn: &'a Attention,
    q: &'a [f32],
    layer: usize,
    cache: &'a KvCache,
}

impl Tile<'_> {
    /// Fold cached positions `[from, to)` of KV head `kvh` into tile
    /// rows `rows`, one span chunk `[pos, next multiple of SPAN)` at a
    /// time. The `rows × group` queries go in lane groups of [`LANES`]
    /// (the last padded with copies of its last query): each group
    /// scores the chunk's keys, weighs its lanes, then adds the
    /// weighted value rows into its (row, head) accumulators in `out`,
    /// walking the chunk's KV-block pieces in position order.
    fn fold(
        &self,
        kvh: usize,
        rows: Range<usize>,
        from: usize,
        to: usize,
        scratch: &mut TileScratch,
        out: &mut [f32],
    ) {
        let (heads, d) = (self.attn.heads, self.attn.head_dim);
        let group = heads / self.attn.kv_heads;
        let (bt, kv_dim) = (self.cache.block_tokens, self.cache.kv_dim);
        let scale = 1.0 / (d as f32).sqrt();
        // Query `i` of the tile is head `kvh * group + i % group` of row
        // `rows.start + i / group`; its output slot in `out` and its
        // softmax state share one index.
        let slot = |i: usize| (rows.start + i / group) * heads + kvh * group + i % group;
        let nq = rows.len() * group;
        // The KV-block pieces of `[pos, end)`: (block, first position,
        // length), with the offset of KV head `kvh` in the block slab.
        let pieces = |pos: usize, end: usize| {
            let mut at = pos;
            std::iter::from_fn(move || {
                (at < end).then(|| {
                    let (block, start) = (at / bt, at);
                    at = end.min((block + 1) * bt);
                    (block, start, at - start, (start % bt) * kv_dim + kvh * d)
                })
            })
        };
        let mut pos = from;
        while pos < to {
            let end = to.min((pos / SPAN + 1) * SPAN);
            let n = end - pos;
            let groups =
                scratch.scores[..nq.next_multiple_of(LANES) * n].chunks_exact_mut(LANES * n);
            for (g, lanes) in groups.enumerate() {
                let real = (nq - g * LANES).min(LANES);
                if real == 1 {
                    // A lone query (MHSA decode, a diagonal row): keys
                    // take the lanes instead, so no lane is padding.
                    let s = slot(g * LANES);
                    let (q, scores) = (&self.q[s * d..][..d], &mut lanes[..n]);
                    for (block, start, len, at) in pieces(pos, end) {
                        score1(
                            q,
                            &self.cache.layer_keys(self.layer, block)[at..],
                            kv_dim,
                            scale,
                            &mut scores[start - pos..][..len],
                        );
                    }
                    let acc = &mut out[s * d..][..d];
                    if scratch.states[s].weigh(scores, acc) {
                        for (block, start, len, at) in pieces(pos, end) {
                            weighted_sum(
                                acc,
                                &scores[start - pos..][..len],
                                &self.cache.layer_vals(self.layer, block)[at..],
                                kv_dim,
                            );
                        }
                    }
                    continue;
                }
                let slots: [usize; LANES] =
                    std::array::from_fn(|k| slot(g * LANES + k.min(real - 1)));
                let q = slots.map(|s| &self.q[s * d..][..d]);
                for (block, start, len, at) in pieces(pos, end) {
                    score4(
                        q,
                        &self.cache.layer_keys(self.layer, block)[at..],
                        kv_dim,
                        scale,
                        &mut lanes[LANES * (start - pos)..][..LANES * len],
                    );
                }
                let slots = &slots[..real];
                let live = weigh_lanes(&mut scratch.states, out, slots, lanes);
                for (block, start, len, at) in pieces(pos, end) {
                    weighted_sum_lanes(
                        out,
                        d,
                        slots,
                        live,
                        &lanes[LANES * (start - pos)..],
                        &self.cache.layer_vals(self.layer, block)[at..],
                        kv_dim,
                        len,
                    );
                }
            }
            pos = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_roundtrip_and_truncate() {
        let mut c = KvCache::new(2, 4, 8);
        assert!(c.is_empty());
        c.append(0, &[1.0; 4], &[2.0; 4]);
        c.append(1, &[1.0; 4], &[2.0; 4]);
        c.append(0, &[3.0; 4], &[4.0; 4]);
        c.append(1, &[3.0; 4], &[4.0; 4]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.key_at(0, 1), &[3.0; 4]);
        assert_eq!(c.bytes(), 2 * 2 * 2 * 4 * 4);
        c.truncate(1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.val_at(1, 0), &[2.0; 4]);
    }

    #[test]
    fn zero_layer_cache_reports_empty() {
        // Regression: `len()` indexed `keys[0]` and panicked on a cache
        // built with zero layers.
        let c = KvCache::new(0, 8, 16);
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn appends_never_move_the_backing_store() {
        // Decode-time appends write in place: filling a block never
        // moves it, and opening the next block leaves every earlier
        // block's storage untouched (only *shared* blocks are copied,
        // and an unshared cache shares nothing).
        let mut c = KvCache::new(2, 4, 64);
        c.append(0, &[1.0; 4], &[1.0; 4]);
        c.append(1, &[1.0; 4], &[1.0; 4]);
        let first_block = Arc::as_ptr(&c.blocks[0]);
        let first_keys = c.blocks[0].keys.as_ptr();
        for _ in 1..40 {
            c.append(0, &[1.0; 4], &[1.0; 4]);
            c.append(1, &[1.0; 4], &[1.0; 4]);
        }
        assert_eq!(c.len(), 40);
        assert_eq!(c.blocks.len(), 3, "40 positions / 16-token blocks");
        assert_eq!(first_block, Arc::as_ptr(&c.blocks[0]));
        assert_eq!(first_keys, c.blocks[0].keys.as_ptr());
    }

    #[test]
    fn cloned_caches_share_blocks_until_someone_writes() {
        let mut a = KvCache::new(1, 2, 64);
        for i in 0..20 {
            a.append(0, &[i as f32; 2], &[i as f32; 2]);
        }
        let mut b = a.clone();
        assert_eq!(Arc::as_ptr(&a.blocks[0]), Arc::as_ptr(&b.blocks[0]));
        assert_eq!(Arc::as_ptr(&a.blocks[1]), Arc::as_ptr(&b.blocks[1]));
        // Divergent continuation: b writes into the shared tail block.
        b.append(0, &[99.0; 2], &[99.0; 2]);
        a.append(0, &[-7.0; 2], &[-7.0; 2]);
        // The full block stays shared; the tail block was copied on
        // write, so neither clone sees the other's continuation.
        assert_eq!(Arc::as_ptr(&a.blocks[0]), Arc::as_ptr(&b.blocks[0]));
        assert_ne!(Arc::as_ptr(&a.blocks[1]), Arc::as_ptr(&b.blocks[1]));
        assert_eq!(a.key_at(0, 20), &[-7.0; 2]);
        assert_eq!(b.key_at(0, 20), &[99.0; 2]);
        assert_eq!(a.key_at(0, 19), b.key_at(0, 19), "shared prefix intact");
    }

    #[test]
    fn unique_live_positions_counts_shared_blocks_once() {
        let mut a = KvCache::new(2, 4, 64);
        for i in 0..16 {
            for layer in 0..2 {
                a.append(layer, &[i as f32; 4], &[i as f32; 4]);
            }
        }
        let b = a.clone();
        let mut seen = HashSet::new();
        let total = a.unique_live_positions(&mut seen) + b.unique_live_positions(&mut seen);
        // One full 16-position block, two layers, counted once — not
        // twice — even though two caches reference it.
        assert_eq!(total, 16 * 2);
        assert_eq!(a.bytes() + b.bytes(), 2 * total * 4 * 4 * 2);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn append_past_capacity_panics() {
        let mut c = KvCache::new(1, 4, 2);
        for _ in 0..3 {
            c.append(0, &[0.0; 4], &[0.0; 4]);
        }
    }

    #[test]
    fn truncate_then_append_overwrites() {
        let mut c = KvCache::new(1, 2, 4);
        c.append(0, &[1.0, 1.0], &[1.0, 1.0]);
        c.append(0, &[2.0, 2.0], &[2.0, 2.0]);
        c.truncate(1);
        c.append(0, &[9.0, 9.0], &[8.0, 8.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.key_at(0, 1), &[9.0, 9.0]);
        assert_eq!(c.val_at(0, 1), &[8.0, 8.0]);
    }

    #[test]
    fn attention_output_is_deterministic() {
        let cfg = EngineConfig::tiny();
        let attn = Attention::new(&cfg, 7, QuantMode::F32);
        let x: Vec<f32> = (0..cfg.hidden).map(|i| (i as f32 * 0.1).sin()).collect();
        let mut c1 = KvCache::new(1, cfg.kv_dim(), cfg.max_seq);
        let mut c2 = KvCache::new(1, cfg.kv_dim(), cfg.max_seq);
        let y1 = attn.forward(&x, 0, 0, &mut c1);
        let y2 = attn.forward(&x, 0, 0, &mut c2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn gqa_group1_matches_structure_of_mhsa() {
        // With kv_heads == heads the GQA code path degenerates to MHSA:
        // same cache growth per position and same output length.
        let cfg = EngineConfig::tiny();
        let attn = Attention::new(&cfg, 3, QuantMode::F32);
        let mut cache = KvCache::new(1, cfg.kv_dim(), cfg.max_seq);
        let x = vec![0.3f32; cfg.hidden];
        let y = attn.forward(&x, 0, 0, &mut cache);
        assert_eq!(y.len(), cfg.hidden);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 2 * cfg.kv_dim() * 4);
    }

    #[test]
    fn gqa_cache_is_smaller_than_mhsa() {
        let mhsa = EngineConfig::tiny();
        let gqa = EngineConfig::tiny_gqa();
        let am = Attention::new(&mhsa, 3, QuantMode::F32);
        let ag = Attention::new(&gqa, 3, QuantMode::F32);
        let mut cm = KvCache::new(1, mhsa.kv_dim(), mhsa.max_seq);
        let mut cg = KvCache::new(1, gqa.kv_dim(), gqa.max_seq);
        let x = vec![0.5f32; mhsa.hidden];
        for pos in 0..8 {
            am.forward(&x, pos, 0, &mut cm);
            ag.forward(&x, pos, 0, &mut cg);
        }
        // tiny_gqa has 1 KV head vs 4: cache is 4x smaller.
        assert_eq!(cm.bytes(), 4 * cg.bytes());
    }

    #[test]
    fn sliding_window_ignores_distant_history() {
        // Two different histories that agree on the last `window` tokens
        // must produce identical outputs under windowed attention...
        let cfg = EngineConfig::tiny_swa(2);
        let attn = Attention::new(&cfg, 21, QuantMode::F32);
        let recent = [vec![0.5f32; cfg.hidden], vec![-0.2f32; cfg.hidden]];
        let old_a = vec![0.9f32; cfg.hidden];
        let old_b = vec![-0.9f32; cfg.hidden];
        let x = vec![0.1f32; cfg.hidden];
        let run = |old: &Vec<f32>| {
            let mut c = KvCache::new(1, cfg.kv_dim(), cfg.max_seq);
            attn.forward(old, 0, 0, &mut c);
            attn.forward(&recent[0], 1, 0, &mut c);
            attn.forward(&recent[1], 2, 0, &mut c);
            attn.forward(&x, 3, 0, &mut c)
        };
        // The window covers positions {2, 3}: position 0 is out of range
        // once x lands at position 3... but position 1 leaves the window
        // only at span > 2. With window 2 and 4 positions cached, start=2.
        assert_eq!(run(&old_a), run(&old_b));

        // ...while full attention distinguishes them.
        let full = Attention::new(&EngineConfig::tiny(), 21, QuantMode::F32);
        let run_full = |old: &Vec<f32>| {
            let mut c = KvCache::new(
                1,
                EngineConfig::tiny().kv_dim(),
                EngineConfig::tiny().max_seq,
            );
            full.forward(old, 0, 0, &mut c);
            full.forward(&recent[0], 1, 0, &mut c);
            full.forward(&recent[1], 2, 0, &mut c);
            full.forward(&x, 3, 0, &mut c)
        };
        assert_ne!(run_full(&old_a), run_full(&old_b));
    }

    #[test]
    fn window_larger_than_context_matches_full_attention() {
        let full_cfg = EngineConfig::tiny();
        let swa_cfg = EngineConfig::tiny_swa(64);
        let a_full = Attention::new(&full_cfg, 5, QuantMode::F32);
        let a_swa = Attention::new(&swa_cfg, 5, QuantMode::F32);
        let x = vec![0.3f32; full_cfg.hidden];
        let mut c1 = KvCache::new(1, full_cfg.kv_dim(), full_cfg.max_seq);
        let mut c2 = KvCache::new(1, swa_cfg.kv_dim(), swa_cfg.max_seq);
        for pos in 0..6 {
            let y1 = a_full.forward(&x, pos, 0, &mut c1);
            let y2 = a_swa.forward(&x, pos, 0, &mut c2);
            assert_eq!(y1, y2, "pos {pos}");
        }
    }

    #[test]
    fn attention_attends_to_history() {
        // Feeding different histories must change the output for the
        // same current token.
        let cfg = EngineConfig::tiny();
        let attn = Attention::new(&cfg, 11, QuantMode::F32);
        let a = vec![0.9f32; cfg.hidden];
        let b = vec![-0.9f32; cfg.hidden];
        let x = vec![0.1f32; cfg.hidden];
        let mut c1 = KvCache::new(1, cfg.kv_dim(), cfg.max_seq);
        attn.forward(&a, 0, 0, &mut c1);
        let y1 = attn.forward(&x, 1, 0, &mut c1);
        let mut c2 = KvCache::new(1, cfg.kv_dim(), cfg.max_seq);
        attn.forward(&b, 0, 0, &mut c2);
        let y2 = attn.forward(&x, 1, 0, &mut c2);
        assert_ne!(y1, y2);
    }

    #[test]
    fn prefill_matches_token_at_a_time_bitwise() {
        for cfg in [
            EngineConfig::tiny(),
            EngineConfig::tiny_gqa(),
            EngineConfig::tiny_swa(3),
        ] {
            let attn = Attention::new(&cfg, 13, QuantMode::F32);
            let t = 6;
            let mut xs = Matrix::zeros(t, cfg.hidden);
            for i in 0..t {
                for (j, v) in xs.row_mut(i).iter_mut().enumerate() {
                    *v = ((i * 31 + j) as f32 * 0.17).sin();
                }
            }
            let mut c_loop = KvCache::new(1, cfg.kv_dim(), cfg.max_seq);
            let loop_out: Vec<Vec<f32>> = (0..t)
                .map(|i| attn.forward(xs.row(i), i, 0, &mut c_loop))
                .collect();
            let mut c_batch = KvCache::new(1, cfg.kv_dim(), cfg.max_seq);
            let batch_out = attn.prefill(&xs, 0, &mut c_batch);
            for (i, row) in loop_out.iter().enumerate() {
                assert_eq!(batch_out.row(i), row.as_slice(), "row {i}");
            }
            assert_eq!(c_loop.len(), c_batch.len());
            assert_eq!(c_loop.key_at(0, t - 1), c_batch.key_at(0, t - 1));
        }
    }

    #[test]
    fn forward_batch_matches_per_sequence_forward_bitwise() {
        let cfg = EngineConfig::tiny_gqa();
        let attn = Attention::new(&cfg, 17, QuantMode::F32);
        // Three sequences at different depths.
        let histories = [1usize, 3, 5];
        let mut solo_caches: Vec<KvCache> = Vec::new();
        let mut batch_caches: Vec<KvCache> = Vec::new();
        for (s, &depth) in histories.iter().enumerate() {
            let mut ca = KvCache::new(1, cfg.kv_dim(), cfg.max_seq);
            let mut cb = ca.clone();
            for p in 0..depth {
                let x: Vec<f32> = (0..cfg.hidden)
                    .map(|j| ((s * 100 + p * 10 + j) as f32 * 0.07).sin())
                    .collect();
                attn.forward(&x, p, 0, &mut ca);
                attn.forward(&x, p, 0, &mut cb);
            }
            solo_caches.push(ca);
            batch_caches.push(cb);
        }
        let mut xs = Matrix::zeros(3, cfg.hidden);
        for b in 0..3 {
            for (j, v) in xs.row_mut(b).iter_mut().enumerate() {
                *v = ((b * 7 + j) as f32 * 0.11).cos();
            }
        }
        let positions: Vec<usize> = histories.to_vec();
        let solo: Vec<Vec<f32>> = (0..3)
            .map(|b| attn.forward(xs.row(b), positions[b], 0, &mut solo_caches[b]))
            .collect();
        let mut cache_refs: Vec<&mut KvCache> = batch_caches.iter_mut().collect();
        let batched = attn.forward_batch(&xs, &positions, 0, &mut cache_refs);
        for (b, row) in solo.iter().enumerate() {
            assert_eq!(batched.row(b), row.as_slice(), "sequence {b}");
        }
    }
}
