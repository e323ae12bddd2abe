//! Random linear network coding (RLNC) over GF(2⁸): the third gossip
//! regime, beyond the paper.
//!
//! The paper's Theorem 1.1 schedules commit each message to one tree of
//! the packing, which produces a convoy effect when trees overlap (the
//! rr regression recorded in BENCH_SIM.md, PR 5). Network coding is
//! convoy-free by construction: messages are grouped into *generations*
//! of [`GossipConfig::rlnc`](crate::gossip::GossipConfig::rlnc)'s
//! `generation_size` symbols, and a relay
//! broadcasts a seeded-random GF(2⁸) combination of everything it has
//! received of one generation — any *innovative* packet (one that grows
//! the receiver's coefficient rank) helps every receiver, no matter
//! which tree "owns" the symbols. A node decodes a generation once its
//! received-coefficient matrix reaches full rank.
//!
//! Three layers live here:
//!
//! * [`gf256`] — the field: log/exp-table multiply plus a full 256×256
//!   product table driving [`gf256::axpy`], the row-update kernel every
//!   elimination and combination step runs on (the `c == 1` path is a
//!   pure XOR loop the compiler vectorizes; general `c` is one table row
//!   per scalar, applied byte-wise over the packed row).
//! * [`RlncDecoder`] — per-(node, generation) state: the coefficient
//!   matrix kept in row-echelon form by incremental Gaussian
//!   elimination, innovative-packet detection (a packet that reduces to
//!   zero against the pivot rows changes nothing and is counted as
//!   wasted bandwidth), rank tracking, and back-substitution decode.
//! * `rlnc_schedule` (crate-internal) — the centralized round loop
//!   behind [`GossipConfig::Rlnc`](crate::gossip::GossipConfig::Rlnc):
//!   per round every vertex holding part of a still-needed generation
//!   picks one seeded-uniform generation among those a neighbor still
//!   needs and broadcasts a seeded-random combination of its rows. All
//!   coefficient draws come from one `StdRng` seeded by
//!   `run seed ⊕ mix(rlnc seed)`, so the relay digest pins the schedule
//!   bit-for-bit across runs and engines (docs/DETERMINISM.md).
//!
//! Fault behaviour differs from the tree schedules by design: there is
//! no repair pass, because there is nothing to repair — coded packets
//! are not bound to trees, so dead vertices only shrink each
//! generation's achievable rank to the span still held by survivors
//! (symbols whose every independent combination died are counted lost,
//! exactly like a tree origin dying before its first relay).

use crate::gossip::{GossipReport, MessageOrigin, WaveSample};
use crate::schedule::{idle_until_next_event, relay_hash, tree_ok, BitRows};
use decomp_congest::FaultState;
use decomp_core::packing::DomTreePacking;
use decomp_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest supported generation size: coefficients are one GF(2⁸)
/// symbol each and pivot bookkeeping is one byte per column.
pub const MAX_GENERATION: usize = 255;

/// GF(2⁸) arithmetic, x⁸ + x⁴ + x³ + x² + 1 (0x11d), generator α = 2.
///
/// All tables are computed at compile time. Multiplication is the
/// classic log/exp lookup; [`axpy`](gf256::axpy) — `dst ^= c · src` over packed byte
/// rows — instead walks one row of the full 256×256 product table so
/// the inner loop is a single dependent lookup per byte (and a plain
/// vectorizable XOR when `c == 1`).
pub mod gf256 {
    /// The reduction polynomial, sans the x⁸ term.
    const POLY: u16 = 0x11d;

    /// Carry-less multiply mod `POLY` — the compile-time reference the
    /// tables are built from (and the oracle the tests check against).
    const fn mul_slow(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let hi = a & 0x80;
            a <<= 1;
            if hi != 0 {
                a ^= (POLY & 0xff) as u8;
            }
            b >>= 1;
        }
        acc
    }

    const fn build_exp_log() -> ([u8; 512], [u8; 256]) {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x = 1u8;
        let mut i = 0;
        while i < 255 {
            exp[i] = x;
            log[x as usize] = i as u8;
            x = mul_slow(x, 2);
            i += 1;
        }
        // Mirror the cycle so `exp[log a + log b]` needs no reduction
        // (the sum is at most 508).
        while i < 510 {
            exp[i] = exp[i - 255];
            i += 1;
        }
        (exp, log)
    }

    /// `EXP[i] = α^i` for `i < 510` (doubled period — the mirrored upper half spares `mul` a reduction).
    pub static EXP: [u8; 512] = build_exp_log().0;
    /// `LOG[x] = log_α x` for `x ≠ 0`; `LOG[0]` is unused.
    pub static LOG: [u8; 256] = build_exp_log().1;

    const fn build_mul() -> [[u8; 256]; 256] {
        let mut t = [[0u8; 256]; 256];
        let mut a = 1;
        while a < 256 {
            let mut b = 1;
            while b < 256 {
                t[a][b] = mul_slow(a as u8, b as u8);
                b += 1;
            }
            a += 1;
        }
        t
    }

    /// Full product table: `MUL[a][b] = a · b`. 64 KiB, the price of a
    /// branchless [`axpy`] inner loop.
    pub static MUL: [[u8; 256]; 256] = build_mul();

    /// Field product via log/exp lookup.
    #[inline]
    pub fn mul(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
        }
    }

    /// Multiplicative inverse: `α^(255 − log a)`.
    ///
    /// # Panics
    /// Panics on `a == 0` (zero has no inverse).
    #[inline]
    pub fn inv(a: u8) -> u8 {
        assert!(a != 0, "0 has no inverse in GF(2^8)");
        EXP[255 - LOG[a as usize] as usize]
    }

    /// `a / b` = `a · b⁻¹`.
    ///
    /// # Panics
    /// Panics on `b == 0`.
    #[inline]
    pub fn div(a: u8, b: u8) -> u8 {
        mul(a, inv(b))
    }

    /// `dst[i] ^= c · src[i]` — the row-update kernel (addition in
    /// characteristic 2 is XOR, so this is also the subtraction every
    /// elimination step needs).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn axpy(dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "axpy rows must match");
        match c {
            0 => {}
            1 => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d ^= s;
                }
            }
            _ => {
                let row = &MUL[c as usize];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d ^= row[s as usize];
                }
            }
        }
    }

    /// `row[i] = c · row[i]` in place.
    pub fn scale(row: &mut [u8], c: u8) {
        match c {
            0 => row.fill(0),
            1 => {}
            _ => {
                let tab = &MUL[c as usize];
                for x in row {
                    *x = tab[*x as usize];
                }
            }
        }
    }
}

/// Bytes of one decoder slab: `size` rows of `size + plen` bytes
/// (coefficients then payload), followed by `size` pivot bytes —
/// `pivots[col] = row index + 1`, 0 meaning the column has no pivot yet.
pub(crate) fn slab_bytes(size: usize, plen: usize) -> usize {
    size * (size + plen) + size
}

/// One incremental Gaussian-elimination step against the echelon rows in
/// `slab`: reduces `packet` (coefficients ++ payload, clobbered) by each
/// pivot row it meets; if a nonzero remainder survives, normalizes it to
/// a leading 1 and installs it as row `rank`, returning `true`
/// (innovative). A packet inside the received span reduces to zero and
/// returns `false`.
pub(crate) fn slab_receive(
    slab: &mut [u8],
    size: usize,
    plen: usize,
    rank: usize,
    packet: &mut [u8],
) -> bool {
    let stride = size + plen;
    debug_assert_eq!(packet.len(), stride);
    let (rows, pivots) = slab.split_at_mut(size * stride);
    for col in 0..size {
        let c = packet[col];
        if c == 0 {
            continue;
        }
        let p = pivots[col] as usize;
        if p == 0 {
            // New pivot column: normalize (entries left of `col` are
            // already zero) and install in echelon order.
            if c != 1 {
                gf256::scale(&mut packet[col..], gf256::inv(c));
            }
            rows[rank * stride..(rank + 1) * stride].copy_from_slice(packet);
            pivots[col] = (rank + 1) as u8;
            return true;
        }
        let row = &rows[(p - 1) * stride..p * stride];
        // Pivot rows are normalized, so subtracting c · row zeroes
        // `packet[col]` (their entries left of `col` are zero too).
        gf256::axpy(&mut packet[col..], &row[col..], c);
    }
    false
}

/// Writes a seeded-random combination of the first `rank` slab rows into
/// `out` (length `size + plen`). Draws exactly `rank` coefficient bytes
/// from `rng`, so the stream position is a function of the decoder rank
/// alone — the determinism contract of the schedule digest.
pub(crate) fn slab_combine(
    slab: &[u8],
    size: usize,
    plen: usize,
    rank: usize,
    rng: &mut impl Rng,
    out: &mut [u8],
) {
    let stride = size + plen;
    debug_assert_eq!(out.len(), stride);
    out.fill(0);
    for r in 0..rank {
        let c: u8 = rng.gen();
        gf256::axpy(out, &slab[r * stride..(r + 1) * stride], c);
    }
}

/// Per-(node, generation) RLNC decoder: received coefficient vectors
/// (plus optional payload bytes) kept in row-echelon form by incremental
/// Gaussian elimination.
///
/// `size` is the generation size (number of coefficient columns, at most
/// [`MAX_GENERATION`]); `payload_len` is the byte length each packet's
/// payload carries alongside its coefficients (0 for coefficient-only
/// tracking, as the centralized schedule does).
pub struct RlncDecoder {
    size: usize,
    plen: usize,
    rank: usize,
    slab: Box<[u8]>,
    scratch: Box<[u8]>,
}

impl RlncDecoder {
    /// An empty decoder for one generation.
    ///
    /// # Panics
    /// Panics if `size` is 0 or exceeds [`MAX_GENERATION`].
    pub fn new(size: usize, payload_len: usize) -> Self {
        assert!(
            (1..=MAX_GENERATION).contains(&size),
            "generation size must be in 1..={MAX_GENERATION}"
        );
        RlncDecoder {
            size,
            plen: payload_len,
            rank: 0,
            slab: vec![0u8; slab_bytes(size, payload_len)].into_boxed_slice(),
            scratch: vec![0u8; size + payload_len].into_boxed_slice(),
        }
    }

    /// Generation size (coefficient columns).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Payload bytes carried per packet.
    pub fn payload_len(&self) -> usize {
        self.plen
    }

    /// Current rank of the received coefficient matrix.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether the matrix has full rank (every symbol decodable).
    pub fn is_complete(&self) -> bool {
        self.rank == self.size
    }

    /// Feeds one coded packet (`size` coefficient bytes then
    /// `payload_len` payload bytes); returns whether it was innovative.
    ///
    /// # Panics
    /// Panics if `packet` has the wrong length.
    pub fn receive(&mut self, packet: &[u8]) -> bool {
        assert_eq!(packet.len(), self.size + self.plen, "malformed packet");
        self.scratch.copy_from_slice(packet);
        if slab_receive(
            &mut self.slab,
            self.size,
            self.plen,
            self.rank,
            &mut self.scratch,
        ) {
            self.rank += 1;
            true
        } else {
            false
        }
    }

    /// Feeds the source symbol at coefficient position `pos` (the unit
    /// vector eₚₒₛ) — how origins seed their own generation.
    ///
    /// # Panics
    /// Panics if `pos` is out of range or `payload` has the wrong length.
    pub fn receive_symbol(&mut self, pos: usize, payload: &[u8]) -> bool {
        assert!(pos < self.size, "symbol position out of range");
        assert_eq!(payload.len(), self.plen, "malformed payload");
        self.scratch.fill(0);
        self.scratch[pos] = 1;
        self.scratch[self.size..].copy_from_slice(payload);
        if slab_receive(
            &mut self.slab,
            self.size,
            self.plen,
            self.rank,
            &mut self.scratch,
        ) {
            self.rank += 1;
            true
        } else {
            false
        }
    }

    /// Writes a seeded-random combination of the received rows into
    /// `out` (`size + payload_len` bytes) — what a relay broadcasts.
    /// Draws exactly [`rank`](Self::rank) bytes from `rng`.
    ///
    /// # Panics
    /// Panics if `out` has the wrong length.
    pub fn combine(&self, rng: &mut impl Rng, out: &mut [u8]) {
        assert_eq!(out.len(), self.size + self.plen, "malformed buffer");
        slab_combine(&self.slab, self.size, self.plen, self.rank, rng, out);
    }

    /// Back-substitution decode: the payloads of the `size` source
    /// symbols, in coefficient order. `None` until
    /// [`is_complete`](Self::is_complete).
    pub fn decode(&self) -> Option<Vec<Vec<u8>>> {
        if !self.is_complete() {
            return None;
        }
        let stride = self.size + self.plen;
        let mut rows = self.slab[..self.size * stride].to_vec();
        let pivots = &self.slab[self.size * stride..];
        // Descending column order: once column `col2 > col` is reduced,
        // its pivot row is the unit vector e_{col2} plus payload, so
        // eliminating it from row `col` touches only column `col2` and
        // the payload bytes.
        let mut tmp = vec![0u8; stride];
        for col in (0..self.size).rev() {
            let r = pivots[col] as usize - 1;
            for col2 in col + 1..self.size {
                let f = rows[r * stride + col2];
                if f != 0 {
                    let r2 = pivots[col2] as usize - 1;
                    tmp.copy_from_slice(&rows[r2 * stride..(r2 + 1) * stride]);
                    gf256::axpy(&mut rows[r * stride..(r + 1) * stride], &tmp, f);
                }
            }
        }
        Some(
            (0..self.size)
                .map(|col| {
                    let r = pivots[col] as usize - 1;
                    rows[r * stride + self.size..(r + 1) * stride].to_vec()
                })
                .collect(),
        )
    }
}

impl std::fmt::Debug for RlncDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RlncDecoder")
            .field("size", &self.size)
            .field("payload_len", &self.plen)
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// The source-side encoder of one generation: a seeded-random
/// combination of `symbols` (all of equal length). Returns
/// `(coefficients, payload)` — test harnesses feed these to a decoder to
/// check `decode(encode(msgs))` round-trips.
///
/// # Panics
/// Panics if `symbols` is empty, oversized, or ragged.
pub fn encode_packet(symbols: &[Vec<u8>], rng: &mut impl Rng) -> (Vec<u8>, Vec<u8>) {
    assert!(
        !symbols.is_empty() && symbols.len() <= MAX_GENERATION,
        "generation size must be in 1..={MAX_GENERATION}"
    );
    let plen = symbols[0].len();
    let mut coeffs = vec![0u8; symbols.len()];
    let mut payload = vec![0u8; plen];
    for (c, s) in coeffs.iter_mut().zip(symbols) {
        assert_eq!(s.len(), plen, "ragged generation");
        *c = rng.gen();
        gf256::axpy(&mut payload, s, *c);
    }
    (coeffs, payload)
}

/// The deterministic per-symbol payload word the distributed RLNC
/// protocol ships and verifies (SplitMix64 of the message index) — a
/// known function of `m` so completion can be checked by decoding.
pub fn symbol_word(m: usize) -> u64 {
    let mut z = (m as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Centralized schedule state: one coefficient-only decoder slab per
/// (vertex, generation), allocated on first reception and freed at
/// lossless completion (a full-span decoder can combine without its
/// rows), plus the counters that let senders stop exactly when no
/// neighbor needs a generation anymore.
struct RlncState<'g> {
    g: &'g Graph,
    gens: usize,
    gsize: usize,
    slab_sz: usize,
    slabs: Vec<Option<Box<[u8]>>>,
    /// Rank of vertex `v` in generation `gen`, flat `v * gens + gen`.
    rank: Vec<u8>,
    /// Achievable rank per generation: the generation size, shrunk by
    /// fault passes to the span the survivors still hold.
    cap: Vec<u8>,
    /// Original size per generation (the lossless `cap`).
    full: Vec<u8>,
    /// Live vertices below `cap`, per generation.
    incomplete_at: Vec<u32>,
    /// Σ `incomplete_at` — the loop's termination counter.
    total_incomplete: usize,
    /// Per (vertex, generation): live neighbors below `cap`. A vertex
    /// stops relaying a generation once this hits zero (monotone —
    /// completions and deaths only decrease it).
    nbr_incomplete: Vec<u32>,
    /// Generations a vertex holds rank in, candidates for its one relay
    /// slot per round; entries are pruned lazily once no neighbor needs
    /// them.
    candidates: Vec<Vec<u32>>,
    cur_slab: usize,
    peak_slab: usize,
    cur_cand: usize,
    peak_cand: usize,
    wasted: usize,
}

impl<'g> RlncState<'g> {
    fn new(g: &'g Graph, gens: usize, gsize: usize, nmsg: usize) -> Self {
        let n = g.n();
        let full: Vec<u8> = (0..gens)
            .map(|gen| gsize.min(nmsg - gen * gsize) as u8)
            .collect();
        let mut nbr_incomplete = vec![0u32; n * gens];
        for v in 0..n {
            let deg = g.neighbors(v).len() as u32;
            nbr_incomplete[v * gens..(v + 1) * gens].fill(deg);
        }
        RlncState {
            g,
            gens,
            gsize,
            slab_sz: slab_bytes(gsize, 0),
            slabs: (0..n * gens).map(|_| None).collect(),
            rank: vec![0; n * gens],
            cap: full.clone(),
            full,
            incomplete_at: vec![n as u32; gens],
            total_incomplete: n * gens,
            nbr_incomplete,
            candidates: vec![Vec::new(); n],
            cur_slab: 0,
            peak_slab: 0,
            cur_cand: 0,
            peak_cand: 0,
            wasted: 0,
        }
    }

    /// Marks `(v, gen)` complete: stops it counting toward neighbors'
    /// demand, and frees the slab when the generation is lossless (the
    /// span is the full coordinate space, so combinations need no rows).
    fn complete(&mut self, v: usize, gen: usize) {
        self.incomplete_at[gen] -= 1;
        self.total_incomplete -= 1;
        let g = self.g;
        for &u in g.neighbors(v) {
            self.nbr_incomplete[u * self.gens + gen] -= 1;
        }
        if self.cap[gen] == self.full[gen] && self.slabs[v * self.gens + gen].take().is_some() {
            self.cur_slab -= self.slab_sz;
        }
    }

    /// Delivers one coded packet to `(v, gen)` (`packet` is clobbered);
    /// updates rank/candidate/completion bookkeeping and the wasted
    /// counter. Returns whether the packet was innovative.
    fn receive(&mut self, v: usize, gen: usize, packet: &mut [u8]) -> bool {
        let i = v * self.gens + gen;
        if self.rank[i] == self.cap[gen] {
            self.wasted += 1;
            return false;
        }
        if self.slabs[i].is_none() {
            self.slabs[i] = Some(vec![0u8; self.slab_sz].into_boxed_slice());
            self.cur_slab += self.slab_sz;
            self.peak_slab = self.peak_slab.max(self.cur_slab);
        }
        let (gsize, rank) = (self.gsize, self.rank[i] as usize);
        let slab = self.slabs[i].as_mut().expect("just allocated");
        if !slab_receive(slab, gsize, 0, rank, packet) {
            self.wasted += 1;
            return false;
        }
        self.rank[i] += 1;
        if self.rank[i] == 1 {
            self.candidates[v].push(gen as u32);
            self.cur_cand += 1;
            self.peak_cand = self.peak_cand.max(self.cur_cand);
        }
        if self.rank[i] == self.cap[gen] {
            self.complete(v, gen);
        }
        true
    }

    /// Removes a newly dead vertex from every count and frees its state.
    fn kill(&mut self, v: usize) {
        let g = self.g;
        for gen in 0..self.gens {
            let i = v * self.gens + gen;
            if self.rank[i] < self.cap[gen] {
                self.incomplete_at[gen] -= 1;
                self.total_incomplete -= 1;
                for &u in g.neighbors(v) {
                    self.nbr_incomplete[u * self.gens + gen] -= 1;
                }
            }
            if self.slabs[i].take().is_some() {
                self.cur_slab -= self.slab_sz;
            }
        }
        self.cur_cand -= self.candidates[v].len();
        self.candidates[v].clear();
    }

    /// After deaths: shrinks each incomplete generation's `cap` to the
    /// rank of the survivors' combined span (symbols beyond it are
    /// lost — every independent combination died). Returns the number
    /// of symbols lost by this pass.
    fn shrink_caps(&mut self, ft: &FaultState<'_>, scratch: &mut [u8], pkt: &mut [u8]) -> usize {
        let mut lost = 0usize;
        for gen in 0..self.gens {
            if self.incomplete_at[gen] == 0 {
                continue;
            }
            // A live completed vertex witnesses that the whole cap
            // survives.
            if ft.live() as u32 > self.incomplete_at[gen] {
                continue;
            }
            let cap = self.cap[gen] as usize;
            scratch.fill(0);
            let mut srank = 0usize;
            'fold: for v in 0..self.g.n() {
                if ft.is_dead(v) {
                    continue;
                }
                let i = v * self.gens + gen;
                if self.slabs[i].is_none() && self.rank[i] as usize >= cap && cap > 0 {
                    // A completed vertex whose slab was freed: it
                    // witnesses that the entire cap survives. (With
                    // dormant vertices inflating `incomplete_at`, the
                    // live > incomplete early-out above cannot promise
                    // no such vertex reaches this fold.)
                    srank = cap;
                    break 'fold;
                }
                for row in 0..self.rank[i] as usize {
                    let slab = self.slabs[i].as_ref().expect("rank > 0 implies rows");
                    pkt.copy_from_slice(&slab[row * self.gsize..(row + 1) * self.gsize]);
                    if slab_receive(scratch, self.gsize, 0, srank, pkt) {
                        srank += 1;
                        if srank == cap {
                            break 'fold;
                        }
                    }
                }
            }
            if srank < cap {
                lost += cap - srank;
                self.cap[gen] = srank as u8;
                for v in 0..self.g.n() {
                    if !ft.is_dead(v) && self.rank[v * self.gens + gen] as usize == srank {
                        self.complete(v, gen);
                    }
                }
            }
        }
        lost
    }

    /// Words of the flat bookkeeping arrays (rank bytes, demand
    /// counters, slab slots) — the fixed part of the memory footprint.
    fn fixed_words(&self) -> usize {
        self.rank.len().div_ceil(8) + self.nbr_incomplete.len().div_ceil(2) + 2 * self.slabs.len()
    }
}

/// The RLNC round loop behind
/// [`GossipConfig::Rlnc`](crate::gossip::GossipConfig::Rlnc): same
/// V-CONGEST discipline as the tree schedules (one broadcast per
/// vertex per round, choices from round-start state, deliveries applied
/// in ascending sender order), but relays send seeded-random GF(2⁸)
/// combinations of one generation instead of forwarding tree tokens.
/// `packing`/`member` are used only for the wave samples'
/// `surviving_trees` column — coded packets ride no tree.
#[allow(clippy::too_many_arguments)] // crate-internal schedule plumbing
pub(crate) fn rlnc_schedule(
    g: &Graph,
    packing: &DomTreePacking,
    member: &BitRows,
    origins: &[MessageOrigin],
    seed: u64,
    gsize: usize,
    coeff_seed: u64,
    mut ft: FaultState<'_>,
) -> GossipReport {
    let n = g.n();
    let nmsg = origins.len();
    assert!(
        (1..=MAX_GENERATION).contains(&gsize),
        "generation_size must be in 1..={MAX_GENERATION}"
    );
    let mut waves: Vec<WaveSample> = Vec::new();
    let gens = nmsg.div_ceil(gsize);
    let mut st = RlncState::new(g, gens, gsize, nmsg);
    // One stream for every coefficient draw: run seed mixed with the
    // regime's own seed, so (seed, rlnc seed) pins the schedule.
    let mut rng = StdRng::seed_from_u64(seed ^ coeff_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));

    // Origins hold their symbols as unit vectors (message m is position
    // m % gsize of generation m / gsize).
    let mut pkt = vec![0u8; gsize];
    for (m, &origin) in origins.iter().enumerate() {
        pkt.fill(0);
        pkt[m % gsize] = 1;
        let innovative = st.receive(origin, m / gsize, &mut pkt);
        debug_assert!(innovative, "distinct unit seeds are always innovative");
    }

    let mut lost_messages = 0usize;
    let mut rounds = 0usize;
    let mut schedule_digest = 0u64;
    let round_limit = 64 * (n + nmsg) + 1024;
    let mut relays: Vec<(u32, u32)> = Vec::new();
    let mut arena: Vec<u8> = Vec::new();
    let mut scratch_slab = vec![0u8; slab_bytes(gsize, 0)];
    while st.total_incomplete > 0 {
        rounds += 1;
        assert!(
            rounds <= round_limit,
            "gossip schedule failed to complete within {round_limit} rounds"
        );
        // Phase 0 — faults fire before any relay choice, as in the
        // tree schedules' round structure.
        if ft.advance_to(rounds) {
            for &v in ft.newly_dead() {
                st.kill(v);
            }
            let lost = st.shrink_caps(&ft, &mut scratch_slab, &mut pkt);
            lost_messages += lost;
            let surviving_trees = packing
                .trees
                .iter()
                .enumerate()
                .filter(|(t, tree)| tree_ok(g, &ft, *t, tree, member))
                .count();
            waves.push(WaveSample {
                round: rounds,
                faults_fired: ft.fired(),
                live_vertices: ft.live(),
                surviving_trees,
                incomplete_messages: (0..gens)
                    .filter(|&gen| st.incomplete_at[gen] > 0)
                    .map(|gen| st.cap[gen] as usize)
                    .sum(),
                reassigned_messages: 0,
                lost_messages: lost,
                reextracted_classes: 0,
                flood_rounds_before: 0,
            });
            if st.total_incomplete == 0 {
                rounds -= 1;
                break;
            }
        }
        // Phase 1 — relay choices from round-start state: each live
        // vertex draws one seeded-uniform generation among those it
        // holds rank in and some neighbor still needs, then a
        // seeded-random combination of its rows. Stale candidates
        // (no needy neighbor — a monotone condition) are pruned as
        // they are drawn. As in the tree schedules, the liveness checks
        // run only once the tracker has fired (or awaits an arrival).
        let live_checks = ft.any_fired();
        relays.clear();
        arena.clear();
        for v in 0..n {
            if live_checks && (ft.is_dead(v) || ft.is_dormant(v)) {
                continue;
            }
            let gen = loop {
                let len = st.candidates[v].len();
                if len == 0 {
                    break None;
                }
                let i = rng.gen_range(0..len);
                let gen = st.candidates[v][i] as usize;
                if st.nbr_incomplete[v * gens + gen] == 0 {
                    st.candidates[v].swap_remove(i);
                    st.cur_cand -= 1;
                    continue;
                }
                break Some(gen);
            };
            let Some(gen) = gen else { continue };
            let i = v * gens + gen;
            let off = arena.len();
            arena.resize(off + gsize, 0);
            let r = st.rank[i] as usize;
            match st.slabs[i].as_ref() {
                Some(slab) => slab_combine(slab, gsize, 0, r, &mut rng, &mut arena[off..]),
                None => {
                    // Freed at lossless completion: the span is the full
                    // coordinate space of the generation, so a random
                    // combination is just `rank` (= cap) random bytes.
                    for b in &mut arena[off..off + r] {
                        *b = rng.gen();
                    }
                }
            }
            schedule_digest = schedule_digest.wrapping_add(relay_hash(rounds, v, gen));
            relays.push((v as u32, gen as u32));
        }
        // Phase 2 — deliveries in ascending sender order; innovation is
        // judged against receiver state as it updates within the round
        // (same discipline as the tree schedules' reception phase).
        for (ri, &(v, gen)) in relays.iter().enumerate() {
            let coeffs = &arena[ri * gsize..(ri + 1) * gsize];
            for &u in g.neighbors(v as usize) {
                if live_checks && !ft.deliverable(v as usize, u) {
                    continue;
                }
                pkt.copy_from_slice(coeffs);
                st.receive(u, gen as usize, &mut pkt);
            }
        }
        if relays.is_empty() && st.total_incomplete > 0 {
            // Idle only while a scheduled arrival is still due (e.g. a
            // dormant origin holds the sole copy of its generation).
            rounds = idle_until_next_event(&ft, rounds);
        }
    }
    let peak_state_words =
        member.words() + st.fixed_words() + st.peak_slab.div_ceil(8) + st.peak_cand.div_ceil(2);
    // The coded regime repairs nothing and floods nothing: loss
    // tolerance comes from the code, not from tree reassignment.
    GossipReport {
        rounds,
        num_messages: nmsg,
        complete: lost_messages == 0,
        per_tree_load: vec![0; packing.num_trees()],
        peak_state_words,
        schedule_digest,
        waves,
        lost_messages,
        wasted_bandwidth: st.wasted,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip::{gossip_via_trees_faulty, gossip_via_trees_with, GossipConfig};
    use decomp_congest::fault::{Fault, ScheduledFault};
    use decomp_core::packing::WeightedDomTree;
    use decomp_graph::generators;
    use proptest::prelude::*;

    /// Test-local carry-less multiply mod 0x11d — the oracle the
    /// compile-time tables are checked against.
    fn mul_ref(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let hi = a & 0x80;
            a <<= 1;
            if hi != 0 {
                a ^= 0x1d;
            }
            b >>= 1;
        }
        acc
    }

    #[test]
    fn tables_match_carryless_reference_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf256::mul(a, b), mul_ref(a, b), "mul({a}, {b})");
                assert_eq!(gf256::MUL[a as usize][b as usize], mul_ref(a, b));
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gf256::mul(a, gf256::inv(a)), 1, "a = {a}");
            assert_eq!(gf256::div(a, a), 1);
        }
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn zero_has_no_inverse() {
        gf256::inv(0);
    }

    #[test]
    fn decoder_unit_symbols_roundtrip() {
        let symbols: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i, i ^ 0x5a, 200 + i]).collect();
        let mut dec = RlncDecoder::new(5, 3);
        // Out-of-order unit seeding must still decode in position order.
        for pos in [3, 0, 4, 1, 2] {
            assert!(dec.receive_symbol(pos, &symbols[pos]));
        }
        assert!(dec.is_complete());
        assert_eq!(dec.decode().unwrap(), symbols);
    }

    #[test]
    fn duplicate_packet_is_not_innovative() {
        let mut dec = RlncDecoder::new(4, 2);
        let pkt = [3, 1, 4, 1, 5, 9];
        assert!(dec.receive(&pkt));
        assert!(!dec.receive(&pkt), "an identical packet teaches nothing");
        assert_eq!(dec.rank(), 1);
    }

    #[test]
    fn encode_decode_roundtrip_seeded() {
        let mut rng = StdRng::seed_from_u64(42);
        let symbols: Vec<Vec<u8>> = (0..7)
            .map(|_| (0..4).map(|_| rng.gen()).collect())
            .collect();
        let mut dec = RlncDecoder::new(7, 4);
        let mut attempts = 0;
        while !dec.is_complete() {
            let (coeffs, payload) = encode_packet(&symbols, &mut rng);
            let pkt: Vec<u8> = coeffs.into_iter().chain(payload).collect();
            dec.receive(&pkt);
            attempts += 1;
            assert!(attempts < 64, "random packets must reach full rank");
        }
        assert_eq!(dec.decode().unwrap(), symbols);
    }

    /// A path spanning tree on a small graph — the RLNC regime ignores
    /// trees, but the gossip entry points still require a packing.
    fn path_packing(n: usize) -> DomTreePacking {
        DomTreePacking {
            trees: vec![WeightedDomTree {
                id: 0,
                weight: 1.0,
                edges: (0..n - 1).map(|i| (i, i + 1)).collect(),
                singleton: None,
            }],
        }
    }

    #[test]
    fn schedule_completes_and_double_runs_identically() {
        let g = generators::harary(4, 20);
        let packing = path_packing(20);
        let origins: Vec<usize> = (0..g.n()).collect();
        let config = GossipConfig::rlnc(8, 11);
        let a = gossip_via_trees_with(&g, &packing, &origins, 7, config);
        let b = gossip_via_trees_with(&g, &packing, &origins, 7, config);
        assert_eq!(a, b, "same seeds must reproduce the schedule bit for bit");
        assert!(a.rounds > 0);
        assert_eq!(a.num_messages, 20);
        assert!(
            a.per_tree_load.iter().all(|&l| l == 0),
            "coded packets ride no tree"
        );
        assert!(
            a.wasted_bandwidth > 0,
            "dense all-node gossip must see some non-innovative packets"
        );
        assert_eq!(a.lost_messages, 0);
        // A different coefficient seed draws a different schedule.
        let c = gossip_via_trees_with(&g, &packing, &origins, 7, GossipConfig::rlnc(8, 12));
        assert_ne!(
            a.schedule_digest, c.schedule_digest,
            "coefficient seed must steer the relay schedule"
        );
    }

    #[test]
    fn schedule_handles_partial_last_generation() {
        let g = generators::cycle(9);
        let packing = path_packing(9);
        // 9 messages over generations of 4: sizes 4, 4, 1.
        let origins: Vec<usize> = (0..g.n()).collect();
        let r = gossip_via_trees_with(&g, &packing, &origins, 3, GossipConfig::rlnc(4, 0));
        assert!(r.rounds > 0);
        assert_eq!(r.lost_messages, 0);
    }

    #[test]
    fn schedule_with_generation_exceeding_workload() {
        let g = generators::cycle(8);
        let packing = path_packing(8);
        // One short generation: 3 messages, generation size 16.
        let origins = [0, 3, 5];
        let r = gossip_via_trees_with(&g, &packing, &origins, 1, GossipConfig::rlnc(16, 5));
        assert!(r.rounds > 0);
        assert_eq!(r.lost_messages, 0);
    }

    #[test]
    fn schedule_empty_workload_is_trivial() {
        let g = generators::cycle(5);
        let packing = path_packing(5);
        let r = gossip_via_trees_with(&g, &packing, &[], 0, GossipConfig::rlnc(8, 0));
        assert_eq!(r.rounds, 0);
        assert_eq!(r.schedule_digest, 0);
        assert_eq!(r.wasted_bandwidth, 0);
    }

    #[test]
    fn origin_killed_before_first_relay_loses_exactly_its_symbol() {
        let g = generators::harary(4, 16);
        let packing = path_packing(16);
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = decomp_congest::fault::FaultPlan::new([ScheduledFault {
            round: 0,
            fault: Fault::Vertex(4),
        }]);
        let r = gossip_via_trees_faulty(&g, &packing, &origins, 7, GossipConfig::rlnc(8, 2), &plan)
            .unwrap();
        assert_eq!(
            r.lost_messages, 1,
            "only the dead origin's never-relayed symbol dies"
        );
        assert_eq!(r.waves.len(), 1);
        assert_eq!(r.waves[0].live_vertices, 15);
    }

    #[test]
    fn schedule_degrades_but_completes_under_midrun_faults() {
        let g = generators::harary(4, 16);
        let packing = path_packing(16);
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = decomp_congest::fault::FaultPlan::new([
            ScheduledFault {
                round: 3,
                fault: Fault::Vertex(2),
            },
            ScheduledFault {
                round: 5,
                fault: Fault::Vertex(9),
            },
        ]);
        let config = GossipConfig::rlnc(8, 17);
        let r = gossip_via_trees_faulty(&g, &packing, &origins, 7, config, &plan).unwrap();
        // By round 3 every symbol has been relayed into its neighborhood,
        // so the survivors' span stays full: degraded, not stalled.
        assert_eq!(r.lost_messages, 0, "f < κ after spreading loses nothing");
        assert_eq!(r.waves.len(), 2);
        assert!(r.rounds > 0);
        let again = gossip_via_trees_faulty(&g, &packing, &origins, 7, config, &plan).unwrap();
        assert_eq!(r, again, "faulty RLNC runs must be seed-deterministic");
    }

    proptest! {
        fn mul_is_associative_and_commutative(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
            prop_assert_eq!(gf256::mul(a, b), gf256::mul(b, a));
            prop_assert_eq!(
                gf256::mul(gf256::mul(a, b), c),
                gf256::mul(a, gf256::mul(b, c))
            );
        }

        fn mul_distributes_over_xor(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
            prop_assert_eq!(
                gf256::mul(a, b ^ c),
                gf256::mul(a, b) ^ gf256::mul(a, c)
            );
        }

        fn inverses_cancel(a in 0u8..255) {
            let a = a + 1; // 1..=255 (the vendored sampler can't express it)
            prop_assert_eq!(gf256::mul(a, gf256::inv(a)), 1);
            prop_assert_eq!(gf256::inv(gf256::inv(a)), a);
        }

        fn axpy_matches_scalar_loop(
            dst in proptest::collection::vec(any::<u8>(), 1..64),
            c in any::<u8>(),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let src: Vec<u8> = (0..dst.len()).map(|_| rng.gen()).collect();
            let mut fast = dst.clone();
            gf256::axpy(&mut fast, &src, c);
            let slow: Vec<u8> = dst
                .iter()
                .zip(&src)
                .map(|(&d, &s)| d ^ gf256::mul(c, s))
                .collect();
            prop_assert_eq!(fast, slow);
        }

        fn decoder_rank_is_permutation_invariant(
            size in 1usize..9,
            npackets in 1usize..14,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Consistent packets: every one encodes the SAME symbol set,
            // so any spanning subset solves to the same decode. (Fully
            // random packets form an inconsistent system — rank would
            // still be order-invariant, but the decode would not be.)
            let symbols: Vec<Vec<u8>> = (0..size)
                .map(|_| (0..2).map(|_| rng.gen()).collect())
                .collect();
            let mut packets: Vec<Vec<u8>> = (0..npackets)
                .map(|_| {
                    let (mut c, p) = encode_packet(&symbols, &mut rng);
                    c.extend_from_slice(&p);
                    c
                })
                .collect();
            // Duplicate one packet to force a non-innovative reception in
            // at least one of the two orders.
            let dup = packets[0].clone();
            packets.push(dup);
            let mut forward = RlncDecoder::new(size, 2);
            for p in &packets {
                forward.receive(p);
            }
            let mut shuffled = packets.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            let mut backward = RlncDecoder::new(size, 2);
            for p in &shuffled {
                backward.receive(p);
            }
            prop_assert_eq!(forward.rank(), backward.rank());
            // At full rank both orders must agree on the decode — and on
            // the original symbols.
            if forward.is_complete() {
                prop_assert_eq!(forward.decode(), Some(symbols.clone()));
                prop_assert_eq!(backward.decode(), Some(symbols));
            }
        }

        fn decode_of_encode_roundtrips(
            size in 1usize..11,
            plen in 0usize..9,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let symbols: Vec<Vec<u8>> = (0..size)
                .map(|_| (0..plen).map(|_| rng.gen()).collect())
                .collect();
            let mut dec = RlncDecoder::new(size, plen);
            // A fresh random combination is non-innovative with
            // probability at most 1/256 while rank < size, so 6·size
            // draws fail with only negligible (and, per seed,
            // deterministic) probability.
            for _ in 0..6 * size {
                if dec.is_complete() {
                    break;
                }
                let (coeffs, payload) = encode_packet(&symbols, &mut rng);
                let pkt: Vec<u8> = coeffs.into_iter().chain(payload).collect();
                dec.receive(&pkt);
            }
            prop_assert!(dec.is_complete());
            prop_assert_eq!(dec.decode().unwrap(), symbols);
        }

        fn recombinations_of_received_rows_are_never_innovative(
            size in 2usize..9,
            nfeed in 1usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut dec = RlncDecoder::new(size, 3);
            for _ in 0..nfeed.min(size.saturating_sub(1)) {
                let pkt: Vec<u8> = (0..size + 3).map(|_| rng.gen()).collect();
                dec.receive(&pkt);
            }
            let rank = dec.rank();
            let mut out = vec![0u8; size + 3];
            for _ in 0..8 {
                dec.combine(&mut rng, &mut out);
                prop_assert!(
                    !dec.receive(&out),
                    "a combination of received rows lies inside the span"
                );
                prop_assert_eq!(dec.rank(), rank);
            }
        }
    }
}
