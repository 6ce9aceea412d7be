//! 3-D Hilbert curve as a 24-state machine.
//!
//! FLAT packs objects into pages in Hilbert order because consecutive
//! Hilbert codes are always spatially adjacent — that is what makes page
//! neighborhoods small — and the Hilbert *prefetching* baseline of SCOUT
//! (after Park & Kim) prefetches pages adjacent in this order.
//!
//! The curve is the one of John Skilling, "Programming the Hilbert curve"
//! (AIP Conf. Proc. 707, 2004), but it is computed from one table: every
//! sub-cube of the curve is traversed in one of 24 orientations (states),
//! and a state plus the octant a point falls in gives the next three bits
//! of its distance and the state of that octant. A key is one table
//! lookup per level, the inverse walks the same table, and the root is
//! state 0 at every order. Skilling's transform is kept in the tests as
//! the oracle the table is re-derived from and checked against.

use crate::{morton_decode3, morton_encode3, Aabb, Vec3};

/// Number of bits of precision per axis used by [`HilbertSorter`].
pub const HILBERT_BITS: u32 = 21;

/// `STATES[s][o]` for the sub-cube in state `s` and its octant `o` (the
/// octant's Morton digit: x in bit 0, y in bit 1, z in bit 2). The low
/// three bits are the octant's Hilbert digit, the high five its state.
const STATES: [[u8; 8]; 24] = [
    [8, 23, 27, 36, 41, 54, 2, 5],
    [56, 67, 73, 10, 87, 44, 94, 13],
    [100, 111, 21, 78, 51, 112, 18, 89],
    [110, 79, 29, 124, 113, 88, 26, 3],
    [72, 57, 123, 34, 95, 86, 4, 37],
    [32, 131, 143, 12, 1, 42, 150, 45],
    [156, 31, 19, 160, 53, 6, 50, 145],
    [0, 33, 151, 142, 171, 58, 76, 61],
    [126, 69, 177, 66, 39, 132, 136, 11],
    [40, 55, 9, 22, 107, 60, 74, 77],
    [188, 85, 91, 82, 127, 38, 176, 137],
    [116, 83, 93, 90, 71, 96, 14, 17],
    [98, 121, 101, 182, 155, 24, 20, 167],
    [30, 7, 161, 144, 109, 172, 106, 75],
    [114, 187, 117, 92, 25, 120, 166, 183],
    [70, 97, 125, 122, 15, 16, 28, 35],
    [174, 133, 63, 68, 185, 130, 80, 43],
    [180, 141, 175, 62, 147, 138, 184, 81],
    [164, 139, 135, 152, 149, 146, 46, 49],
    [154, 169, 99, 104, 157, 190, 52, 119],
    [162, 179, 105, 168, 165, 148, 118, 191],
    [134, 153, 47, 48, 173, 170, 108, 59],
    [178, 181, 65, 102, 163, 140, 128, 159],
    [186, 189, 115, 84, 129, 158, 64, 103],
];

/// Convert Cartesian coordinates (each `bits` wide) into a Hilbert
/// distance along the 3-D curve of order `bits`.
///
/// The result fits in `3 * bits` bits (≤ 63 for `bits ≤ 21`).
pub fn hilbert_xyz2d(bits: u32, x: u32, y: u32, z: u32) -> u64 {
    debug_assert!((1..=HILBERT_BITS).contains(&bits));
    let octants = morton_encode3(x, y, z);
    let (mut state, mut d) = (0u8, 0u64);
    for level in (0..bits).rev() {
        let e = STATES[state as usize][(octants >> (3 * level)) as usize & 7];
        d = d << 3 | (e & 7) as u64;
        state = e >> 3;
    }
    d
}

/// Inverse of [`hilbert_xyz2d`].
pub fn hilbert_d2xyz(bits: u32, d: u64) -> (u32, u32, u32) {
    debug_assert!((1..=HILBERT_BITS).contains(&bits));
    let (mut state, mut octants) = (0u8, 0u64);
    for level in (0..bits).rev() {
        let o = DIGIT_OCTANT[state as usize][(d >> (3 * level)) as usize & 7];
        octants = octants << 3 | u64::from(o);
        state = STATES[state as usize][o as usize] >> 3;
    }
    morton_decode3(octants)
}

/// `DIGIT_OCTANT[s][d]` is the octant whose key digit is `d` in state
/// `s`: the inverse of `STATES`' rows.
const DIGIT_OCTANT: [[u8; 8]; 24] = {
    let mut inv = [[0u8; 8]; 24];
    let mut s = 0;
    while s < 24 {
        let mut o = 0;
        while o < 8 {
            inv[s][(STATES[s][o] & 7) as usize] = o as u8;
            o += 1;
        }
        s += 1;
    }
    inv
};

/// An inclusive box of cell coordinates, `(lo, hi)`.
type CellBox = ([u32; 3], [u32; 3]);

/// A sub-cube of the curve: its state and its lowest corner.
#[derive(Clone, Copy)]
struct SubCube {
    state: u8,
    corner: [u32; 3],
}

impl SubCube {
    /// The child in octant `o`, of side `half`.
    fn child(self, o: usize, half: u32) -> SubCube {
        let e = STATES[self.state as usize][o];
        let corner = [0, 1, 2].map(|i| self.corner[i] + (o as u32 >> i & 1) * half);
        SubCube { state: e >> 3, corner }
    }

    /// The cube of side `side` at this corner is inside `bbox`.
    fn inside(self, side: u32, bbox: &CellBox) -> bool {
        (0..3).all(|i| bbox.0[i] <= self.corner[i] && self.corner[i] + (side - 1) <= bbox.1[i])
    }

    /// Grow `bbox` by the cube of side `side` at this corner.
    fn add_to(self, side: u32, bbox: &mut CellBox) {
        for i in 0..3 {
            bbox.0[i] = bbox.0[i].min(self.corner[i]);
            bbox.1[i] = bbox.1[i].max(self.corner[i] + (side - 1));
        }
    }
}

/// The key digit of `k` that picks a child of a sub-cube of side
/// `2^level`.
fn digit(k: u64, level: u32) -> usize {
    (k >> (3 * (level - 1))) as usize & 7
}

/// The cells whose key at order `bits` lies in `[a, b)`, as an inclusive
/// bounding box of cell coordinates `(lo, hi)` (`None` for an empty
/// range; `b` is cut to the end of the curve). A top-down walk of the
/// state table, not a decode of every cell: down the sub-cubes that hold
/// both `a` and `b − 1`, then down two paths, one to `a` and one to
/// `b − 1`, adding at each level the whole children on the range's side
/// of the path. A path stops at a sub-cube the range covers whole or the
/// box already holds.
pub fn hilbert_range_bbox(bits: u32, a: u64, b: u64) -> Option<([u32; 3], [u32; 3])> {
    debug_assert!((1..=HILBERT_BITS).contains(&bits));
    let b = b.min(1 << (3 * bits));
    if a >= b {
        return None;
    }
    let last = b - 1;
    let mut bbox = ([u32::MAX; 3], [0; 3]);
    let (mut node, mut level) = (SubCube { state: 0, corner: [0; 3] }, bits);
    while level > 0 && digit(a, level) == digit(last, level) {
        let o = DIGIT_OCTANT[node.state as usize][digit(a, level)];
        (node, level) = (node.child(o as usize, 1 << (level - 1)), level - 1);
    }
    if level == 0 {
        node.add_to(1, &mut bbox);
        return Some(bbox);
    }
    let (half, row) = (1 << (level - 1), STATES[node.state as usize]);
    let (da, dl) = (digit(a, level), digit(last, level));
    for (o, &e) in row.iter().enumerate() {
        if (da + 1..dl).contains(&((e & 7) as usize)) {
            node.child(o, half).add_to(half, &mut bbox);
        }
    }
    let side = |d: usize| node.child(DIGIT_OCTANT[node.state as usize][d] as usize, half);
    range_bbox_side(side(da), level - 1, a, true, &mut bbox);
    range_bbox_side(side(dl), level - 1, last, false, &mut bbox);
    Some(bbox)
}

/// Grow `bbox` by the cells of the sub-cube `node` of side `2^level`
/// whose keys are at least `k`'s (`from`) or at most `k`'s.
fn range_bbox_side(mut node: SubCube, mut level: u32, k: u64, from: bool, bbox: &mut CellBox) {
    loop {
        let below = (1u64 << (3 * level)) - 1;
        let whole = if from { k & below == 0 } else { k & below == below };
        if whole || node.inside(1 << level, bbox) {
            node.add_to(1 << level, bbox);
            return;
        }
        let (half, dk) = (1 << (level - 1), digit(k, level));
        for (o, &e) in STATES[node.state as usize].iter().enumerate() {
            let d = (e & 7) as usize;
            if (from && d > dk) || (!from && d < dk) {
                node.child(o, half).add_to(half, bbox);
            }
        }
        node = node.child(DIGIT_OCTANT[node.state as usize][dk] as usize, half);
        level -= 1;
    }
}

/// The smallest key at order `bits` of a cell in the block `lo..=hi`
/// (cell coordinates, inclusive, `lo <= hi`): a descent of the state
/// table into the child of smallest digit that meets the block, since
/// every key below a child precedes every key below a later one.
pub fn hilbert_min_key_in(bits: u32, lo: [u32; 3], hi: [u32; 3]) -> u64 {
    debug_assert!((1..=HILBERT_BITS).contains(&bits));
    let (mut state, mut key, mut corner) = (0u8, 0u64, [0u32; 3]);
    for level in (0..bits).rev() {
        let half = 1 << level;
        let mut best = (u8::MAX, 0, corner);
        for (o, &e) in STATES[state as usize].iter().enumerate() {
            let at = [0, 1, 2].map(|i| corner[i] + (o as u32 >> i & 1) * half);
            let meets = (0..3).all(|i| at[i] <= hi[i] && lo[i] < at[i] + half);
            if meets && e & 7 < best.0 {
                best = (e & 7, e >> 3, at);
            }
        }
        (key, state, corner) = (key << 3 | u64::from(best.0), best.1, best.2);
    }
    key
}

/// Quantises points of a bounded region onto the Hilbert curve so that
/// arbitrary `f64` geometry can be sorted in Hilbert order.
#[derive(Debug, Clone)]
pub struct HilbertSorter {
    bounds: Aabb,
    scale: Vec3,
    bits: u32,
}

impl HilbertSorter {
    /// Sorter over `bounds` with the default 21-bit resolution per axis.
    pub fn new(bounds: Aabb) -> Self {
        Self::with_bits(bounds, HILBERT_BITS)
    }

    /// Sorter with an explicit per-axis bit resolution (1..=21).
    pub fn with_bits(bounds: Aabb, bits: u32) -> Self {
        assert!(!bounds.is_empty(), "HilbertSorter requires non-empty bounds");
        assert!((1..=HILBERT_BITS).contains(&bits));
        let e = bounds.extent();
        let side = ((1u64 << bits) - 1) as f64;
        // Degenerate axes (zero extent) map everything to cell 0.
        let scale = Vec3::new(
            if e.x > 0.0 { side / e.x } else { 0.0 },
            if e.y > 0.0 { side / e.y } else { 0.0 },
            if e.z > 0.0 { side / e.z } else { 0.0 },
        );
        HilbertSorter { bounds, scale, bits }
    }

    /// Hilbert key of a point (points outside the bounds are clamped).
    pub fn key(&self, p: Vec3) -> u64 {
        let [x, y, z] = self.cell(p);
        hilbert_xyz2d(self.bits, x, y, z)
    }

    /// The grid cell of a point, the coordinates [`key`](Self::key)
    /// encodes (points outside the bounds are clamped).
    pub fn cell(&self, p: Vec3) -> [u32; 3] {
        let q = p.max(self.bounds.lo).min(self.bounds.hi) - self.bounds.lo;
        let max = (1u64 << self.bits) - 1;
        [q.x * self.scale.x, q.y * self.scale.y, q.z * self.scale.z]
            .map(|v| (v as u64).min(max) as u32)
    }

    /// The bounds this sorter quantises into.
    pub fn bounds(&self) -> &Aabb {
        &self.bounds
    }

    /// Resolution in bits per axis.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// A box holding every point whose [`key`](Self::key) lies in one of
    /// the cells `lo..=hi` (cell coordinates, inclusive), with the faces
    /// of neighbouring cells' boxes overlapping.
    ///
    /// Per axis, cell `i` holds the points that quantise to `i`: those
    /// with `(x − lo) · scale` in `[i, i + 1)` before the key's roundings.
    /// Those roundings move the edge `lo + i / scale` by a few ulps of
    /// `|lo| + |hi|`; the box takes `2⁻⁴⁰` of that (thousands of ulps)
    /// outward. A key clamps points into the bounds, so cell 0 runs to
    /// `−∞`, and the cells from `2^bits − 2` up run to `+∞` (the top edge
    /// can quantise one cell low); an axis of zero extent keys every point
    /// to cell 0, so it runs from `−∞` to `+∞`.
    pub fn cells_box(&self, lo: [u32; 3], hi: [u32; 3]) -> Aabb {
        let top = (1u32 << self.bits) - 2;
        let mut out = Aabb { lo: Vec3::splat(f64::NEG_INFINITY), hi: Vec3::splat(f64::INFINITY) };
        for a in 0..3 {
            let (l, h, scale) =
                (self.bounds.lo.axis(a), self.bounds.hi.axis(a), self.scale.axis(a));
            if !(scale > 0.0 && scale.is_finite()) {
                continue;
            }
            let slack = (l.abs() + h.abs()) * f64::powi(2.0, -40);
            let edge = |i: u32| l + f64::from(i) / scale;
            if lo[a] > 0 {
                out.lo.set_axis(a, edge(lo[a]) - slack);
            }
            if hi[a] < top {
                out.hi.set_axis(a, edge(hi[a] + 1) + slack);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Skilling's transpose algorithm, the oracle `STATES` is checked
    /// against: coordinates are transformed in place between Cartesian
    /// ("axes") form and the transposed Hilbert index form.
    mod skilling {
        const DIMS: usize = 3;

        pub fn xyz2d(bits: u32, x: u32, y: u32, z: u32) -> u64 {
            let mut a = [x, y, z];
            axes_to_transpose(&mut a, bits);
            // Bit `b` of axis `i` becomes bit `b*3 + (2-i)` of the key.
            (0..bits).rev().fold(0, |d, b| a.iter().fold(d, |d, &v| d << 1 | (v >> b & 1) as u64))
        }

        pub fn d2xyz(bits: u32, d: u64) -> (u32, u32, u32) {
            let mut a = [0u32; DIMS];
            let total = bits * DIMS as u32;
            for pos in 0..total {
                let axis = pos as usize % DIMS;
                a[axis] = a[axis] << 1 | (d >> (total - 1 - pos) & 1) as u32;
            }
            transpose_to_axes(&mut a, bits);
            (a[0], a[1], a[2])
        }

        /// In-place Gray-code transform: Cartesian axes → transposed form.
        fn axes_to_transpose(x: &mut [u32; DIMS], bits: u32) {
            let m = 1u32 << (bits - 1);
            // Inverse undo excess work
            let mut q = m;
            while q > 1 {
                let p = q - 1;
                for i in 0..DIMS {
                    if x[i] & q != 0 {
                        x[0] ^= p; // invert
                    } else {
                        let t = (x[0] ^ x[i]) & p;
                        x[0] ^= t;
                        x[i] ^= t;
                    }
                }
                q >>= 1;
            }
            // Gray encode
            for i in 1..DIMS {
                x[i] ^= x[i - 1];
            }
            let mut t = 0u32;
            let mut q = m;
            while q > 1 {
                if x[DIMS - 1] & q != 0 {
                    t ^= q - 1;
                }
                q >>= 1;
            }
            for v in x.iter_mut() {
                *v ^= t;
            }
        }

        /// In-place inverse of [`axes_to_transpose`].
        fn transpose_to_axes(x: &mut [u32; DIMS], bits: u32) {
            let n = 2u32.wrapping_shl(bits - 1);
            // Gray decode by H ^ (H/2); `n` is 2^bits.
            let mut t = x[DIMS - 1] >> 1;
            for i in (1..DIMS).rev() {
                x[i] ^= x[i - 1];
            }
            x[0] ^= t;
            // Undo excess work
            let mut q = 2u32;
            while q != n {
                let p = q - 1;
                for i in (0..DIMS).rev() {
                    if x[i] & q != 0 {
                        x[0] ^= p;
                    } else {
                        t = (x[0] ^ x[i]) & p;
                        x[0] ^= t;
                        x[i] ^= t;
                    }
                }
                q <<= 1;
            }
        }
    }

    /// Re-derive the state table from the oracle at order `bits`,
    /// breadth-first over sub-cubes from the root: a sub-cube's state is
    /// keyed by its two-level digit map (the top six key bits of each of
    /// its 64 grandchild cubes), and new keys get the next state number.
    fn derive_states(bits: u32) -> Vec<[u8; 8]> {
        // A sub-cube is (level, corner); octant `o` is a Morton digit.
        type Cube = (u32, u32, u32, u32);
        let child = |(level, x, y, z): Cube, o: u32| {
            let half = bits - level - 1;
            (level + 1, x | (o & 1) << half, y | (o >> 1 & 1) << half, z | (o >> 2 & 1) << half)
        };
        // The `n` key digits just below `cube`'s level at `inner`'s corner.
        let digits = |cube: Cube, (_, x, y, z): Cube, n: u32| {
            let d = skilling::xyz2d(bits, x, y, z) >> (3 * (bits - cube.0 - n));
            (d & ((1 << (3 * n)) - 1)) as u8
        };
        let key = |cube: Cube| -> Vec<u8> {
            (0..64).map(|o| digits(cube, child(child(cube, o & 7), o >> 3), 2)).collect()
        };
        let mut cubes = vec![(0, 0, 0, 0)];
        let mut keys = vec![key(cubes[0])];
        let mut table = Vec::new();
        while table.len() < cubes.len() {
            let cube = cubes[table.len()];
            let mut row = [0u8; 8];
            for (o, e) in (0..8).zip(&mut row) {
                let c = child(cube, o);
                let k = key(c);
                let state = keys.iter().position(|s| *s == k).unwrap_or_else(|| {
                    keys.push(k);
                    cubes.push(c);
                    keys.len() - 1
                });
                *e = digits(cube, c, 1) | (state as u8) << 3;
            }
            table.push(row);
        }
        table
    }

    #[test]
    fn state_table_is_rederived_from_skillings_transform() {
        for bits in 8..=HILBERT_BITS {
            assert_eq!(derive_states(bits), STATES, "bits={bits}");
        }
    }

    #[test]
    fn table_walk_matches_skilling_exhaustively_and_on_samples() {
        use rand::{Rng, SeedableRng};
        let check = |bits: u32, x: u32, y: u32, z: u32| {
            let d = skilling::xyz2d(bits, x, y, z);
            assert_eq!(hilbert_xyz2d(bits, x, y, z), d, "bits={bits} ({x}, {y}, {z})");
            assert_eq!(skilling::d2xyz(bits, d), (x, y, z), "oracle, bits={bits} d={d}");
            assert_eq!(hilbert_d2xyz(bits, d), (x, y, z), "bits={bits} d={d}");
        };
        for bits in 1..=6u32 {
            let n = 1u32 << bits;
            for p in 0..n * n * n {
                check(bits, p % n, p / n % n, p / (n * n));
            }
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(28);
        for bits in [7, 10, 16, 21] {
            let max = (1u32 << bits) - 1;
            for _ in 0..250_000 {
                check(bits, rng.gen_range(0..=max), rng.gen_range(0..=max), rng.gen_range(0..=max));
            }
        }
    }

    #[test]
    fn roundtrip_exhaustive_small_order() {
        for bits in 1..=4u32 {
            let n = 1u32 << bits;
            for x in 0..n {
                for y in 0..n {
                    for z in 0..n {
                        let d = hilbert_xyz2d(bits, x, y, z);
                        assert_eq!(hilbert_d2xyz(bits, d), (x, y, z), "bits={bits}");
                    }
                }
            }
        }
    }

    #[test]
    fn curve_is_a_bijection_small_order() {
        use std::collections::HashSet;
        let bits = 3;
        let n = 1u64 << bits;
        let total = n * n * n;
        let mut seen = HashSet::new();
        for x in 0..n as u32 {
            for y in 0..n as u32 {
                for z in 0..n as u32 {
                    let d = hilbert_xyz2d(bits, x, y, z);
                    assert!(d < total);
                    assert!(seen.insert(d));
                }
            }
        }
        assert_eq!(seen.len(), total as usize);
    }

    #[test]
    fn consecutive_codes_are_spatially_adjacent() {
        // The defining property of the Hilbert curve: d and d+1 map to
        // lattice points exactly one unit-step apart.
        for bits in 1..=4u32 {
            let n = 1u64 << bits;
            let total = n * n * n;
            for d in 0..total - 1 {
                let (x0, y0, z0) = hilbert_d2xyz(bits, d);
                let (x1, y1, z1) = hilbert_d2xyz(bits, d + 1);
                let step = (x0 as i64 - x1 as i64).abs()
                    + (y0 as i64 - y1 as i64).abs()
                    + (z0 as i64 - z1 as i64).abs();
                assert_eq!(step, 1, "bits={bits} d={d}");
            }
        }
    }

    #[test]
    fn high_order_roundtrip_samples() {
        let bits = HILBERT_BITS;
        let max = (1u32 << bits) - 1;
        for &(x, y, z) in
            &[(0, 0, 0), (max, max, max), (max, 0, max), (1 << 20, 12345, 999_999), (42, 42, 42)]
        {
            let d = hilbert_xyz2d(bits, x, y, z);
            assert_eq!(hilbert_d2xyz(bits, d), (x, y, z));
        }
    }

    #[test]
    fn sorter_clamps_and_orders() {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(100.0));
        let s = HilbertSorter::new(bounds);
        // Outside points clamp to the boundary cell.
        assert_eq!(s.key(Vec3::splat(-50.0)), s.key(Vec3::ZERO));
        assert_eq!(s.key(Vec3::splat(1e9)), s.key(Vec3::splat(100.0)));
        // Nearby points get nearby keys far more often than far points; we
        // check the weaker deterministic property that identical points map
        // to identical keys.
        assert_eq!(s.key(Vec3::splat(33.3)), s.key(Vec3::splat(33.3)));
    }

    #[test]
    fn sorter_handles_degenerate_axes() {
        // A planar dataset (zero z-extent) must not divide by zero.
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(10.0, 10.0, 0.0));
        let s = HilbertSorter::new(bounds);
        let a = s.key(Vec3::new(1.0, 1.0, 0.0));
        let b = s.key(Vec3::new(9.0, 9.0, 0.0));
        assert_ne!(a, b);
    }

    #[test]
    fn locality_beats_random_shuffle() {
        // Average distance between consecutive points in Hilbert order
        // should be much smaller than between random consecutive pairs.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        let s = HilbertSorter::new(bounds);
        let pts: Vec<Vec3> = (0..2000)
            .map(|_| Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let mut sorted = pts.clone();
        sorted.sort_by_key(|p| s.key(*p));
        let avg = |v: &[Vec3]| {
            v.windows(2).map(|w| w[0].distance(w[1])).sum::<f64>() / (v.len() - 1) as f64
        };
        assert!(avg(&sorted) < avg(&pts) * 0.5, "hilbert order should improve locality");
    }
}
