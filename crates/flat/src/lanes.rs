//! Per-page AABB lanes: the page kernel of the crawl.
//!
//! The build keeps every object's box beside the objects as six `f32`
//! lanes (`lo_x lo_y lo_z hi_x hi_y hi_z`), each face rounded to the
//! nearest `f32`. The lanes are blocked by page — page `[start, end)`
//! owns `lanes[6·start .. 6·end]`, lane `k` of its `n` objects at
//! `k·n .. (k+1)·n` — so one page scan reads one contiguous run of
//! 24 B per object instead of rebuilding a box from every object.
//!
//! A scan turns up to 64 lane boxes at a time into two bitmasks
//! without a branch:
//!
//! - `maybe`: the lane box meets `q` rounded *outward* to `f32`.
//!   Rounding is monotone, so `o.lo <= q.hi` implies
//!   `nearest(o.lo) <= round_up(q.hi)` (and likewise for the other
//!   face): an object that meets `q` is never missed here, and a miss
//!   here is a certain miss.
//! - `sure`: the lane box meets `q` shrunk *inward* by one `f32` step
//!   per face. A face lies less than one step from its lane value,
//!   `o.lo < next_up(nearest(o.lo))` unless they are equal, so
//!   `nearest(o.lo) <= next_down(round_down(q.hi))` implies
//!   `o.lo <= q.hi`: a hit here is a certain hit. (A face of `q` that
//!   rounds to the far end of the `f32` range has no step to take; it
//!   is excluded from `sure` altogether.)
//!
//! Only `maybe & !sure` — boxes with a face within two steps of a face of
//! `q` — is left for the caller to decide with the exact `f64` test. All
//! the slack is on the query's side, twelve directed roundings per query;
//! the build pays one plain conversion per face. (Rounding the lanes
//! outward as well would let the lane box contain the object's, which the
//! masks do not need, and cost the build a directed rounding per face:
//! +19 % on `FlatIndex::build` of 891 072 segments, against +3 %.)

use neurospatial_geom::Aabb;

/// Largest `f32` not above `x` (`-∞`/`+∞`/NaN map to themselves; a finite
/// `x` beyond `f32::MAX` rounds down to `f32::MAX`).
fn round_down(x: f64) -> f32 {
    let f = x as f32;
    if f64::from(f) > x {
        f.next_down()
    } else {
        f
    }
}

/// Smallest `f32` not below `x`.
fn round_up(x: f64) -> f32 {
    let f = x as f32;
    if f64::from(f) < x {
        f.next_up()
    } else {
        f
    }
}

/// Write `b`, each face rounded to nearest, as object `i` of a page
/// block holding `n` objects.
pub(crate) fn write_box(block: &mut [f32], n: usize, i: usize, b: &Aabb) {
    let faces = [b.lo.x, b.lo.y, b.lo.z, b.hi.x, b.hi.y, b.hi.z];
    for (k, f) in faces.into_iter().enumerate() {
        block[k * n + i] = f as f32;
    }
}

/// The six lanes of the page occupying objects `[start, end)`.
pub(crate) fn page_lanes(lanes: &[f32], start: usize, end: usize) -> [&[f32]; 6] {
    let n = end - start;
    let block = &lanes[6 * start..6 * end];
    std::array::from_fn(|k| &block[k * n..(k + 1) * n])
}

/// A query box in lane precision: rounded outward for the `maybe` mask,
/// shrunk inward by one step per face for the `sure` mask (why these two
/// bracket the exact test is in the module docs). Faces are in
/// lane order (`lo_x lo_y lo_z hi_x hi_y hi_z`).
pub(crate) struct QueryLanes {
    outer: [f32; 6],
    inner: [f32; 6],
}

impl QueryLanes {
    pub(crate) fn new(q: &Aabb) -> Self {
        // One step inward. A face already at the end of the range has no
        // step to take and can vouch for nothing: NaN fails every
        // comparison.
        let step_up = |x: f64| match round_up(x) {
            f if f == f32::INFINITY => f32::NAN,
            f => f.next_up(),
        };
        let step_down = |x: f64| match round_down(x) {
            f if f == f32::NEG_INFINITY => f32::NAN,
            f => f.next_down(),
        };
        let (lo, hi) = (q.lo, q.hi);
        QueryLanes {
            outer: [
                round_down(lo.x),
                round_down(lo.y),
                round_down(lo.z),
                round_up(hi.x),
                round_up(hi.y),
                round_up(hi.z),
            ],
            inner: [
                step_up(lo.x),
                step_up(lo.y),
                step_up(lo.z),
                step_down(hi.x),
                step_down(hi.y),
                step_down(hi.z),
            ],
        }
    }

    /// `(maybe, sure)` over one chunk of at most 64 lane boxes: bit `i`
    /// is object `i` of the chunk. Not inlined, so that every crawl, whatever
    /// its sink, runs the one vectorised copy.
    #[inline(never)]
    pub(crate) fn masks(&self, [lx, ly, lz, hx, hy, hz]: [&[f32]; 6]) -> (u64, u64) {
        let n = lx.len();
        let (ly, lz, hx, hy, hz) = (&ly[..n], &lz[..n], &hx[..n], &hy[..n], &hz[..n]);
        // One byte per object first, so that the compiler can vectorise
        // the comparisons; the bytes are packed into bits afterwards.
        let (mut maybe, mut sure) = ([0u8; 64], [0u8; 64]);
        let (maybe_n, sure_n) = (&mut maybe[..n], &mut sure[..n]);
        for i in 0..n {
            let b = [lx[i], ly[i], lz[i], hx[i], hy[i], hz[i]];
            maybe_n[i] = u8::from(meets(&b, &self.outer));
            sure_n[i] = u8::from(meets(&b, &self.inner));
        }
        (pack_bits(&maybe), pack_bits(&sure))
    }
}

/// Closed-interval intersection of two boxes in lane order, without a
/// branch.
#[inline(always)]
fn meets(b: &[f32; 6], q: &[f32; 6]) -> bool {
    (b[0] <= q[3])
        & (q[0] <= b[3])
        & (b[1] <= q[4])
        & (q[1] <= b[4])
        & (b[2] <= q[5])
        & (q[2] <= b[5])
}

/// Bit `i` of the result is byte `i` of `bytes`, each 0 or 1.
#[inline]
fn pack_bits(bytes: &[u8; 64]) -> u64 {
    let mut bits = 0u64;
    for (k, group) in bytes.chunks_exact(8).enumerate() {
        let x = u64::from_le_bytes(group.try_into().expect("chunks of 8"));
        // Byte j of x lands on bit 56 + j of the product and no two terms
        // meet, so the top byte is the eight flags in order.
        bits |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zeros, subnormals, both sides of `f32::MAX`, the ends of `f64`.
    fn special_values() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -0.1,
            f64::MIN_POSITIVE,
            5e-324,
            f64::from(f32::MIN_POSITIVE) / 3.0,
            f64::from(f32::MAX),
            f64::from(f32::MAX) * (1.0 + 1e-9),
            f64::from(f32::MAX) * 2.0,
            -f64::from(f32::MAX) * 2.0,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
    }

    /// One value of every class the rounding has to get right: the
    /// special ones, and `k·0.1 + j·1e-9` at magnitudes 1e-3 to 1e7.
    fn awkward_values() -> Vec<f64> {
        let mut v = special_values();
        for k in 0..40 {
            for j in 0..3 {
                let x = f64::from(k) * 0.1 + f64::from(j) * 1e-9;
                v.extend([x, -x, x * 1e-3, x * 1e4, -x * 1e7]);
            }
        }
        v
    }

    #[test]
    fn rounding_brackets_the_f64_value() {
        for x in awkward_values() {
            let (d, u) = (round_down(x), round_up(x));
            assert!(f64::from(d) <= x && x <= f64::from(u), "{d} <= {x} <= {u}");
            // Tight: the bracket is the value itself or one step wide.
            assert!(d == u || d.next_up() == u, "{x}: [{d}, {u}] is wider than one step");
            if x.is_finite() && (x as f32).is_finite() && f64::from(x as f32) == x {
                assert_eq!(d, u, "{x} is representable");
            }
        }
        assert!(round_down(f64::NAN).is_nan() && round_up(f64::NAN).is_nan());
        assert_eq!(round_down(1e300), f32::MAX);
        assert_eq!(round_up(1e300), f32::INFINITY);
        assert_eq!(round_down(-1e300), f32::NEG_INFINITY);
        assert_eq!(round_up(-1e300), f32::MIN);
    }

    #[test]
    fn masks_bracket_the_exact_test() {
        // Every pair of awkward intervals on x, with y and z wide open:
        // `sure` implies the exact answer, which implies `maybe`.
        let vals = awkward_values();
        let open = (-1.0, 1.0);
        // All pairs of the special values, one pairing of the rest.
        let special = special_values();
        let boxes: Vec<Aabb> = special
            .iter()
            .flat_map(|a| special.iter().map(move |b| (a, b)))
            .chain(vals.iter().zip(vals.iter().cycle().skip(7)))
            .map(|(&a, &b)| Aabb {
                lo: neurospatial_geom::Vec3::new(a.min(b), open.0, open.0),
                hi: neurospatial_geom::Vec3::new(a.max(b), open.1, open.1),
            })
            .collect();
        let mut lanes = vec![0f32; 6 * boxes.len()];
        for (i, b) in boxes.iter().enumerate() {
            write_box(&mut lanes, boxes.len(), i, b);
        }
        let all = page_lanes(&lanes, 0, boxes.len());
        let mut slivers = 0;
        for q in &boxes {
            let ql = QueryLanes::new(q);
            for base in (0..boxes.len()).step_by(64) {
                let len = (boxes.len() - base).min(64);
                let (maybe, sure) = ql.masks(all.map(|l| &l[base..base + len]));
                assert_eq!(maybe >> 1 >> (len - 1), 0, "bits past the chunk");
                for i in 0..len {
                    let exact = boxes[base + i].intersects(q);
                    let (m, s) = (maybe >> i & 1 == 1, sure >> i & 1 == 1);
                    assert!(!s || exact, "sure but no hit: {} vs {q}", boxes[base + i]);
                    assert!(!exact || m, "hit but not maybe: {} vs {q}", boxes[base + i]);
                    slivers += usize::from(m && !s);
                }
            }
        }
        assert!(slivers > 0, "touching faces must land in the sliver");
    }
}
