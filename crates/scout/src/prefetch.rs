//! The prefetcher interface and the four policies of the demo (§3.2):
//! none, Hilbert, extrapolation, SCOUT.

use crate::candidate::CandidateTracker;
use crate::predict::{extrapolate_exits, PredictParams};
use crate::skeleton::{Skeleton, SkeletonParams};
use neurospatial_geom::{Aabb, Vec3};
use neurospatial_model::NeuronSegment;

/// Everything a prefetcher may inspect after a query completes.
///
/// Location-only policies use `history`; content-aware policies (SCOUT)
/// use `result`; storage-order policies (Hilbert) use `pages_read`.
#[derive(Debug)]
pub struct PrefetchContext<'a> {
    /// The query just executed.
    pub query: &'a Aabb,
    /// Its result set.
    pub result: &'a [&'a NeuronSegment],
    /// Centres of all queries so far, including the current one.
    pub history: &'a [Vec3],
    /// FLAT data pages the current query read.
    pub pages_read: &'a [u32],
}

/// What to prefetch before the user's next query.
#[derive(Debug, Clone, Default)]
pub struct PrefetchPlan {
    /// Predicted spatial regions (translated to pages by the session).
    pub regions: Vec<Aabb>,
    /// Explicit page ids (used by storage-order policies).
    pub pages: Vec<u32>,
}

impl PrefetchPlan {
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty() && self.pages.is_empty()
    }
}

/// A prefetching policy.
///
/// A policy is `Send` because it goes where the think time is spent: on
/// a file with prefetch workers a worker makes each plan, so
/// [`plan`](Self::plan) runs off the caller's thread, one step at a time
/// and in step order (see [`OocCursor`](crate::OocCursor)).
pub trait Prefetcher: Send {
    fn name(&self) -> &'static str;

    /// Called after each query; returns what to fetch during think time.
    fn plan(&mut self, ctx: &PrefetchContext<'_>) -> PrefetchPlan;

    /// Forget per-walkthrough state.
    fn reset(&mut self);
}

/// The no-prefetching baseline: every page is fetched on demand.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoPrefetch;

impl Prefetcher for NoPrefetch {
    fn name(&self) -> &'static str {
        "none"
    }

    fn plan(&mut self, _ctx: &PrefetchContext<'_>) -> PrefetchPlan {
        PrefetchPlan::default()
    }

    fn reset(&mut self) {}
}

/// Hilbert prefetching (after Park & Kim's curve-order policies for web
/// GIS \[13\]): prefetch the pages adjacent *in storage (Hilbert) order* to
/// the pages the query just read. Spatial locality of the curve makes
/// this a reasonable but content-blind guess.
#[derive(Debug, Clone, Copy)]
pub struct HilbertPrefetcher {
    /// How many successor/predecessor pages to fetch around each read
    /// page.
    pub window: u32,
}

impl Default for HilbertPrefetcher {
    fn default() -> Self {
        HilbertPrefetcher { window: 2 }
    }
}

impl Prefetcher for HilbertPrefetcher {
    fn name(&self) -> &'static str {
        "hilbert"
    }

    fn plan(&mut self, ctx: &PrefetchContext<'_>) -> PrefetchPlan {
        let mut pages = Vec::new();
        for &p in ctx.pages_read {
            for d in 1..=self.window {
                pages.push(p.saturating_add(d));
                if p >= d {
                    pages.push(p - d);
                }
            }
        }
        pages.sort_unstable();
        pages.dedup();
        // Pages just read are resident anyway; keep the plan tight.
        pages.retain(|p| !ctx.pages_read.contains(p));
        PrefetchPlan { regions: Vec::new(), pages }
    }

    fn reset(&mut self) {}
}

/// Extrapolation prefetching: predict the next query centre from the last
/// two centres ("only use the current location or the last few positions
/// to predict the next query location", §3) and prefetch a box there.
/// Fails on jagged branches — the direction of the *camera* is not the
/// direction of the *structure*.
#[derive(Debug, Clone, Copy)]
pub struct ExtrapolationPrefetcher {
    /// Number of steps ahead to predict (each its own box).
    pub steps_ahead: u32,
}

impl Default for ExtrapolationPrefetcher {
    fn default() -> Self {
        ExtrapolationPrefetcher { steps_ahead: 2 }
    }
}

impl Prefetcher for ExtrapolationPrefetcher {
    fn name(&self) -> &'static str {
        "extrapolation"
    }

    fn plan(&mut self, ctx: &PrefetchContext<'_>) -> PrefetchPlan {
        let n = ctx.history.len();
        if n < 2 {
            return PrefetchPlan::default();
        }
        let step = ctx.history[n - 1] - ctx.history[n - 2];
        let half = ctx.query.extent() * 0.5;
        let radius = half.x.max(half.y).max(half.z);
        let mut regions = Vec::new();
        for k in 1..=self.steps_ahead {
            let c = ctx.history[n - 1] + step * k as f64;
            regions.push(Aabb::cube(c, radius));
        }
        PrefetchPlan { regions, pages: Vec::new() }
    }

    fn reset(&mut self) {}
}

/// SCOUT: skeleton reconstruction + candidate pruning + exit-edge
/// extrapolation.
#[derive(Debug)]
pub struct ScoutPrefetcher {
    pub skeleton_params: SkeletonParams,
    pub predict_params: PredictParams,
    tracker: CandidateTracker,
}

impl Default for ScoutPrefetcher {
    fn default() -> Self {
        ScoutPrefetcher {
            skeleton_params: SkeletonParams::default(),
            predict_params: PredictParams::default(),
            tracker: CandidateTracker::new(),
        }
    }
}

impl ScoutPrefetcher {
    pub fn new(skeleton_params: SkeletonParams, predict_params: PredictParams) -> Self {
        ScoutPrefetcher { skeleton_params, predict_params, tracker: CandidateTracker::new() }
    }

    /// Candidate-count series (Figure 5 of the paper).
    pub fn candidate_history(&self) -> &[usize] {
        self.tracker.history()
    }
}

impl Prefetcher for ScoutPrefetcher {
    fn name(&self) -> &'static str {
        "scout"
    }

    fn plan(&mut self, ctx: &PrefetchContext<'_>) -> PrefetchPlan {
        let skeleton = Skeleton::reconstruct(ctx.result, ctx.query, self.skeleton_params);
        let survivors = self.tracker.advance(&skeleton);

        // Adapt the lookahead to the observed step length when available.
        let mut params = self.predict_params;
        let n = ctx.history.len();
        let motion = (n >= 2).then(|| ctx.history[n - 1] - ctx.history[n - 2]);
        if let Some(m) = motion {
            let step = m.norm();
            if step > 0.0 {
                params.lookahead = step;
            }
        }
        // Prefetch boxes slightly larger than the view box absorb the
        // residual error of linear extrapolation on curved branches.
        let half = ctx.query.extent() * 0.5;
        params.prefetch_radius = half.x.max(half.y).max(half.z) * 1.25;

        // Keep only exits consistent with the direction of travel: the
        // user follows the structure onward, and the region behind the
        // current box was just visited (resident in the pool anyway).
        let forward = survivors
            .iter()
            .flat_map(|&i| &skeleton.structures[i].exits)
            .filter(|e| motion.is_none_or(|m| e.direction.dot(m) >= 0.0));
        let regions = extrapolate_exits(forward, params);
        PrefetchPlan { regions, pages: Vec::new() }
    }

    fn reset(&mut self) {
        self.tracker.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_geom::Segment;

    fn seg(id: u64, a: (f64, f64, f64), b: (f64, f64, f64)) -> NeuronSegment {
        NeuronSegment {
            id,
            neuron: 0,
            section: 0,
            index_on_section: 0,
            geom: Segment::new(Vec3::new(a.0, a.1, a.2), Vec3::new(b.0, b.1, b.2), 0.1),
        }
    }

    #[test]
    fn none_plans_nothing() {
        let q = Aabb::cube(Vec3::ZERO, 1.0);
        let ctx =
            PrefetchContext { query: &q, result: &[], history: &[Vec3::ZERO], pages_read: &[] };
        assert!(NoPrefetch.plan(&ctx).is_empty());
    }

    #[test]
    fn hilbert_plans_adjacent_pages() {
        let q = Aabb::cube(Vec3::ZERO, 1.0);
        let ctx =
            PrefetchContext { query: &q, result: &[], history: &[Vec3::ZERO], pages_read: &[5, 6] };
        let plan = HilbertPrefetcher { window: 1 }.plan(&ctx);
        assert_eq!(plan.pages, vec![4, 7]); // 5,6 excluded as already read
        let wide = HilbertPrefetcher { window: 2 }.plan(&ctx);
        assert_eq!(wide.pages, vec![3, 4, 7, 8]);
    }

    #[test]
    fn hilbert_handles_page_zero() {
        let q = Aabb::cube(Vec3::ZERO, 1.0);
        let ctx =
            PrefetchContext { query: &q, result: &[], history: &[Vec3::ZERO], pages_read: &[0] };
        let plan = HilbertPrefetcher { window: 2 }.plan(&ctx);
        assert_eq!(plan.pages, vec![1, 2]); // no underflow below page 0
    }

    #[test]
    fn extrapolation_follows_camera_motion() {
        let q = Aabb::cube(Vec3::new(10.0, 0.0, 0.0), 2.0);
        let hist = vec![Vec3::new(5.0, 0.0, 0.0), Vec3::new(10.0, 0.0, 0.0)];
        let plan = ExtrapolationPrefetcher { steps_ahead: 2 }.plan(&PrefetchContext {
            query: &q,
            result: &[],
            history: &hist,
            pages_read: &[],
        });
        assert_eq!(plan.regions.len(), 2);
        assert_eq!(plan.regions[0].center(), Vec3::new(15.0, 0.0, 0.0));
        assert_eq!(plan.regions[1].center(), Vec3::new(20.0, 0.0, 0.0));
    }

    #[test]
    fn extrapolation_needs_two_points() {
        let q = Aabb::cube(Vec3::ZERO, 1.0);
        let hist = vec![Vec3::ZERO];
        let plan = ExtrapolationPrefetcher::default().plan(&PrefetchContext {
            query: &q,
            result: &[],
            history: &hist,
            pages_read: &[],
        });
        assert!(plan.is_empty());
    }

    #[test]
    fn scout_predicts_along_structure_not_camera() {
        // A chain that turns 90°: the camera moved +x, but the structure
        // exits the box towards +y. SCOUT must predict +y.
        let chain = [
            seg(0, (0.0, 0.0, 0.0), (2.0, 0.0, 0.0)),
            seg(1, (2.0, 0.0, 0.0), (4.0, 0.0, 0.0)),
            seg(2, (4.0, 0.0, 0.0), (4.0, 2.0, 0.0)),
            seg(3, (4.0, 2.0, 0.0), (4.0, 6.0, 0.0)), // exits upward
        ];
        let q = Aabb::new(Vec3::new(1.0, -1.0, -1.0), Vec3::new(5.0, 3.0, 1.0));
        let result: Vec<&NeuronSegment> =
            chain.iter().filter(|s| s.aabb().intersects(&q)).collect();
        let hist = vec![Vec3::new(0.0, 0.0, 0.0), Vec3::new(3.0, 1.0, 0.0)];
        let mut scout = ScoutPrefetcher::default();
        let plan = scout.plan(&PrefetchContext {
            query: &q,
            result: &result,
            history: &hist,
            pages_read: &[],
        });
        assert!(!plan.regions.is_empty());
        // The predicted centre lies above the box (structure direction),
        // not to the right of it (camera direction).
        let c = plan.regions[0].center();
        assert!(c.y > 3.0, "predicted centre {c} should be above the query box");
    }

    #[test]
    fn scout_reset_clears_candidates() {
        let mut scout = ScoutPrefetcher::default();
        let chain = [seg(0, (0.0, 0.0, 0.0), (5.0, 0.0, 0.0))];
        let q = Aabb::cube(Vec3::ZERO, 2.0);
        let result: Vec<&NeuronSegment> = chain.iter().collect();
        scout.plan(&PrefetchContext {
            query: &q,
            result: &result,
            history: &[Vec3::ZERO],
            pages_read: &[],
        });
        assert_eq!(scout.candidate_history().len(), 1);
        scout.reset();
        assert!(scout.candidate_history().is_empty());
    }
}
