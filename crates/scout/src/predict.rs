//! Exit-edge extrapolation: "At the exit locations, the edges exiting are
//! extrapolated linearly to predict the next query locations. Range
//! queries are then executed at the predicted locations to prefetch data
//! into memory." (§3.1)

use crate::skeleton::ExitEdge;
use neurospatial_geom::Aabb;

/// Extrapolation parameters.
#[derive(Debug, Clone, Copy)]
pub struct PredictParams {
    /// How far beyond the exit point to centre the prefetch box — should
    /// match the user's step length; SCOUT passes the last observed
    /// walkthrough step.
    pub lookahead: f64,
    /// Half-extent of each prefetch box (normally the view radius).
    pub prefetch_radius: f64,
    /// Upper bound on boxes generated per query (bandwidth guard).
    pub max_predictions: usize,
}

impl Default for PredictParams {
    fn default() -> Self {
        PredictParams { lookahead: 10.0, prefetch_radius: 15.0, max_predictions: 8 }
    }
}

/// Predict the next query regions from the exit edges of the candidate
/// structures: one box per edge, in the order given, up to
/// [`PredictParams::max_predictions`].
pub fn extrapolate_exits<'a, I>(exits: I, params: PredictParams) -> Vec<Aabb>
where
    I: IntoIterator<Item = &'a ExitEdge>,
{
    exits
        .into_iter()
        .take(params.max_predictions)
        .map(|e| Aabb::cube(e.exit_point + e.direction * params.lookahead, params.prefetch_radius))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_geom::Vec3;

    fn exit(segment_id: u64, exit_point: Vec3, direction: Vec3) -> ExitEdge {
        ExitEdge { segment_id, exit_point, direction }
    }

    #[test]
    fn boxes_centred_ahead_of_exit() {
        let e = exit(0, Vec3::new(10.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0));
        let boxes = extrapolate_exits(
            [&e],
            PredictParams { lookahead: 5.0, prefetch_radius: 2.0, max_predictions: 8 },
        );
        assert_eq!(boxes.len(), 1);
        assert_eq!(boxes[0].center(), Vec3::new(15.0, 0.0, 0.0));
        assert_eq!(boxes[0].extent(), Vec3::splat(4.0));
    }

    #[test]
    fn cap_respected() {
        let exits: Vec<ExitEdge> = (0..20)
            .map(|i| exit(i, Vec3::new(i as f64, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0)))
            .collect();
        let boxes = extrapolate_exits(
            &exits,
            PredictParams { lookahead: 1.0, prefetch_radius: 1.0, max_predictions: 4 },
        );
        assert_eq!(boxes.len(), 4);
        // The first four, in the order given.
        assert_eq!(boxes[3].center(), Vec3::new(3.0, 1.0, 0.0));
    }

    #[test]
    fn multiple_candidates_all_extrapolated() {
        let a = exit(0, Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        let b = exit(1, Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0));
        let boxes = extrapolate_exits([&a, &b], PredictParams::default());
        assert_eq!(boxes.len(), 2);
        assert_ne!(boxes[0].center(), boxes[1].center());
    }

    #[test]
    fn no_exits_no_predictions() {
        assert!(extrapolate_exits([], PredictParams::default()).is_empty());
    }
}
