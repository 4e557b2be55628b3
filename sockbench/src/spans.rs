//! Spans of the traced run and the interval arithmetic over them.
//!
//! Times are wall-clock nanoseconds since one shared epoch. A span's self
//! time is its duration minus the part of its interval that its children
//! cover; children lying outside the parent's interval (the replays the
//! traced run makes after a query has finished) cover nothing.

/// One recorded span. `parent` indexes the span list it was pushed to;
/// every span of one query carries that query's id.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub query: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn to_json(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            r#"{{"name": "{}", "query": {}, "parent": {}, "start_ns": {}, "end_ns": {}}}"#,
            self.name, self.query, parent, self.start_ns, self.end_ns
        )
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + run.map_or(0, |(s, e)| e - s)
}

/// Self time of a span over `parent` whose children cover `children`.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (parent.1 - parent.0) - union_len(children, parent.0, parent.1)
}

/// `scatter.overlap` of one query: the summed duration of its exchanges
/// divided by the length of their union. 1.0 means they ran one after the
/// other; `None` when the query made no exchange.
pub fn overlap(exchanges: &[(u64, u64)]) -> Option<f64> {
    let sum: u64 = exchanges.iter().map(|&(s, e)| e - s).sum();
    let union = union_len(exchanges, 0, u64::MAX);
    (union > 0).then(|| sum as f64 / union as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_part_once() {
        // children overlap each other on [30, 40]: covered = [20, 50] = 30
        assert_eq!(self_time((0, 100), &[(20, 40), (30, 50)]), 70);
        // nested and touching intervals merge
        assert_eq!(self_time((0, 100), &[(10, 20), (12, 15), (20, 30)]), 80);
        assert_eq!(self_time((0, 100), &[]), 100);
    }

    #[test]
    fn self_time_ignores_children_outside_the_parent() {
        // a replay after the query ended, and one straddling its end
        assert_eq!(self_time((0, 100), &[(150, 300)]), 100);
        assert_eq!(self_time((0, 100), &[(90, 300)]), 90);
        assert_eq!(self_time((50, 100), &[(0, 60)]), 40);
    }

    #[test]
    fn overlap_is_one_for_sequential_and_higher_for_concurrent() {
        assert_eq!(overlap(&[]), None);
        assert_eq!(overlap(&[(0, 10)]), Some(1.0));
        assert_eq!(overlap(&[(0, 10), (10, 30), (40, 50)]), Some(1.0));
        // two fully concurrent exchanges: 20 / 10
        assert_eq!(overlap(&[(0, 10), (0, 10)]), Some(2.0));
        // partial: sum 30, union [0, 20] = 20
        assert_eq!(overlap(&[(0, 15), (5, 20)]), Some(1.5));
    }

    #[test]
    fn span_json_carries_every_field() {
        let s = Span {
            name: "xchg",
            query: 7,
            parent: Some(3),
            start_ns: 10,
            end_ns: 25,
        };
        assert_eq!(
            s.to_json(),
            r#"{"name": "xchg", "query": 7, "parent": 3, "start_ns": 10, "end_ns": 25}"#
        );
    }
}
