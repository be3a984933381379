//! Execution traces (who ran when, at which speed).

use stadvs_power::{Processor, Speed};

use crate::job::JobId;

/// What the processor was doing during a [`Segment`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegmentKind {
    /// Executing a job at the segment's speed.
    Execute {
        /// The executing job.
        job: JobId,
    },
    /// Idle (no ready jobs).
    Idle,
    /// Mid speed/voltage transition (no instructions execute).
    Transition,
}

/// A maximal interval during which the processor state did not change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start instant, in seconds.
    pub start: f64,
    /// End instant, in seconds (`end >= start`).
    pub end: f64,
    /// The speed during the segment (the current platform speed — also
    /// recorded for idle and transition segments).
    pub speed: Speed,
    /// What the processor was doing.
    pub kind: SegmentKind,
}

impl Segment {
    /// The segment's duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A complete, ordered execution trace of one simulation run, with the
/// processor it ran on (the audit re-derives speeds and energy from it).
///
/// Consecutive segments with the same kind and speed are merged on insertion
/// so traces stay compact; segments are guaranteed contiguous and
/// non-overlapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Boxed: every outcome holds an `Option<Trace>`, and an inline
    /// processor would grow untraced outcomes too.
    processor: Box<Processor>,
    segments: Vec<Segment>,
}

impl Trace {
    /// Creates an empty trace of a run on `processor`.
    pub fn new(processor: Processor) -> Trace {
        Trace {
            processor: Box::new(processor),
            segments: Vec::new(),
        }
    }

    /// The processor the traced run executed on.
    pub fn processor(&self) -> &Processor {
        &self.processor
    }

    /// Appends a segment, merging it with the previous one when the state is
    /// identical. Zero-length segments are dropped.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the segment does not start where the trace
    /// currently ends (traces must be contiguous).
    pub fn push(&mut self, segment: Segment) {
        if segment.duration() <= 0.0 {
            return;
        }
        if let Some(last) = self.segments.last_mut() {
            debug_assert!(
                (segment.start - last.end).abs() < 1e-6,
                "trace gap: previous segment ends at {}, next starts at {}",
                last.end,
                segment.start
            );
            if last.kind == segment.kind && last.speed.same_point(segment.speed) {
                last.end = segment.end;
                return;
            }
        }
        self.segments.push(segment);
    }

    /// The recorded segments, in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total time spent executing jobs.
    pub fn busy_time(&self) -> f64 {
        self.time_where(|k| matches!(k, SegmentKind::Execute { .. }))
    }

    /// Total time spent idle.
    pub fn idle_time(&self) -> f64 {
        self.time_where(|k| matches!(k, SegmentKind::Idle))
    }

    /// Total time spent in speed transitions.
    pub fn transition_time(&self) -> f64 {
        self.time_where(|k| matches!(k, SegmentKind::Transition))
    }

    /// Total work (full-speed-normalized) executed for `job`.
    pub fn work_executed_for(&self, job: JobId) -> f64 {
        self.segments
            .iter()
            .filter(|s| matches!(s.kind, SegmentKind::Execute { job: j } if j == job))
            .map(|s| s.duration() * s.speed.ratio())
            .sum()
    }

    /// The end instant of the trace (0 when empty).
    pub fn end(&self) -> f64 {
        self.segments.last().map_or(0.0, |s| s.end)
    }

    fn time_where(&self, mut pred: impl FnMut(&SegmentKind) -> bool) -> f64 {
        self.segments
            .iter()
            .filter(|s| pred(&s.kind))
            .map(Segment::duration)
            .sum()
    }

    /// Renders the trace as CSV (`start,end,speed,kind,task,job`), ready
    /// for gnuplot/pandas: idle and transition rows have empty task/job
    /// fields. Speeds are the normalized ratios.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("start,end,speed,kind,task,job\n");
        for seg in &self.segments {
            let (kind, task, job) = match seg.kind {
                SegmentKind::Execute { job } => {
                    ("execute", job.task.0.to_string(), job.index.to_string())
                }
                SegmentKind::Idle => ("idle", String::new(), String::new()),
                SegmentKind::Transition => ("transition", String::new(), String::new()),
            };
            out.push_str(&format!(
                "{},{},{},{kind},{task},{job}\n",
                seg.start,
                seg.end,
                seg.speed.ratio()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn job(task: usize) -> JobId {
        JobId {
            task: TaskId(task),
            index: 0,
        }
    }

    fn seg(start: f64, end: f64, speed: f64, kind: SegmentKind) -> Segment {
        Segment {
            start,
            end,
            speed: Speed::new(speed).unwrap(),
            kind,
        }
    }

    #[test]
    fn push_merges_identical_neighbours() {
        let mut t = Trace::new(Processor::ideal_continuous());
        t.push(seg(0.0, 1.0, 1.0, SegmentKind::Execute { job: job(0) }));
        t.push(seg(1.0, 2.0, 1.0, SegmentKind::Execute { job: job(0) }));
        t.push(seg(2.0, 3.0, 0.5, SegmentKind::Execute { job: job(0) }));
        t.push(seg(3.0, 3.0, 0.5, SegmentKind::Idle)); // zero-length: dropped
        t.push(seg(3.0, 4.0, 0.5, SegmentKind::Idle));
        assert_eq!(t.segments().len(), 3);
        assert_eq!(t.segments()[0].end, 2.0);
        assert_eq!(t.end(), 4.0);
    }

    #[test]
    fn time_accounting_by_kind() {
        let mut t = Trace::new(Processor::ideal_continuous());
        t.push(seg(0.0, 2.0, 1.0, SegmentKind::Execute { job: job(0) }));
        t.push(seg(2.0, 2.5, 1.0, SegmentKind::Transition));
        t.push(seg(2.5, 4.5, 0.5, SegmentKind::Execute { job: job(1) }));
        t.push(seg(4.5, 6.0, 0.5, SegmentKind::Idle));
        assert!((t.busy_time() - 4.0).abs() < 1e-12);
        assert!((t.idle_time() - 1.5).abs() < 1e-12);
        assert!((t.transition_time() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn csv_rendering() {
        let mut t = Trace::new(Processor::ideal_continuous());
        t.push(seg(0.0, 1.0, 0.5, SegmentKind::Execute { job: job(2) }));
        t.push(seg(1.0, 2.0, 0.5, SegmentKind::Idle));
        t.push(seg(2.0, 2.1, 1.0, SegmentKind::Transition));
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "start,end,speed,kind,task,job");
        assert_eq!(lines[1], "0,1,0.5,execute,2,0");
        assert_eq!(lines[2], "1,2,0.5,idle,,");
        assert!(lines[3].starts_with("2,2.1,1,transition"));
    }

    #[test]
    fn work_executed_scales_with_speed() {
        let mut t = Trace::new(Processor::ideal_continuous());
        t.push(seg(0.0, 2.0, 0.5, SegmentKind::Execute { job: job(0) }));
        t.push(seg(2.0, 3.0, 1.0, SegmentKind::Execute { job: job(0) }));
        t.push(seg(3.0, 4.0, 1.0, SegmentKind::Execute { job: job(1) }));
        assert!((t.work_executed_for(job(0)) - 2.0).abs() < 1e-12);
        assert!((t.work_executed_for(job(1)) - 1.0).abs() < 1e-12);
    }
}
