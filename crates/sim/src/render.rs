//! Terminal rendering of execution traces (Gantt chart + speed profile).

use crate::task::TaskSet;
use crate::trace::{SegmentKind, Trace};

/// Renders `trace` as an ASCII chart: one Gantt row per task (`█` where the
/// task executes), an `idle` row, and a speed-profile row mapping the
/// current speed to digits `0`–`9` (e.g. `4` ≈ 40–49 % speed).
///
/// `width` is the number of character columns the time axis is quantized
/// into; each column shows the dominant activity of its time slice.
///
/// ```
/// use stadvs_power::{Processor, Speed};
/// use stadvs_sim::{render_gantt, ActiveJob, Governor, SchedulerView,
///                  SimConfig, Simulator, Task, TaskSet, WorstCase};
///
/// struct Half;
/// impl Governor for Half {
///     fn name(&self) -> &str { "half" }
///     fn select_speed(&mut self, _: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
///         Speed::new(0.5).expect("valid")
///     }
/// }
///
/// # fn main() -> Result<(), stadvs_sim::SimError> {
/// let tasks = TaskSet::new(vec![Task::new(1.0, 4.0)?])?;
/// let sim = Simulator::new(tasks.clone(), Processor::ideal_continuous(),
///                          SimConfig::new(8.0)?.with_trace(true))?;
/// let out = sim.run(&mut Half, &WorstCase)?;
/// let chart = render_gantt(out.trace.as_ref().expect("trace on"), &tasks, 32);
/// assert!(chart.contains("T0"));
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn render_gantt(trace: &Trace, tasks: &TaskSet, width: usize) -> String {
    assert!(width > 0, "chart width must be positive");
    let end = trace.end();
    if end <= 0.0 {
        return String::from("(empty trace)\n");
    }
    let slice = end / width as f64;
    let n = tasks.len();

    // Dominant activity per (row, column): time accumulated.
    let mut exec_time = vec![vec![0.0_f64; width]; n];
    let mut idle_time = vec![0.0_f64; width];
    let mut speed_weight = vec![0.0_f64; width]; // Σ speed·duration (exec only)

    for seg in trace.segments() {
        let first = ((seg.start / slice).floor() as usize).min(width - 1);
        let last = (((seg.end - 1e-12) / slice).floor() as usize).min(width - 1);
        for col in first..=last {
            let col_start = col as f64 * slice;
            let col_end = col_start + slice;
            let overlap = (seg.end.min(col_end) - seg.start.max(col_start)).max(0.0);
            if overlap <= 0.0 {
                continue;
            }
            match seg.kind {
                SegmentKind::Execute { job } => {
                    if let Some(row) = exec_time.get_mut(job.task.0) {
                        row[col] += overlap;
                    }
                    speed_weight[col] += seg.speed.ratio() * overlap;
                }
                SegmentKind::Idle | SegmentKind::Transition => idle_time[col] += overlap,
            }
        }
    }

    let mut out = String::new();
    for (i, (id, task)) in tasks.iter().enumerate() {
        let label = task
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| id.to_string());
        out.push_str(&format!("{label:>12} │"));
        for &mine in exec_time[i].iter().take(width) {
            let c = if mine <= 0.0 {
                ' '
            } else if mine >= 0.5 * slice {
                '█'
            } else {
                '▒'
            };
            out.push(c);
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>12} │", "idle"));
    for &idle in idle_time.iter().take(width) {
        out.push(if idle >= 0.5 * slice { '.' } else { ' ' });
    }
    out.push('\n');
    out.push_str(&format!("{:>12} │", "speed"));
    for col in 0..width {
        let busy: f64 = (0..n).map(|i| exec_time[i][col]).sum();
        if busy <= 0.0 {
            out.push(' ');
        } else {
            let mean_speed = speed_weight[col] / busy;
            let digit = ((mean_speed * 10.0).floor() as u32).min(9);
            out.push(char::from_digit(digit, 10).unwrap_or('9'));
        }
    }
    out.push('\n');
    out.push_str(&format!(
        "{:>12} └{}\n{:>12}  0{:>width$.3}\n",
        "",
        "─".repeat(width),
        "t (s)",
        end,
        width = width - 1
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::task::{Task, TaskId};
    use crate::trace::Segment;
    use stadvs_power::{Processor, Speed};

    fn trace_fixture() -> (Trace, TaskSet) {
        let tasks = TaskSet::new(vec![
            Task::new(1.0, 4.0).unwrap().named("audio"),
            Task::new(1.0, 4.0).unwrap(),
        ])
        .unwrap();
        let mut trace = Trace::new(Processor::ideal_continuous());
        let seg = |start: f64, end: f64, speed: f64, kind| Segment {
            start,
            end,
            speed: Speed::new(speed).unwrap(),
            kind,
        };
        let job = |task: usize| JobId {
            task: TaskId(task),
            index: 0,
        };
        trace.push(seg(0.0, 2.0, 1.0, SegmentKind::Execute { job: job(0) }));
        trace.push(seg(2.0, 3.0, 0.5, SegmentKind::Execute { job: job(1) }));
        trace.push(seg(3.0, 4.0, 0.5, SegmentKind::Idle));
        (trace, tasks)
    }

    #[test]
    fn renders_rows_and_speed_digits() {
        let (trace, tasks) = trace_fixture();
        let chart = render_gantt(&trace, &tasks, 8);
        let lines: Vec<&str> = chart.lines().collect();
        // Task rows: audio executes in the first half.
        assert!(lines[0].contains("audio"));
        assert!(lines[0].contains('█'));
        assert!(lines[1].contains("T1"));
        // Idle row has dots at the end.
        assert!(lines[2].trim_start().starts_with("idle"));
        assert!(lines[2].ends_with(". ") || lines[2].ends_with(".."));
        // Speed row: first columns at full speed (digit 9), later at 5.
        let speed_row = lines[3];
        assert!(speed_row.contains('9'));
        assert!(speed_row.contains('5'));
    }

    #[test]
    fn empty_trace_is_handled() {
        let tasks = TaskSet::new(vec![Task::new(1.0, 4.0).unwrap()]).unwrap();
        assert_eq!(
            render_gantt(&Trace::new(Processor::ideal_continuous()), &tasks, 10),
            "(empty trace)\n"
        );
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        let (trace, tasks) = trace_fixture();
        let _ = render_gantt(&trace, &tasks, 0);
    }
}
