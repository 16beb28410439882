//! `hswx top` — live terminal dashboard over supervisor heartbeats.
//!
//! Campaign and soak drivers rewrite `<dir>/heartbeat.txt` atomically on
//! every state change (see `hswx_engine::heartbeat`); `top` tails that
//! file and renders a frame per poll: job progress, retries, an ETA, and
//! per-component activity sparklines derived from the *deltas* of the
//! cumulative counter totals between frames (a counter that stopped
//! moving draws a flat line even though its total is huge).
//!
//! Rendering is pure (`render_frame`) so tests can drive it without a
//! terminal; the command loop owns the polling, ANSI clearing, and exit
//! condition (status leaves `running`, or `--frames` is exhausted).

use hswx_engine::Heartbeat;
use std::collections::BTreeMap;

/// Consecutive unreadable polls the command loop tolerates before giving
/// up: transient torn reads heal in one or two polls, a genuinely
/// corrupt or foreign file keeps failing.
pub const MAX_UNREADABLE: u32 = 20;

/// One poll of the heartbeat file, classified for the command loop:
/// `Absent` (no file yet, or cleaned up), `Unreadable` (exists but does
/// not parse — a torn or partial frame to skip and retry, carrying the
/// parse error for the give-up path), or a full `Frame`.
pub enum Ingest {
    /// The heartbeat file does not exist.
    Absent,
    /// The file exists but failed to parse (torn/partial read).
    Unreadable(String),
    /// A complete, parsed heartbeat frame.
    Frame(Box<Heartbeat>),
}

/// Poll `path` once and classify the result. Never an `Err`: a torn or
/// half-written heartbeat (atomic-rename writers make this impossible,
/// but rsync'd output dirs and foreign writers do not) is a skippable
/// [`Ingest::Unreadable`], not a crash of the dashboard.
pub fn ingest(path: &std::path::Path) -> Ingest {
    match Heartbeat::read(path) {
        Ok(None) => Ingest::Absent,
        Ok(Some(hb)) => Ingest::Frame(Box::new(hb)),
        Err(e) => Ingest::Unreadable(e),
    }
}

/// Sparkline glyph ramps, lowest to highest activity.
const BARS_UNICODE: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
const BARS_ASCII: [char; 8] = ['.', ',', ':', '-', '=', '+', '*', '#'];

/// How many per-frame deltas each sparkline keeps.
pub const SPARK_WIDTH: usize = 24;

/// Rolling per-metric activity history across polled frames.
#[derive(Debug, Default)]
pub struct History {
    /// Last cumulative totals seen, for delta computation.
    last: BTreeMap<String, u64>,
    /// Recent per-frame deltas, oldest first, capped at [`SPARK_WIDTH`].
    deltas: BTreeMap<String, Vec<u64>>,
}

impl History {
    /// Fold a new frame's cumulative totals in, recording one delta per
    /// metric. Counters are monotone while a driver runs; a restarted
    /// driver (totals dropping) resets that metric's history.
    pub fn observe(&mut self, metrics: &[(String, u64)]) {
        for (name, total) in metrics {
            let prev = self.last.insert(name.clone(), *total);
            let series = self.deltas.entry(name.clone()).or_default();
            match prev {
                Some(p) if *total >= p => series.push(total - p),
                Some(_) => series.clear(), // driver restarted
                None => {} // first sight: no delta yet
            }
            if series.len() > SPARK_WIDTH {
                let excess = series.len() - SPARK_WIDTH;
                series.drain(..excess);
            }
        }
    }

    fn sparkline(&self, name: &str, plain: bool) -> String {
        let ramp = if plain { BARS_ASCII } else { BARS_UNICODE };
        let Some(series) = self.deltas.get(name) else { return String::new() };
        let max = series.iter().copied().max().unwrap_or(0);
        series
            .iter()
            .map(|&d| {
                if max == 0 {
                    ramp[0]
                } else {
                    // Scale into the ramp; any nonzero delta gets at
                    // least the second glyph so activity never renders
                    // as dead-flat.
                    ramp[(((d * 7).div_ceil(max)) as usize).clamp(usize::from(d > 0), 7)]
                }
            })
            .collect()
    }
}

fn fmt_duration_ms(ms: u64) -> String {
    let s = ms / 1000;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}.{}s", s, (ms % 1000) / 100)
    }
}

fn progress_bar(done: u64, total: u64, width: usize, plain: bool) -> String {
    if total == 0 {
        return String::new();
    }
    let filled = ((done.min(total) as usize) * width) / total as usize;
    let (on, off) = if plain { ('#', '.') } else { ('█', '░') };
    let mut bar = String::with_capacity(width);
    for i in 0..width {
        bar.push(if i < filled { on } else { off });
    }
    bar
}

/// Render one dashboard frame. Pure: all inputs explicit, no I/O.
pub fn render_frame(hb: &Heartbeat, history: &History, plain: bool) -> String {
    let mut s = format!(
        "hswx top {} {} [{}]  elapsed {}\n",
        if plain { "-" } else { "—" },
        hb.kind,
        hb.status,
        fmt_duration_ms(hb.elapsed_ms)
    );
    if hb.total > 0 {
        s.push_str(&format!(
            "  [{}] {}/{} jobs",
            progress_bar(hb.done, hb.total, 24, plain),
            hb.done,
            hb.total
        ));
    } else {
        s.push_str(&format!("  {} rounds", hb.done));
    }
    if hb.inflight > 0 {
        s.push_str(&format!("  {} in flight", hb.inflight));
    }
    if hb.failed > 0 {
        s.push_str(&format!("  {} FAILED", hb.failed));
    }
    if hb.retries > 0 {
        s.push_str(&format!("  {} retries", hb.retries));
    }
    if let Some(eta) = hb.eta_ms {
        if hb.status == "running" {
            s.push_str(&format!("  eta {}", fmt_duration_ms(eta)));
        }
    }
    s.push('\n');
    if !hb.metrics.is_empty() {
        s.push_str("  component activity (per poll):\n");
        for (name, total) in &hb.metrics {
            s.push_str(&format!(
                "    {:<24} {:<width$} {:>14}\n",
                name,
                history.sparkline(name, plain),
                total,
                width = SPARK_WIDTH,
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hb(done: u64, metrics: &[(&str, u64)]) -> Heartbeat {
        let mut h = Heartbeat::start("campaign", 4);
        h.done = done;
        h.elapsed_ms = 1500;
        h.metrics = metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        h.update_eta();
        h
    }

    #[test]
    fn frames_show_progress_and_sparklines() {
        let mut history = History::default();
        let frames = [
            hb(1, &[("qpi.bytes", 1000), ("sys.walks", 10)]),
            hb(2, &[("qpi.bytes", 5000), ("sys.walks", 20)]),
            hb(3, &[("qpi.bytes", 5100), ("sys.walks", 30)]),
        ];
        let mut out = String::new();
        for f in &frames {
            history.observe(&f.metrics);
            out = render_frame(f, &history, true);
        }
        assert!(out.contains("hswx top - campaign [running]"), "{out}");
        assert!(out.contains("3/4 jobs"), "{out}");
        assert!(out.contains("eta"), "{out}");
        assert!(out.contains("qpi.bytes"), "{out}");
        // Two deltas recorded: 4000 then 100 — the big one draws the top
        // ASCII glyph, the small one something lower.
        let line = out.lines().find(|l| l.contains("qpi.bytes")).unwrap();
        assert!(line.contains('#'), "{line}");
    }

    #[test]
    fn plain_frames_contain_no_ansi_or_unicode() {
        let mut history = History::default();
        let f = hb(1, &[("sys.walks", 10)]);
        history.observe(&f.metrics);
        history.observe(&hb(2, &[("sys.walks", 25)]).metrics);
        let out = render_frame(&f, &history, true);
        assert!(out.is_ascii(), "plain mode must be pure ASCII: {out}");
        assert!(!out.contains('\u{1b}'));
    }

    #[test]
    fn driver_restart_resets_a_metrics_history() {
        let mut history = History::default();
        history.observe(&[("sys.walks".to_string(), 100)]);
        history.observe(&[("sys.walks".to_string(), 200)]);
        assert_eq!(history.deltas["sys.walks"], vec![100]);
        history.observe(&[("sys.walks".to_string(), 50)]); // restart
        assert!(history.deltas["sys.walks"].is_empty());
    }

    #[test]
    fn sparkline_history_is_bounded() {
        let mut history = History::default();
        for i in 0..200u64 {
            history.observe(&[("m".to_string(), i * 10)]);
        }
        assert_eq!(history.deltas["m"].len(), SPARK_WIDTH);
    }

    #[test]
    fn ingest_classifies_absent_torn_and_full_frames() {
        let dir = std::env::temp_dir().join(format!("hswx-top-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heartbeat.txt");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(ingest(&path), Ingest::Absent));
        // A torn write that cut the file mid-magic must classify as a
        // skippable Unreadable, never a hard error.
        std::fs::write(&path, "hswx-heartb").unwrap();
        assert!(matches!(ingest(&path), Ingest::Unreadable(_)));
        // Truncated mid-body: the header survived and every key=value
        // line is self-delimiting, so the partial frame still parses.
        let mut hb = Heartbeat::start("soak", 0);
        hb.done = 3;
        let text = hb.to_text();
        std::fs::write(&path, &text[..text.len() - 4]).unwrap();
        assert!(matches!(ingest(&path), Ingest::Frame(_)));
        hb.write(&path).unwrap();
        match ingest(&path) {
            Ingest::Frame(got) => assert_eq!(*got, hb),
            _ => panic!("a complete frame must ingest as Frame"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durations_format_across_scales() {
        assert_eq!(fmt_duration_ms(800), "0.8s");
        assert_eq!(fmt_duration_ms(61_000), "1m01s");
        assert_eq!(fmt_duration_ms(3_700_000), "1h01m");
    }

    #[test]
    fn soak_heartbeats_render_rounds_instead_of_a_bar() {
        let mut h = Heartbeat::start("soak", 0);
        h.done = 7;
        let out = render_frame(&h, &History::default(), true);
        assert!(out.contains("7 rounds"), "{out}");
        assert!(!out.contains('/'), "{out}");
    }
}
