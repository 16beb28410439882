use hswx_benchmark::trace::{self_times, Layer, Span, Tracer};
use hswx_benchmark::units::{execute, pass_units, Output, Workload};
use hswx_engine::MetricsRegistry;
use std::time::Instant;

fn span(layer: Layer, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        layer,
        parent,
        start_ns,
        end_ns,
        walks: 0,
    }
}

#[test]
fn self_times_telescope_to_the_root_duration() {
    let spans = [
        span(Layer::Driver, None, 0, 100),
        span(Layer::Placement, Some(0), 10, 40),
        span(Layer::Check, Some(1), 15, 25),
        span(Layer::Chase, Some(0), 50, 90),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs, [30, 20, 10, 40]);
    assert_eq!(selfs.iter().sum::<u64>(), spans[0].dur_ns());
}

#[test]
#[should_panic(expected = "inside their parent")]
fn a_child_longer_than_its_parent_is_rejected() {
    self_times(&[
        span(Layer::Driver, None, 0, 10),
        span(Layer::Chase, Some(0), 0, 11),
    ]);
}

#[test]
fn a_traced_unit_telescopes_exactly_to_its_duration() {
    let unit = pass_units(Workload::LatencySweep)
        .into_iter()
        .find(|u| u.cell.artifact == "fig4" && u.cell.row == "node S" && u.cell.col == "4096")
        .expect("fig4 node S at 4 KiB");
    let mut tr = Tracer::start(Instant::now(), true);
    let out = execute(&unit.job, &[], &mut tr, &MetricsRegistry::new());
    assert!(matches!(out, Output::Value(v) if v > 0.0));
    let (start, end, spans) = tr.finish();
    let layers: Vec<Layer> = spans.iter().map(|s| s.layer).collect();
    assert_eq!(
        layers,
        [
            Layer::Driver,
            Layer::SystemNew,
            Layer::Placement,
            Layer::Chase,
            Layer::Check
        ]
    );
    assert_eq!(self_times(&spans).iter().sum::<u64>(), end - start);
    assert_eq!(
        spans[3].walks, 64,
        "one chase walk per line of a 4 KiB buffer"
    );
    assert!(spans[2].walks > 0);
}

#[test]
fn an_untraced_unit_records_only_its_duration() {
    let unit = &pass_units(Workload::LatencySweep)[0];
    let mut tr = Tracer::start(Instant::now(), false);
    execute(&unit.job, &[], &mut tr, &MetricsRegistry::new());
    assert_eq!(tr.violations, 0);
    let (start, end, spans) = tr.finish();
    assert!(end >= start);
    assert!(spans.is_empty());
}
