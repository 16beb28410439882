use hswx_benchmark::stats::{median, nearest_rank, quartiles, spread};

#[test]
fn nearest_rank_picks_the_smallest_sample_covering_the_percentile() {
    let xs = [35.0, 20.0, 50.0, 15.0, 40.0];
    assert_eq!(nearest_rank(&xs, 5.0), Some(15.0));
    assert_eq!(nearest_rank(&xs, 30.0), Some(20.0));
    assert_eq!(nearest_rank(&xs, 40.0), Some(20.0));
    assert_eq!(nearest_rank(&xs, 50.0), Some(35.0));
    assert_eq!(nearest_rank(&xs, 90.0), Some(50.0));
    assert_eq!(nearest_rank(&xs, 100.0), Some(50.0));
    assert_eq!(nearest_rank(&xs, 0.0), Some(15.0));
    // An even count: p50 is the lower middle sample, never an average.
    assert_eq!(nearest_rank(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.0));
    assert_eq!(nearest_rank(&[], 50.0), None);
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&one_to_ten), Some((2.75, 8.25)));
    assert_eq!(median(&one_to_ten), Some(5.5));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
    // statistics.quantiles([4, 1, 7, 3, 9], n=4) == [2.0, 4.0, 8.0]
    assert_eq!(quartiles(&[4.0, 1.0, 7.0, 3.0, 9.0]), Some((2.0, 8.0)));
    assert_eq!(median(&[4.0, 1.0, 7.0, 3.0, 9.0]), Some(4.0));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&[]), None);
}

#[test]
fn spread_is_the_interquartile_range_over_the_median() {
    let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(spread(&one_to_ten), Some((8.25 - 2.75) / 5.5));
    assert_eq!(spread(&[3.0, 3.0, 3.0]), Some(0.0));
    assert_eq!(spread(&[0.0, 0.0]), None);
}
