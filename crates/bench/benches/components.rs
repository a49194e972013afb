//! Component benches: the building blocks of the pipeline, measured in
//! isolation — simulator throughput, histogram fill, nearest-in-time
//! lookups, unbiased sampling, Savitzky–Golay smoothing, α estimation, and
//! the codecs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use autosens_bench::dataset;
use autosens_core::alpha::{estimate_alpha, Grouping};
use autosens_core::biased::biased_histogram;
use autosens_core::config::AutoSensConfig;
use autosens_core::unbiased::unbiased_histogram;
use autosens_sim::{generate, Scenario, SimConfig};
use autosens_stats::savgol::SavGol;
use autosens_telemetry::codec;
use autosens_telemetry::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_simulator(c: &mut Criterion) {
    let mut cfg = SimConfig::scenario(Scenario::Smoke);
    cfg.days = 3;
    cfg.n_business = 100;
    cfg.n_consumer = 100;
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("generate_3d_200u", |b| {
        b.iter(|| {
            let (log, _) = generate(black_box(&cfg)).expect("valid");
            black_box(log.len())
        })
    });
    group.finish();
}

fn bench_histograms(c: &mut Criterion) {
    let data = dataset();
    let binner = AutoSensConfig::default().binner().expect("valid");
    let mut group = c.benchmark_group("histogram");
    group.throughput(Throughput::Elements(data.log.len() as u64));
    group.bench_function("biased_fill", |b| {
        b.iter(|| black_box(biased_histogram(&data.log.view(), &binner).total()))
    });
    group.finish();
}

fn bench_nearest(c: &mut Criterion) {
    let data = dataset();
    let span = data.log.end_time().expect("non-empty").millis();
    let mut group = c.benchmark_group("lookup");
    group.bench_function("nearest_in_time_10k", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..10_000 {
                let t = rng.gen_range(0..span);
                let (lo, _) = data.log.nearest_in_time(SimTime(t)).expect("sorted");
                acc ^= lo;
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_unbiased(c: &mut Criterion) {
    let data = dataset();
    let binner = AutoSensConfig::default().binner().expect("valid");
    let mut group = c.benchmark_group("unbiased");
    group.sample_size(20);
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("draws_100k", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| {
            let h = unbiased_histogram(&data.log.view(), &binner, 100_000, &mut rng).expect("ok");
            black_box(h.total())
        })
    });
    group.finish();
}

fn bench_savgol(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let series: Vec<f64> = (0..300).map(|_| rng.gen::<f64>()).collect();
    let mut group = c.benchmark_group("savgol");
    group.bench_function("construct_101_3", |b| {
        b.iter(|| black_box(SavGol::new(101, 3).expect("valid").window()))
    });
    let filter = SavGol::new(101, 3).expect("valid");
    group.bench_function("smooth_300bins", |b| {
        b.iter(|| black_box(filter.smooth(&series).expect("ok").len()))
    });
    group.finish();
}

fn bench_alpha(c: &mut Criterion) {
    let data = dataset();
    let cfg = AutoSensConfig::default();
    let binner = cfg.binner().expect("valid");
    let mut group = c.benchmark_group("alpha");
    group.sample_size(10);
    group.bench_function("estimate_hour_slots", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| {
            let est = estimate_alpha(
                &data.log.view(),
                &binner,
                Grouping::HourSlots,
                &cfg,
                &mut rng,
                None,
            )
            .expect("ok");
            black_box(est.groups.len())
        })
    });
    group.finish();
}

fn bench_sessions(c: &mut Criterion) {
    use autosens_core::abandonment::session_continuation;
    use autosens_sim::sessions::{generate_sessions, SessionConfig};
    let mut cfg = SimConfig::scenario(Scenario::Smoke);
    cfg.days = 5;
    cfg.n_business = 150;
    cfg.n_consumer = 150;
    let scfg = SessionConfig::default();
    let mut group = c.benchmark_group("sessions");
    group.sample_size(10);
    group.bench_function("generate_sessions_5d_300u", |b| {
        b.iter(|| {
            let (log, _) = generate_sessions(black_box(&cfg), &scfg).expect("valid");
            black_box(log.len())
        })
    });
    let (log, _) = generate_sessions(&cfg, &scfg).expect("valid");
    let acfg = AutoSensConfig::default();
    group.bench_function("abandonment_analysis", |b| {
        b.iter(|| {
            let report = session_continuation(&log, &acfg, 600_000).expect("fits");
            black_box(report.stats.n_sessions)
        })
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let data = dataset();
    let mut csv = Vec::new();
    codec::write_csv(&data.log, &mut csv).expect("serialize");
    let mut group = c.benchmark_group("codec");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(csv.len() as u64));
    group.bench_function("write_csv", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(csv.len());
            codec::write_csv(&data.log, &mut out).expect("ok");
            black_box(out.len())
        })
    });
    group.bench_function("read_csv", |b| {
        b.iter(|| black_box(codec::read_csv(csv.as_slice()).expect("ok").len()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulator,
    bench_histograms,
    bench_nearest,
    bench_unbiased,
    bench_savgol,
    bench_alpha,
    bench_sessions,
    bench_codec
);
criterion_main!(benches);
