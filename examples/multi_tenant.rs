//! Multi-tenant program serving: eight tenants running three distinct rule
//! sets subscribe to one shared stream through the `MultiTenantEngine`.
//! Tenants whose program text renders identically share one serving entry —
//! the scheduler runs each window once per entry, not once per tenant — and
//! each entry reuses the communities a slide leaves untouched. A tenant
//! joins and another retires mid-stream to show runtime admission, so this
//! example calls `process` window by window; `streamrule run --tenants N`
//! streams the same scheduler through a one-lane `StreamEngine`.
//!
//! Run with: `cargo run --release --example multi_tenant`

use stream_reasoner::prelude::*;

const TRAFFIC: &str = r#"
    very_slow_speed(X) :- average_speed(X,Y), Y < 20.
    many_cars(X)       :- car_number(X,Y), Y > 40.
    traffic_jam(X)     :- very_slow_speed(X), many_cars(X), not traffic_light(X).
    give_notification(X) :- traffic_jam(X).
"#;

const FIRE: &str = r#"
    car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).
    give_notification(X) :- car_fire(X).
"#;

const CONGESTION: &str = r#"
    many_cars(X) :- car_number(X,Y), Y > 40.
    clear(X)     :- average_speed(X,Y), Y > 80, not many_cars(X).
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Eight tenants over three distinct programs: five watch traffic jams
    // (all five share ONE serving entry), two watch car fires, one watches
    // clear roads. Admission order is serving order.
    let mut engine = MultiTenantEngine::new(ReasonerConfig::default());
    for (tenant, program) in [
        ("city-ops", TRAFFIC),
        ("radio-a", TRAFFIC),
        ("radio-b", TRAFFIC),
        ("nav-app", TRAFFIC),
        ("billboard", TRAFFIC),
        ("fire-dept", FIRE),
        ("insurance", FIRE),
        ("logistics", CONGESTION),
    ] {
        engine.admit(tenant, program, TenantPartitioner::Dependency)?;
    }
    println!("{} tenants over {} serving entries", engine.tenant_count(), engine.program_count());

    // One shared sliding-window stream serves everyone.
    let mut generator = paper_generator(GeneratorKind::CorrelatedSparse, 2017);
    let mut windower = SlidingWindower::new(2_000, 500);
    let mut processed = 0usize;
    for triple in generator.window(2_000 + 500 * 11) {
        let Some(window) = windower.push(triple) else { continue };
        let outputs = engine.process(&window)?;
        processed += 1;

        // Runtime admission: one tenant leaves and another joins mid-stream.
        if processed == 4 {
            engine.retire("billboard")?;
            engine.admit("late-joiner", CONGESTION, TenantPartitioner::Dependency)?;
            println!("-- window {}: billboard retired, late-joiner admitted --", window.id);
        }
        if window.id % 4 == 0 {
            let notifications: usize = outputs
                .iter()
                .filter(|o| {
                    o.output
                        .answers
                        .first()
                        .is_some_and(|a| a.display(&o.syms).to_string().contains("notification"))
                })
                .count();
            println!(
                "window {:>2} ({} items): {} tenant results, {} with notifications",
                window.id,
                window.len(),
                outputs.len(),
                notifications
            );
        }
    }

    let stats = engine.stats();
    println!("\nper-tenant latency (ms):");
    for t in &stats.tenants {
        println!(
            "  {:<11} program {:016x}: p50 {:>6.2}  p95 {:>6.2}  p99 {:>6.2}  ({} windows)",
            t.tenant,
            t.program,
            t.latency.p50_ms,
            t.latency.p95_ms,
            t.latency.p99_ms,
            t.latency.count
        );
    }
    let dedup = stats.dedup.expect("scheduler stats carry dedup counters");
    println!(
        "\nwork dedup: {} tenant-windows served by {} program runs \
         ({} saved, ratio {:.2})",
        dedup.tenant_windows, dedup.program_runs, dedup.shared_runs_saved, dedup.dedup_ratio
    );
    if let Some(reuse) = &stats.incremental {
        println!(
            "communities: {} reused, {} recomputed (dirty ratio {:.2})",
            reuse.hits, reuse.misses, reuse.dirty_partition_ratio
        );
    }
    Ok(())
}
