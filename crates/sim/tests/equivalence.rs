//! Equivalence harness: the active-set engine ([`Simulation`]) and the
//! straightforward full-scan reference ([`ReferenceSimulation`]) must produce
//! **bit-identical** [`SimulationReport`]s — same delivery order, same
//! floating-point accumulation order, same RNG stream — for every seed, load
//! and fault scenario.
//!
//! Every case runs both engines under the conservation sanitizer and asserts
//! a clean audit: no flit created or destroyed outside inject/absorb, credit
//! counters the exact complement of downstream occupancy, faulty components
//! quiescent, no stale message references. Every case also runs the active
//! engine with nothing attached and asserts the same `RunOutcome`, so the
//! sanitizer is shown to observe without participating. (CDG-conformance
//! runs, which need the static verifier, live in the workspace-level
//! `sanitizer_conformance` suite.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use torus_faults::{FaultScenario, FaultSet};
use torus_routing::{RoutingAlgorithm, SwBasedRouting, TurnModelRouting, UpDownRouting};
use torus_sim::{ReferenceSimulation, SimConfig, Simulation, StopCondition};
use torus_topology::{AnyTopology, Direction, TopologySpec};

/// Runs both engines with `algo` on the same configuration, audited, and
/// asserts identical results, plus an unaudited active run identical to the
/// audited one. Returns the two audited engines' message-table peaks for
/// boundedness checks.
fn assert_equivalent_with<A: RoutingAlgorithm + Clone>(
    config: SimConfig,
    faults: FaultSet,
    algo: A,
) -> (u64, u64) {
    let mut plain = Simulation::new(config.clone(), faults.clone(), algo.clone())
        .expect("valid config for the active engine");
    let mut a = Simulation::new(config.clone(), faults.clone(), algo.clone())
        .expect("valid config for the active engine");
    let mut r = ReferenceSimulation::new(config, faults, algo.clone())
        .expect("valid config for the reference engine");
    a.attach_sanitizer(None);
    r.attach_sanitizer(None);
    let (unaudited, active, reference) = (plain.run(), a.run(), r.run());
    for (engine, sanitizer) in [("active", a.sanitizer()), ("reference", r.sanitizer())] {
        let s = sanitizer.expect("every equivalence case runs audited");
        assert!(
            s.is_clean(),
            "{engine} engine violated {} invariant(s) under {}; first: {:?}",
            s.violation_count(),
            algo.name(),
            s.violations().first()
        );
    }
    assert_eq!(
        unaudited,
        active,
        "attaching the sanitizer changed the active engine's run under {}",
        algo.name()
    );
    assert_eq!(
        active.report,
        reference.report,
        "active-set and full-scan engines diverged under {}",
        algo.name()
    );
    assert_eq!(active.hit_max_cycles, reference.hit_max_cycles);
    assert_eq!(active.forced_absorptions, reference.forced_absorptions);
    assert_eq!(active.dropped_messages, reference.dropped_messages);
    (active.message_table_peak, reference.message_table_peak)
}

/// Legacy SW-Based entry point used by the torus/mesh baseline cases.
fn assert_equivalent(config: SimConfig, faults: FaultSet, adaptive: bool) -> (u64, u64) {
    if adaptive {
        assert_equivalent_with(config, faults, SwBasedRouting::adaptive())
    } else {
        assert_equivalent_with(config, faults, SwBasedRouting::deterministic())
    }
}

fn quick(radix: u16, dims: u32, v: usize, m: u32, rate: f64, seed: u64) -> SimConfig {
    quick_topology(TopologySpec::torus(radix, dims), v, m, rate, seed)
}

fn quick_topology(spec: TopologySpec, v: usize, m: u32, rate: f64, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_topology(spec, v, m, rate).with_seed(seed);
    c.warmup_messages = 100;
    c.stop = StopCondition::MeasuredMessages(500);
    c.max_cycles = 100_000;
    c
}

fn faults_for(scenario: &FaultScenario, torus: &AnyTopology, seed: u64) -> FaultSet {
    let mut rng = StdRng::seed_from_u64(seed);
    scenario
        .realize(torus, &mut rng)
        .expect("realizable faults")
}

#[test]
fn fault_free_across_seeds_and_loads() {
    for seed in [1, 2, 3] {
        for rate in [0.003, 0.02] {
            for adaptive in [false, true] {
                let config = quick(4, 2, 4, 8, rate, seed);
                assert_equivalent(config, FaultSet::new(), adaptive);
            }
        }
    }
}

#[test]
fn random_node_faults_across_seeds() {
    let torus = AnyTopology::torus(8, 2).unwrap();
    let scenario = FaultScenario::RandomNodes { count: 5 };
    for seed in [7, 8] {
        for adaptive in [false, true] {
            let config = quick(8, 2, 4, 16, 0.003, seed);
            let faults = faults_for(&scenario, &torus, seed ^ 0xFA);
            assert_equivalent(config, faults, adaptive);
        }
    }
}

#[test]
fn region_faults_match() {
    let torus = AnyTopology::torus(8, 2).unwrap();
    let scenario = FaultScenario::centered_region(
        torus.grid().unwrap(),
        torus_faults::RegionShape::paper_u_8(),
    );
    let faults = faults_for(&scenario, &torus, 0);
    let config = quick(8, 2, 4, 16, 0.003, 9);
    assert_equivalent(config, faults, true);
}

#[test]
fn three_dimensional_faulted_match() {
    let torus = AnyTopology::torus(4, 3).unwrap();
    let scenario = FaultScenario::RandomNodes { count: 3 };
    let faults = faults_for(&scenario, &torus, 5);
    let config = quick(4, 3, 4, 8, 0.004, 4);
    assert_equivalent(config, faults, false);
}

#[test]
fn near_saturation_cycle_capped_match() {
    // A saturated network exercises the busy sets at full occupancy and the
    // cycle-cap exit path.
    let mut config = quick(4, 2, 4, 8, 0.2, 13);
    config.stop = StopCondition::Cycles(4_000);
    config.max_cycles = 4_000;
    assert_equivalent(config, FaultSet::new(), false);
}

#[test]
fn nonzero_delays_match() {
    // Router decision time and re-injection overhead shift `ready_at`
    // schedules; both engines must agree cycle for cycle.
    let torus = AnyTopology::torus(8, 2).unwrap();
    let faults = faults_for(&FaultScenario::RandomNodes { count: 4 }, &torus, 3);
    let mut config = quick(8, 2, 4, 16, 0.003, 21);
    config.router_delay = 2;
    config.reinjection_delay = 40;
    assert_equivalent(config, faults, false);
}

#[test]
fn message_table_stays_bounded_under_sustained_traffic() {
    // The active engine's table peak must track the in-flight population;
    // the reference's append-only table grows with the delivered total.
    let mut config = quick(4, 2, 4, 8, 0.02, 2);
    config.stop = StopCondition::Cycles(50_000);
    config.max_cycles = 50_000;
    let (active_peak, reference_total) = assert_equivalent(config, FaultSet::new(), false);
    assert!(
        reference_total > 5_000,
        "run too short to be meaningful: {reference_total}"
    );
    assert!(
        active_peak < reference_total / 10,
        "active peak {active_peak} should be far below the append-only total {reference_total}"
    );
}

#[test]
fn tiny_stall_threshold_matches() {
    // A threshold far below the legacy 128-cycle watchdog stride: the
    // deadline-driven scans must reproduce the reference's every-cycle checks
    // exactly (including when the watchdog never needs to fire).
    let mut config = quick(4, 2, 4, 8, 0.02, 6);
    config.stall_absorb_threshold = 37;
    config.stop = StopCondition::MeasuredMessages(300);
    assert_equivalent(config, FaultSet::new(), false);
}

#[test]
fn mesh_fault_free_across_seeds_and_loads() {
    // Non-wrap topologies exercise the absent-edge-port paths of both
    // engines; they must stay bit-identical there too.
    for seed in [1, 2] {
        for rate in [0.003, 0.02] {
            for adaptive in [false, true] {
                let config = quick_topology(TopologySpec::mesh(4, 2), 4, 8, rate, seed);
                assert_equivalent(config, FaultSet::new(), adaptive);
            }
        }
    }
}

#[test]
fn mesh_random_node_faults_match() {
    let mesh = AnyTopology::mesh(8, 2).unwrap();
    let scenario = FaultScenario::RandomNodes { count: 4 };
    for adaptive in [false, true] {
        let config = quick_topology(TopologySpec::mesh(8, 2), 4, 16, 0.003, 15);
        let faults = faults_for(&scenario, &mesh, 0x3E5);
        assert_equivalent(config, faults, adaptive);
    }
}

#[test]
fn mesh_region_faults_match() {
    let mesh = AnyTopology::mesh(8, 2).unwrap();
    let scenario = FaultScenario::centered_region(
        mesh.grid().unwrap(),
        torus_faults::RegionShape::paper_u_8(),
    );
    let faults = faults_for(&scenario, &mesh, 0);
    let config = quick_topology(TopologySpec::mesh(8, 2), 4, 16, 0.003, 9);
    assert_equivalent(config, faults, true);
}

#[test]
fn hypercube_fault_free_and_faulted_match() {
    let cube = AnyTopology::hypercube(5).unwrap();
    for adaptive in [false, true] {
        let config = quick_topology(TopologySpec::hypercube(5), 3, 8, 0.005, 31);
        assert_equivalent(config, FaultSet::new(), adaptive);
        let config = quick_topology(TopologySpec::hypercube(5), 3, 8, 0.005, 32);
        let faults = faults_for(&FaultScenario::RandomNodes { count: 2 }, &cube, 77);
        assert_equivalent(config, faults, adaptive);
    }
}

#[test]
fn mesh_minimum_vc_configurations_match() {
    // Meshes need no dateline VC: one VC suffices for deterministic routing
    // and two for Duato's protocol. Both engines must agree at the minimum.
    let config = quick_topology(TopologySpec::mesh(4, 2), 1, 8, 0.01, 5);
    assert_equivalent(config, FaultSet::new(), false);
    let config = quick_topology(TopologySpec::mesh(4, 2), 2, 8, 0.01, 6);
    assert_equivalent(config, FaultSet::new(), true);
}

#[test]
fn mixed_radix_network_matches() {
    // A 4x4 wrapped plane with an open radix-3 third dimension (48 nodes).
    let spec = TopologySpec::mixed(vec![4, 4, 3], vec![true, true, false]);
    let net = spec.build().unwrap();
    let config = quick_topology(spec, 4, 8, 0.003, 23);
    let faults = faults_for(&FaultScenario::RandomNodes { count: 3 }, &net, 41);
    assert_equivalent(config, faults, false);
}

#[test]
fn turn_model_mesh_fault_free_across_seeds_and_loads() {
    // The negative-first turn model exercises a different deterministic
    // output and phase-restricted adaptive candidates; both engines must stay
    // bit-identical across seeds and loads.
    for seed in [1, 2] {
        for rate in [0.003, 0.02] {
            let config = quick_topology(TopologySpec::mesh(4, 2), 2, 8, rate, seed);
            assert_equivalent_with(
                config.clone(),
                FaultSet::new(),
                TurnModelRouting::adaptive(),
            );
            assert_equivalent_with(config, FaultSet::new(), TurnModelRouting::deterministic());
        }
    }
}

#[test]
fn turn_model_mesh_random_node_faults_match() {
    let mesh = AnyTopology::mesh(8, 2).unwrap();
    let scenario = FaultScenario::RandomNodes { count: 4 };
    let faults = faults_for(&scenario, &mesh, 0x3E5);
    let config = quick_topology(TopologySpec::mesh(8, 2), 4, 16, 0.003, 15);
    assert_equivalent_with(config.clone(), faults.clone(), TurnModelRouting::adaptive());
    assert_equivalent_with(config, faults, TurnModelRouting::deterministic());
}

#[test]
fn turn_model_hypercube_matches() {
    let cube = AnyTopology::hypercube(5).unwrap();
    let config = quick_topology(TopologySpec::hypercube(5), 2, 8, 0.005, 31);
    assert_equivalent_with(
        config.clone(),
        FaultSet::new(),
        TurnModelRouting::adaptive(),
    );
    let faults = faults_for(&FaultScenario::RandomNodes { count: 2 }, &cube, 77);
    assert_equivalent_with(config, faults, TurnModelRouting::adaptive());
}

#[test]
fn turn_model_mixed_radix_open_mesh_matches() {
    // A mixed-radix all-open shape (6x3x2, 36 nodes): the turn model accepts
    // any network as long as no dimension wraps.
    let spec = TopologySpec::mixed(vec![6, 3, 2], vec![false, false, false]);
    let net = spec.build().unwrap();
    let config = quick_topology(spec, 2, 8, 0.004, 19);
    let faults = faults_for(&FaultScenario::RandomNodes { count: 2 }, &net, 53);
    assert_equivalent_with(config, faults, TurnModelRouting::adaptive());
}

#[test]
fn turn_model_minimum_vc_configurations_match() {
    // The reduced VC budget: one VC suffices for the deterministic flavour,
    // two (1 escape + 1 adaptive) for the adaptive flavour.
    let config = quick_topology(TopologySpec::mesh(4, 2), 1, 8, 0.01, 5);
    assert_equivalent_with(config, FaultSet::new(), TurnModelRouting::deterministic());
    let config = quick_topology(TopologySpec::mesh(4, 2), 2, 8, 0.01, 6);
    assert_equivalent_with(config, FaultSet::new(), TurnModelRouting::adaptive());
}

#[test]
fn fat_tree_fault_free_across_seeds_and_loads() {
    // Indirect-network traffic: messages are injected and absorbed only at
    // the endpoint leaves; switches never source traffic. Both engines must
    // stay bit-identical under either up/down flavour.
    for seed in [1, 2] {
        for rate in [0.003, 0.02] {
            let config = quick_topology(TopologySpec::fat_tree(4, 2), 2, 8, rate, seed);
            assert_equivalent_with(config.clone(), FaultSet::new(), UpDownRouting::adaptive());
            assert_equivalent_with(config, FaultSet::new(), UpDownRouting::deterministic());
        }
    }
}

#[test]
fn fat_tree_switch_and_uplink_faults_match() {
    // A dead level-1 switch plus a dead leaf up-link force the re-ascent
    // path through alternate parents; the case runs sanitizer-audited on
    // both engines (conservation, quiescent faulty components) and must
    // stay bit-identical.
    let net = AnyTopology::fat_tree_new(4, 2).unwrap();
    let ft = net.fat_tree().unwrap();
    let mut faults = FaultSet::new();
    faults.fail_node(ft.switch_id(1, 0));
    let leaf = ft.switch_id(0, 1);
    let (port, _) = ft.parents(leaf)[1];
    faults.fail_link(&net, leaf, port, Direction::Plus);
    assert!(faults.num_faulty_links() > 0);
    assert!(faults.preserves_connectivity(&net));
    let config = quick_topology(TopologySpec::fat_tree(4, 2), 2, 8, 0.01, 33);
    assert_equivalent_with(config, faults.clone(), UpDownRouting::adaptive());
    let config = quick_topology(TopologySpec::fat_tree(4, 2), 1, 8, 0.01, 34);
    assert_equivalent_with(config, faults, UpDownRouting::deterministic());
}

#[test]
fn fat_tree_minimum_vc_configurations_match() {
    // The up*/down* channel order alone is deadlock free: one VC suffices
    // for the deterministic flavour, two (1 escape + 1 adaptive) for the
    // adaptive one — on a deeper 2-ary 3-level tree.
    let config = quick_topology(TopologySpec::fat_tree(2, 3), 1, 8, 0.01, 5);
    assert_equivalent_with(config, FaultSet::new(), UpDownRouting::deterministic());
    let config = quick_topology(TopologySpec::fat_tree(2, 3), 2, 8, 0.01, 6);
    assert_equivalent_with(config, FaultSet::new(), UpDownRouting::adaptive());
}

#[test]
fn up_down_rejected_identically_by_both_engines_on_grids() {
    use torus_sim::SimConfigError;
    let config = quick_topology(TopologySpec::torus(4, 2), 2, 8, 0.003, 1);
    let active = Simulation::new(config.clone(), FaultSet::new(), UpDownRouting::adaptive())
        .err()
        .expect("active engine must reject up/down routing on a torus");
    let reference =
        ReferenceSimulation::new(config, FaultSet::new(), UpDownRouting::deterministic())
            .err()
            .expect("reference engine must reject up/down routing on a torus");
    assert!(matches!(active, SimConfigError::UnsupportedRouting { .. }));
    assert!(matches!(
        reference,
        SimConfigError::UnsupportedRouting { .. }
    ));
}

#[test]
fn invalid_rate_rejected_identically_by_both_engines() {
    use torus_sim::SimConfigError;
    for (rate, rendered) in [(f64::NAN, "NaN"), (-0.5, "-0.5"), (f64::INFINITY, "inf")] {
        let config = quick_topology(TopologySpec::torus(4, 2), 2, 8, rate, 1);
        let expected = Some(SimConfigError::InvalidRate(rendered.into()));
        let algo = SwBasedRouting::deterministic();
        let active = Simulation::new(config.clone(), FaultSet::new(), algo).err();
        let reference = ReferenceSimulation::new(config, FaultSet::new(), algo).err();
        assert_eq!(active, expected, "active engine on rate {rendered}");
        assert_eq!(reference, expected, "reference engine on rate {rendered}");
    }
}

#[test]
fn turn_model_rejected_identically_by_both_engines_on_wrapped_dimensions() {
    use torus_sim::SimConfigError;
    for spec in [
        TopologySpec::torus(4, 2),
        TopologySpec::mixed(vec![4, 3], vec![true, false]),
    ] {
        let config = quick_topology(spec, 4, 8, 0.003, 1);
        let active = Simulation::new(
            config.clone(),
            FaultSet::new(),
            TurnModelRouting::adaptive(),
        )
        .err()
        .expect("active engine must reject the turn model on wrapped dims");
        let reference =
            ReferenceSimulation::new(config, FaultSet::new(), TurnModelRouting::deterministic())
                .err()
                .expect("reference engine must reject the turn model on wrapped dims");
        assert!(matches!(active, SimConfigError::UnsupportedRouting { .. }));
        assert!(matches!(
            reference,
            SimConfigError::UnsupportedRouting { .. }
        ));
    }
}
