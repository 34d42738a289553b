//! Machine-simulator integration: both 1983 machines, pricing real solves,
//! must reproduce the paper's qualitative results end to end (quick
//! problem sizes).

use mspcg::core::{cg_solve, pcg_solve, MStepSsorPreconditioner, PcgOptions, PcgSolution};
use mspcg::fem::plate::{AssembledProblem, OrderedProblem, PlaneStressProblem};
use mspcg::machine::array::{run_fem_machine, ArrayReport};
use mspcg::machine::vector::{run_cyber_pcg, CyberReport};
use mspcg::machine::{ArrayMachineParams, ProcessorAssignment, VectorMachineParams};

fn plate(a: usize) -> (AssembledProblem, OrderedProblem) {
    let asm = PlaneStressProblem::unit_square(a).assemble().unwrap();
    let ord = asm.multicolor().unwrap();
    (asm, ord)
}

/// The Table 2/3 row solve at ‖Δu‖∞ < 1e-6: plain CG at `m = 0`, α = 1 at
/// `m = 1`, least-squares α from `m = 2` on.
fn solve(ord: &OrderedProblem, m: usize) -> PcgSolution {
    let (a, colors, f, opts) = (&ord.matrix, &ord.colors, &ord.rhs, PcgOptions::default());
    match m {
        0 => cg_solve(a, f, &opts),
        1 => pcg_solve(
            a,
            f,
            &MStepSsorPreconditioner::unparametrized(a, colors, 1).unwrap(),
            &opts,
        ),
        _ => pcg_solve(
            a,
            f,
            &MStepSsorPreconditioner::parametrized(a, colors, m).unwrap(),
            &opts,
        ),
    }
    .unwrap()
}

fn cyber(asm: &AssembledProblem, ord: &OrderedProblem, m: usize) -> CyberReport {
    let sol = solve(ord, m);
    let params = VectorMachineParams::default();
    run_cyber_pcg(asm, ord, sol.iterations, sol.stats.precond_steps, &params)
}

fn fem(
    asm: &AssembledProblem,
    ord: &OrderedProblem,
    sol: &PcgSolution,
    p: usize,
    params: &ArrayMachineParams,
) -> ArrayReport {
    let strips = ProcessorAssignment::strips(asm, p).unwrap();
    run_fem_machine(
        asm,
        ord,
        sol.iterations,
        sol.stats.precond_steps,
        &strips,
        params,
    )
}

#[test]
fn cyber_times_are_u_shaped_in_m() {
    // Time drops from m = 0, bottoms out, and the minimizing m > 0.
    let (asm, ord) = plate(14);
    let times: Vec<f64> = (0..=6usize).map(|m| cyber(&asm, &ord, m).seconds).collect();
    let best = times
        .iter()
        .enumerate()
        .min_by(|x, y| x.1.partial_cmp(y.1).unwrap())
        .unwrap()
        .0;
    assert!(best >= 1, "preconditioning should beat plain CG: {times:?}");
    assert!(
        times[best] < times[0] * 0.8,
        "improvement too small: {times:?}"
    );
}

#[test]
fn cyber_dot_products_cost_more_than_updates() {
    // The paper's central premise: inner products are the expensive part.
    let (asm, ord) = plate(12);
    let rep = cyber(&asm, &ord, 0);
    assert!(rep.breakdown.dots > rep.breakdown.updates);
}

#[test]
fn fem_machine_reproduces_table3_speedup_bands() {
    let (asm, ord) = plate(6);
    let params = ArrayMachineParams::default();
    for m in [0usize, 2, 4] {
        let sol = solve(&ord, m);
        let t1 = fem(&asm, &ord, &sol, 1, &params).seconds;
        let t2 = fem(&asm, &ord, &sol, 2, &params).seconds;
        let t5 = fem(&asm, &ord, &sol, 5, &params).seconds;
        let s2 = t1 / t2;
        let s5 = t1 / t5;
        assert!((1.5..2.0).contains(&s2), "m = {m}: s2 = {s2}");
        assert!((2.4..4.5).contains(&s5), "m = {m}: s5 = {s5}");
    }
}

#[test]
fn sum_circuit_reduces_cg_overhead() {
    // The paper motivates the sum/max hardware circuit by the cost of the
    // software global sums. Flip the switch and check the direction.
    let (asm, ord) = plate(6);
    let sol = solve(&ord, 0);
    let soft = ArrayMachineParams::default();
    let hard = ArrayMachineParams {
        sum_circuit: true,
        ..Default::default()
    };
    let rs = fem(&asm, &ord, &sol, 5, &soft);
    let rh = fem(&asm, &ord, &sol, 5, &hard);
    assert!(rh.breakdown.reductions < rs.breakdown.reductions);
    assert!(rh.seconds < rs.seconds);
}

#[test]
fn assignments_scale_to_many_processors() {
    let asm = PlaneStressProblem::unit_square(12).assemble().unwrap();
    for p in [1usize, 2, 3, 4, 6, 11, 22, 33] {
        let assign = ProcessorAssignment::strips(&asm, p).unwrap();
        let total: usize = (0..p).map(|q| assign.nodes_of(q).len()).sum();
        assert_eq!(total, 12 * 11);
        assert!(assign.max_links_used() <= 8);
    }
}
