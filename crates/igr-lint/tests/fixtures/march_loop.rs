//! Fixture: a hand-rolled `.step()` loop in library code fires
//! `single-march-loop`; the same call in a `#[cfg(test)]` region, a string
//! or a comment does not.

pub fn run_ranks(solver: &mut Solver, steps: usize) {
    for _ in 0..steps {
        solver.step();
    }
}

pub fn describe() -> &'static str {
    // Calling solver.step() here would be a second marching loop.
    "march with Driver::run, never solver.step() directly"
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_step_by_hand() {
        let mut solver = Solver::default();
        solver.step();
    }
}
