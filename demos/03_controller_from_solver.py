"""
From solver to controller
=========================

A controller is a set of 4-tuples (q, o, a, q'): in state q, seeing
observation o, do action a and move to state q'.  Observations are four
characters (up, right, down, left), p for passable and u for unpassable —
that is all a controller ever knows about the world.

Training data comes from the solver itself: fifteen 3x3 maps, one per
observation label, each solved once per passable direction on its plain
action model.  Every plan is a single step, and the behaviour is read off
it: the observation at the step's start, the step's direction, and the
controller state that direction indexes.
"""

from gridnav import (
    fixture_controller,
    generate_behaviours,
    learn_controller,
    learn_solver,
    observation_matrices,
    render_map,
)

solver = learn_solver()

# One matrix per observation label (the all-unpassable label is impossible
# for a cell an agent stands on, so there are 2^4 - 1 = 15 of them).
matrices = observation_matrices()
print(f"{len(matrices)} observation matrices; three of them:")
for matrix in matrices[:3]:
    print(f"--- {matrix.id}")
    print(render_map(matrix))
print()

# Solving a matrix toward each passable neighbor yields one single-step
# behaviour; 32 in total across all matrices.
behaviours = generate_behaviours(matrices, solver)
print(f"{len(behaviours)} behaviours, e.g.:")
for behaviour in behaviours[:4]:
    print("  " + ", ".join(t.as_line() for t in behaviour))
print()

# Learning over the controller tuples, with each behaviour replayed from
# all four incoming states, gives a 128-tuple nondeterministic controller.
controller = learn_controller(solver)
print(f"learned controller: {len(controller.tuples)} tuples")
print("deterministic:", controller.is_deterministic())
print("choices for (q0, pppp):", controller.lookup("q0", "pppp"))
print()

# Compare with the handwritten deterministic controller for maze_a: it maps
# each (q, o) to exactly one action, so it can only ever walk one path.
fixed = fixture_controller("maze_a")
print("handwritten maze_a controller:")
print(fixed.to_text())
print("deterministic:", fixed.is_deterministic())
