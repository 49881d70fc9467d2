"""
Learning the navigation program
===============================

The solver is a recursive first-order program learned from a single 2x2
all-floor map and one fully generalized example.  Two clause templates are
available: Identity P(x,y) :- Q(x,y) and Tailrec P(x,y) :- Q(x,z), P(z,y).
"""

from gridnav import (
    ActionBackground,
    actions_to_text,
    fixture_map,
    generalized_example,
    instantiate_actions,
    learn,
    playback,
    render_map,
    solve,
    zero_map,
)

# The training map has four floor tiles and nothing else.
grid = zero_map()
print("training map:")
print(render_map(grid))
print()

# Its ground action model, read off the map's tiles: one step action per
# ordered pair of adjacent passable cells, eight in total.  The listing is
# the background queried with the position left unbound.
background = ActionBackground(grid)
print(actions_to_text(instantiate_actions(grid)))

# The training example binds only the map identifier; position and tile are
# left unknown on both sides, which is what makes the program general.
example = generalized_example("zero")
print("example:", f"s({example.initial!r},{example.goal!r})")
print()

# Learning collects every (template, action symbol) substitution used in a
# refutation of the example: 2 templates x 4 actions = 8 clauses.  It reads
# them off the reachable states (the Top program), one pass forward and one
# back, so any map with steps in all four directions gives the same 8
# clauses, in time linear in the map.
hypothesis = learn([example], background, target="s")
print(hypothesis.to_text())

# The same 8 clauses plan on any map over that map's ActionBackground, which
# reads the step actions off the grid at each state the search reaches.
maze = fixture_map("maze_a")
plan = solve(maze, hypothesis)
print(f"maze_a plan ({len(plan)} steps): {plan.to_labels_line()}")
ok, final = playback(maze, plan.labels)
print("playback reaches the end tile:", ok)

positions = [maze.start]
for label in plan.labels:
    positions.append(positions[-1].shifted(label))
print(render_map(maze, positions))
