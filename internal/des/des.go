// Package des is the list scheduler both event simulators run on. A
// simulator adds the tasks of one iteration in a topological order; each
// task starts once its dependencies have finished and every resource it
// holds is free, and then keeps those resources busy until it finishes.
// Tasks are scheduled in the order they are added, so a graph is
// scheduled as it is built and a run is deterministic.
package des

import "fmt"

// None is the resource of a task that runs on nothing: it holds no
// resource and finishes Dur after its last dependency. A join is such a
// task with no duration.
const None = -1

// Task is one schedulable item.
type Task struct {
	// On is the resource the task runs on, which is charged its busy
	// time, or None for a join.
	On int
	// Hold is a half-open range of further resources the task holds
	// while it runs, uncharged. A task on None holds nothing.
	Hold [2]int
	// Dur is the task's duration in seconds.
	Dur float64
}

// Graph list-schedules tasks over exclusive resources. The zero value is
// ready after Reset, and Reset keeps the storage for the next run.
type Graph struct {
	finish []float64
	free   []float64
	busy   []float64
	span   float64
	err    error
}

// Reset empties the graph for a run over the given number of resources.
func (g *Graph) Reset(resources int) {
	g.finish = g.finish[:0]
	g.free = append(g.free[:0], make([]float64, resources)...)
	g.busy = append(g.busy[:0], make([]float64, resources)...)
	g.span, g.err = 0, nil
}

// Add schedules t after deps, which must index earlier tasks, and returns
// t's index. A dependency that is not earlier is ignored and recorded as
// the graph's error.
func (g *Graph) Add(t Task, deps ...int) int {
	// Plain comparisons rather than the builtin max, whose NaN and signed
	// zero handling made Add half again as slow.
	start := 0.0
	for _, d := range deps {
		if d < 0 || d >= len(g.finish) {
			if g.err == nil {
				g.err = fmt.Errorf("des: task %d depends on task %d, which is not earlier", len(g.finish), d)
			}
			continue
		}
		if f := g.finish[d]; f > start {
			start = f
		}
	}
	if t.On != None {
		if f := g.free[t.On]; f > start {
			start = f
		}
		for r := t.Hold[0]; r < t.Hold[1]; r++ {
			if f := g.free[r]; f > start {
				start = f
			}
		}
	}
	end := start + t.Dur
	if t.On != None {
		g.free[t.On] = end
		g.busy[t.On] += t.Dur
		for r := t.Hold[0]; r < t.Hold[1]; r++ {
			g.free[r] = end
		}
	}
	if end > g.span {
		g.span = end
	}
	g.finish = append(g.finish, end)
	return len(g.finish) - 1
}

// Len returns the number of tasks added since Reset.
func (g *Graph) Len() int { return len(g.finish) }

// Finish returns task i's finish time.
func (g *Graph) Finish(i int) float64 { return g.finish[i] }

// Busy returns the time tasks ran on resource r.
func (g *Graph) Busy(r int) float64 { return g.busy[r] }

// Makespan returns the latest finish time.
func (g *Graph) Makespan() float64 { return g.span }

// Err reports the first dependency that was not earlier than its task.
func (g *Graph) Err() error { return g.err }
