package des

import "testing"

// TestAddRejectsLaterDependency: a dependency on the task itself, on a
// task not yet added or on a negative index is recorded as the graph's
// error; dependencies on earlier tasks are not.
func TestAddRejectsLaterDependency(t *testing.T) {
	for _, bad := range []int{2, 3, -1} {
		var g Graph
		g.Reset(1)
		a := g.Add(Task{On: 0, Dur: 1})
		g.Add(Task{On: 0, Dur: 1}, a)
		if err := g.Err(); err != nil {
			t.Fatalf("earlier dependency rejected: %v", err)
		}
		g.Add(Task{On: 0, Dur: 1}, bad)
		if g.Err() == nil {
			t.Errorf("dependency on task %d accepted by task 2", bad)
		}
		g.Reset(1)
		if g.Err() != nil || g.Len() != 0 {
			t.Error("Reset kept the error or the tasks")
		}
	}
}

// TestSchedule: a task starts at the latest of its dependencies' finish
// times and the free times of its own and held resources, holds them all
// until it finishes, and charges its duration to its own resource only;
// a join finishes with its last dependency.
func TestSchedule(t *testing.T) {
	var g Graph
	g.Reset(3)
	a := g.Add(Task{On: 0, Dur: 2})                      // [0,2) on 0
	b := g.Add(Task{On: 1, Dur: 1})                      // [0,1) on 1
	c := g.Add(Task{On: 2, Hold: [2]int{0, 2}, Dur: 3})  // waits for 0: [2,5) on 2, holds 0 and 1
	d := g.Add(Task{On: 1, Dur: 1}, b)                   // 1 is held until 5: [5,6)
	j := g.Add(Task{On: None, Hold: [2]int{0, 3}}, a, d) // join: finishes at 6, holds nothing
	e := g.Add(Task{On: 0, Dur: 1}, j)                   // [6,7)
	f := g.Add(Task{On: 2, Dur: 1})                      // 2 is free at 5: [5,6)
	for _, tc := range []struct {
		task int
		want float64
	}{{a, 2}, {b, 1}, {c, 5}, {d, 6}, {j, 6}, {e, 7}, {f, 6}} {
		if got := g.Finish(tc.task); got != tc.want {
			t.Errorf("task %d finishes at %g, want %g", tc.task, got, tc.want)
		}
	}
	for r, want := range []float64{3, 2, 4} {
		if got := g.Busy(r); got != want {
			t.Errorf("resource %d busy %g, want %g", r, got, want)
		}
	}
	if g.Makespan() != 7 || g.Len() != 7 || g.Err() != nil {
		t.Errorf("makespan %g, %d tasks, err %v", g.Makespan(), g.Len(), g.Err())
	}
}
