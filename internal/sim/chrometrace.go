package sim

import (
	"fmt"

	"accpar/internal/obs"
)

// Lane layout of the simulator's Chrome trace: each machine owns two
// thread lanes inside the simulator process, compute tasks on the even
// tid and network transfers on the odd tid.
func laneTid(machine int, onNet bool) int {
	tid := machine * 2
	if onNet {
		tid++
	}
	return tid
}

// ChromeTraceEvents renders the recorded timeline as Chrome Trace Event
// Format events: one complete ("X") event per task, placed on a
// per-machine, per-resource lane under the given pid (labelled procName),
// preceded by the metadata events that name the process and lanes.
// Timestamps are the format's microseconds, converted from the
// simulator's seconds. Distinct pids let several runs — e.g. the three
// simulations of a resilience experiment — coexist in one document as
// separate process groups.
//
// It returns an error when no timeline was recorded — exporting an empty
// trace silently would read as "the simulation ran nothing".
func (r *Result) ChromeTraceEvents(pid int, procName string, names [2]string) ([]obs.Event, error) {
	if len(r.Timeline) == 0 {
		return nil, fmt.Errorf("sim: no timeline recorded (set Config.RecordTimeline)")
	}
	events := make([]obs.Event, 0, len(r.Timeline)+5)
	events = append(events, obs.ProcessNameEvent(pid, procName))
	for m := 0; m < 2; m++ {
		name := names[m]
		if name == "" {
			name = fmt.Sprintf("m%d", m)
		}
		events = append(events,
			obs.ThreadNameEvent(pid, laneTid(m, false), name+" compute"),
			obs.ThreadNameEvent(pid, laneTid(m, true), name+" network"),
		)
	}
	for _, t := range r.Timeline {
		events = append(events, obs.Event{
			Name: t.Name,
			Cat:  "sim",
			Ph:   "X",
			Ts:   t.Start * 1e6,
			Dur:  (t.End - t.Start) * 1e6,
			Pid:  pid,
			Tid:  laneTid(t.Machine, t.OnNet),
		})
	}
	return events, nil
}
