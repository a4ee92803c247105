package faults

// Injector draws per-task fault events from a scenario's seeded stream.
// The two-machine simulator creates one injector per run and calls
// TaskFault once per task as it creates the task, so the draws happen in
// task-creation order. Creation order is deterministic (and is also the
// schedule order), so the whole injection sequence replays identically
// for a given (seed, workload, machine) triple.
type Injector struct {
	sc  Scenario
	rng splitmix
}

// maxRetries caps the re-execution attempts one transient fault charges a
// single task, bounding the worst-case injected delay.
const maxRetries = 8

// NewInjector validates the scenario and seeds the stream.
func NewInjector(sc Scenario) (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &Injector{sc: sc, rng: newSplitmix(uint64(sc.Seed))}, nil
}

// TaskFault draws the transient-fault outcome of one task on the given
// group: the number of failed attempts to charge (each failed attempt
// re-executes the task in full) and the total backoff delay.
func (in *Injector) TaskFault(group int) (retries int, backoff float64) {
	for _, f := range in.sc.Faults {
		if f.Kind != KindTransient || f.Group != group || f.Rate == 0 {
			continue
		}
		for attempt := 0; attempt < maxRetries; attempt++ {
			if in.rng.float64() >= f.Rate {
				break
			}
			retries++
			backoff += f.Backoff
		}
	}
	return retries, backoff
}

// LossEvent is one fired permanent group loss.
type LossEvent struct {
	// Group is the afflicted group.
	Group int
	// Penalty is the checkpoint-restart cost in seconds: the fixed
	// overhead plus the re-execution of the progress lost since the last
	// checkpoint.
	Penalty float64
}

// LossPenalties draws the checkpoint-restart penalties of the scenario's
// GroupLoss faults for an iteration of the given duration. The loss point
// is drawn uniformly over the iteration (checkpoints are taken at
// iteration boundaries, so the progress since the start is what must be
// re-executed).
func (in *Injector) LossPenalties(iterTime float64) []LossEvent {
	var out []LossEvent
	for _, f := range in.sc.Faults {
		if f.Kind != KindGroupLoss {
			continue
		}
		point := in.rng.float64()
		out = append(out, LossEvent{Group: f.Group, Penalty: in.sc.CheckpointOverhead + point*iterTime})
	}
	return out
}

// splitmix is the splitmix64 generator (Steele et al., 2014): tiny,
// allocation-free and with a well-understood equidistribution — exactly
// enough for reproducible fault draws without importing math/rand's
// global state.
type splitmix struct {
	state uint64
}

func newSplitmix(seed uint64) splitmix {
	return splitmix{state: seed}
}

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *splitmix) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}
