package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(1) != 1 || Workers(7) != 7 {
		t.Fatal("explicit worker counts must pass through")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("auto worker count must be at least 1")
	}
}

func TestForEachDeterministicError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := ForEach(50, workers, func(i int) error {
			if i >= 20 {
				return fmt.Errorf("slot %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "slot 20" {
			t.Fatalf("workers %d: want lowest-index error slot 20, got %v", workers, err)
		}
	}
}

func TestForEachCoversAllSlots(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		seen := make([]atomic.Bool, 200)
		if err := ForEach(200, workers, func(i int) error {
			if seen[i].Swap(true) {
				return fmt.Errorf("slot %d ran twice", i)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if !seen[i].Load() {
				t.Fatalf("workers %d: slot %d never ran", workers, i)
			}
		}
	}
}
