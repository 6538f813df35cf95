package decomine_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"decomine"
)

// TestFSMWarmHeapFlat repeats one FSM job on a warm System: the plans
// and their frame pools are built by the first jobs, so the live heap
// after job 10 must stay within 25 % of the live heap after job 2.
// Per-frame hash tables that grow on stale slots, or per-plan copies of
// |V|-sized vertex sets, make it climb.
//
// Pooled frames survive one collection, so how many are live after a
// job depends on whether the pacer also collected during it: one job
// allocates about as much as the pacer's headroom, so some jobs ran a
// collection and some did not, and the live heap stepped by the frames
// of every plan the job ran. From job 2 on the test therefore collects
// only between jobs: every measurement then counts every pooled frame.
func TestFSMWarmHeapFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are not representative")
	}
	g := decomine.GenerateGNP(8000, 0.001, 71).WithRandomLabels(3, 72)
	sys := decomine.NewSystem(g, decomine.Options{Threads: 2, ProfileSampleEdges: 2000, ProfileTrials: 2000})
	defer sys.Close()
	var afterTwo uint64
	var patterns int
	for job := 1; job <= 10; job++ {
		if job == 2 {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
		}
		res, err := sys.FSM(100, 3)
		if err != nil {
			t.Fatal(err)
		}
		if job == 1 {
			patterns = len(res)
		} else if len(res) != patterns {
			t.Fatalf("job %d: %d frequent patterns, job 1 found %d", job, len(res), patterns)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		live := ms.HeapAlloc
		t.Logf("job %d: %d patterns, live heap %.1f MB", job, len(res), float64(live)/(1<<20))
		if job == 2 {
			afterTwo = live
		}
		if job == 10 && float64(live) > 1.25*float64(afterTwo) {
			t.Fatalf("live heap %.1f MB after warm job 10, %.1f MB after job 2 (limit 1.25x)",
				float64(live)/(1<<20), float64(afterTwo)/(1<<20))
		}
	}
}
