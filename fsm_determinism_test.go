package decomine

import (
	"reflect"
	"testing"

	"decomine/internal/obs"
)

// TestFSMDeterministicAcrossSystems: two fresh Systems over one labeled
// graph must mine the same frequent patterns with the same supports AND
// execute the same number of VM instructions doing it. The second half
// is the sharp one — which spelling of a candidate reaches the compiler
// (and so which plan it gets) follows the frontier order, so any map
// iteration on the path from edge scan to frontier shows up here.
func TestFSMDeterministicAcrossSystems(t *testing.T) {
	g := GenerateGNP(300, 0.02, 4243).WithRandomLabels(3, 4244)
	instr := obs.Default.Counter("engine.instructions")
	type outcome struct {
		patterns []string
		supports []int64
		instr    int64
	}
	mine := func() outcome {
		sys := NewSystem(g, Options{Threads: 2, ProfileSampleEdges: 2000, ProfileTrials: 2000})
		defer sys.Close()
		before := instr.Load()
		res, err := sys.FSM(40, 3)
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{instr: instr.Load() - before}
		for _, fp := range res {
			o.patterns = append(o.patterns, fp.Pattern.String())
			o.supports = append(o.supports, fp.Support)
		}
		return o
	}
	first := mine()
	if len(first.patterns) < 4 || first.instr == 0 {
		t.Fatalf("workload too small to mean anything: %d patterns, %d instructions", len(first.patterns), first.instr)
	}
	for run := 1; run < 4; run++ {
		if again := mine(); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs from run 0: %d vs %d patterns, %d vs %d instructions; same spellings: %v, same supports: %v",
				run, len(again.patterns), len(first.patterns), again.instr, first.instr,
				reflect.DeepEqual(again.patterns, first.patterns), reflect.DeepEqual(again.supports, first.supports))
		}
	}
}
