package engine

import (
	"sync"
	"testing"
	"time"

	"decomine/internal/ast"
	"decomine/internal/graph"
)

// TestProfileAttribution runs a profiled triangle count and checks that
// the sampled windows attribute essentially all of the run's wall time
// (the ≥95% bound is asserted on a warm second run at one thread, where
// scheduler and allocation noise is minimal).
func TestProfileAttribution(t *testing.T) {
	g := graph.RMAT(11, 8, 5)
	prog := buildTriangleProgram()
	// Warm-up: page in the graph and let the frame pool fill.
	if _, err := Run(g, prog, Options{Threads: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, prog, Options{Threads: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p == nil {
		t.Fatal("Options.Profile set but Result.Profile nil")
	}
	if p.Samples == 0 || len(p.Buckets) == 0 {
		t.Fatalf("empty profile: %+v", p)
	}
	frac := float64(p.TotalNS) / float64(res.Elapsed.Nanoseconds())
	if frac < 0.95 {
		t.Errorf("profile attributes %.1f%% of wall time, want >= 95%% (profile %v of %v)",
			frac*100, time.Duration(p.TotalNS), res.Elapsed)
	}
	if frac > 1.02 {
		t.Errorf("profile attributes %.1f%% of wall time (> 100%%: double counting)", frac*100)
	}
	// Exact per-opcode instruction counts ride along.
	var ops int64
	for _, c := range p.Ops {
		ops += c
	}
	if ops != res.InstructionsExecuted() {
		t.Fatalf("profile op total %d != executed %d", ops, res.InstructionsExecuted())
	}
	// The triangle workload intersects on every inner iteration, so the
	// kernel dimension must be populated, with element counts.
	if len(p.Kernels) == 0 || len(p.KernelElems) == 0 {
		t.Fatalf("no kernel attribution: kernels=%v elems=%v", p.Kernels, p.KernelElems)
	}
	// The exact-timing subsample must have fired on a workload with
	// millions of dispatches.
	var kSamples int64
	for _, n := range p.KernelSamples {
		kSamples += n
	}
	if kSamples == 0 {
		t.Fatal("no exactly timed kernel dispatches recorded")
	}
}

// TestProfileOffByDefault: an unprofiled run must not carry a profile,
// and profiling must not change results or schedule-invariant counters.
func TestProfileOffByDefault(t *testing.T) {
	g := graph.RMAT(9, 8, 7)
	prog := buildTriangleProgram()
	plain, err := Run(g, prog, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Profile != nil {
		t.Fatal("unprofiled run carries a Profile")
	}
	prof, err := Run(g, prog, Options{Threads: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Globals[0] != plain.Globals[0] {
		t.Fatalf("profiling changed the count: %d != %d", prof.Globals[0], plain.Globals[0])
	}
	for op := range plain.OpCounts {
		if prof.OpCounts[op] != plain.OpCounts[op] {
			t.Fatalf("profiling changed op counts at %s", ast.OpCode(op))
		}
	}
	for k := range plain.KernelCounts {
		if prof.KernelCounts[k] != plain.KernelCounts[k] ||
			prof.KernelElems[k] != plain.KernelElems[k] {
			t.Fatalf("profiling changed kernel counters at %s", KernelNames[k])
		}
	}
}

// TestKernelElemsScheduleInvariant extends the schedule-invariance
// guarantee to the element counters feeding calibration.
func TestKernelElemsScheduleInvariant(t *testing.T) {
	g := graph.RMAT(9, 8, 21)
	prog := buildTriangleProgram()
	base, err := Run(g, prog, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 4, 8} {
		res, err := Run(g, prog, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		for k := range base.KernelElems {
			if res.KernelElems[k] != base.KernelElems[k] {
				t.Fatalf("threads=%d: kernel %s elems %d != %d",
					threads, KernelNames[k], res.KernelElems[k], base.KernelElems[k])
			}
		}
	}
}

// TestProfiledParallelRunMergesWorkers checks that worker profiles fold
// into the master's under the work-stealing pool.
func TestProfiledParallelRunMergesWorkers(t *testing.T) {
	g := graph.RMAT(10, 8, 33)
	prog := buildTriangleProgram()
	pool := NewPool(4)
	defer pool.Close()
	res, err := Run(g, prog, Options{Threads: 4, Pool: pool, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil || res.Profile.Samples == 0 {
		t.Fatalf("parallel profiled run produced no samples: %+v", res.Profile)
	}
	var ops int64
	for _, c := range res.Profile.Ops {
		ops += c
	}
	if ops != res.InstructionsExecuted() {
		t.Fatalf("profile op total %d != executed %d", ops, res.InstructionsExecuted())
	}
}

// progressRecorder polls a tracker concurrently with a run and records
// the observed fractions.
type progressRecorder struct {
	mu   sync.Mutex
	obsd []float64
}

func (r *progressRecorder) poll(p *ProgressTracker, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		f := p.Fraction()
		r.mu.Lock()
		r.obsd = append(r.obsd, f)
		r.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
	}
}

func (r *progressRecorder) check(t *testing.T, label string) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := 0.0
	for i, f := range r.obsd {
		if f < prev {
			t.Fatalf("%s: progress regressed at sample %d: %v -> %v", label, i, prev, f)
		}
		if f < 0 || f > 1 {
			t.Fatalf("%s: fraction %v outside [0,1]", label, f)
		}
		prev = f
	}
}

func TestProgressMonotonicAndCompletes(t *testing.T) {
	g := graph.RMAT(10, 8, 5)
	prog := buildTriangleProgram()
	for _, threads := range []int{1, 4} {
		tracker := &ProgressTracker{}
		rec := &progressRecorder{}
		stop := make(chan struct{})
		go rec.poll(tracker, stop)
		res, err := Run(g, prog, Options{Threads: threads, Progress: tracker})
		close(stop)
		if err != nil {
			t.Fatal(err)
		}
		if res.Canceled {
			t.Fatal("unexpected cancel")
		}
		if f := tracker.Fraction(); f != 1.0 {
			t.Fatalf("threads=%d: final fraction %v, want exactly 1.0", threads, f)
		}
		rec.check(t, "steal")
	}
}

// TestProgressConcurrentQueries runs several tracked queries at once on
// a shared pool — each tracker must end at exactly 1.0 and stay
// monotone (exercised under -race in CI).
func TestProgressConcurrentQueries(t *testing.T) {
	g := graph.GNP(250, 0.05, 11)
	prog := buildTriangleProgram()
	pool := NewPool(4)
	defer pool.Close()
	prep := Prepare(g, ast.Lower(prog))

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tracker := &ProgressTracker{}
			rec := &progressRecorder{}
			stop := make(chan struct{})
			go rec.poll(tracker, stop)
			_, err := Run(g, prog, Options{Threads: 4, Pool: pool, Prepared: prep, Progress: tracker})
			close(stop)
			if err != nil {
				errs <- err.Error()
				return
			}
			if f := tracker.Fraction(); f != 1.0 {
				errs <- "concurrent query did not reach 1.0"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestProgressSpansTelescope checks the fixed-point arithmetic: any
// partition of an outer range sums to exactly the segment budget.
func TestProgressSpansTelescope(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 1 << 15} {
		var sum int64
		for lo := 0; lo < n; {
			hi := lo + 1 + (lo % 13)
			if hi > n {
				hi = n
			}
			sum += segSpan(n, lo, hi)
			lo = hi
		}
		if sum != segUnits {
			t.Fatalf("n=%d: spans sum to %d, want %d", n, sum, segUnits)
		}
	}
	var sum int64
	const units, m = 12345, 97
	for lo := 0; lo < m; lo++ {
		sum += elemSpan(units, m, lo, lo+1)
	}
	if sum != units {
		t.Fatalf("elem spans sum to %d, want %d", sum, units)
	}
}
