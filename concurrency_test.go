package decomine

// Concurrent-use tests for System: the plan cache, the prepared-state
// cache and the shared worker pool must all be safe when mining, FSM and
// Explain calls arrive from many goroutines at once. Run under -race in
// CI.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestConcurrentSystemUse(t *testing.T) {
	g := GenerateGNP(150, 0.06, 901).WithRandomLabels(2, 902)
	sys := NewSystem(g, Options{Threads: 4, CostModel: CostLocality})
	defer sys.Close()

	tri, err := PatternByName("clique-3")
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := PatternByName("cycle-4")
	if err != nil {
		t.Fatal(err)
	}

	// Reference results computed serially first.
	wantTri, err := sys.GetPatternCount(tri)
	if err != nil {
		t.Fatal(err)
	}
	wantCyc, err := sys.GetPatternCount(cyc)
	if err != nil {
		t.Fatal(err)
	}
	wantFSM, timedOut, err := sys.FSMWithin(20, 2, time.Minute)
	if err != nil || timedOut {
		t.Fatalf("fsm baseline: %v timedOut=%v", err, timedOut)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	fail := func(msg string) { errs <- msg }

	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				got, err := sys.GetPatternCount(tri)
				if err != nil {
					fail("count: " + err.Error())
					return
				}
				if got != wantTri {
					fail("triangle count changed under concurrency")
					return
				}
				got, err = sys.GetPatternCount(cyc)
				if err != nil {
					fail("count: " + err.Error())
					return
				}
				if got != wantCyc {
					fail("cycle count changed under concurrency")
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				out, err := sys.Explain(tri)
				if err != nil {
					fail("explain: " + err.Error())
					return
				}
				if !strings.Contains(out, "pattern:") {
					fail("explain output malformed under concurrency")
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			fps, timedOut, err := sys.FSMWithin(20, 2, time.Minute)
			if err != nil {
				fail("fsm: " + err.Error())
				return
			}
			if timedOut {
				fail("fsm timed out")
				return
			}
			if len(fps) != len(wantFSM) {
				fail("FSM result size changed under concurrency")
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestSystemCloseIdempotentAndUsableAfter(t *testing.T) {
	g := GenerateGNP(100, 0.08, 911)
	sys := NewSystem(g, Options{Threads: 4, CostModel: CostLocality})
	p, err := PatternByName("clique-3")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.GetPatternCount(p)
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	sys.Close() // idempotent
	// Runs after Close fall back to per-run workers but still succeed.
	got, err := sys.GetPatternCount(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-Close count %d != %d", got, want)
	}
}

// TestWorkerPanicFailsQuery: a UDF that panics fails its query with
// ErrWorkerPanic instead of killing the process, whether it ran on a
// pool worker (Threads 4) or in line on the submitting goroutine
// (Threads 1), and the same System and pool keep answering afterwards.
func TestWorkerPanicFailsQuery(t *testing.T) {
	g := GenerateGNP(120, 0.08, 77)
	tri := MustParsePattern("0-1,1-2,2-0")
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			sys := NewSystem(g, Options{Threads: threads})
			defer sys.Close()
			want, err := sys.GetPatternCount(tri)
			if err != nil {
				t.Fatal(err)
			}

			boom := errors.New("udf failure")
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic escaped the query: %v", r)
					}
				}()
				err = sys.ProcessPartialEmbeddings(tri, func(int) UDF {
					return func(*PartialEmbedding, int64) { panic(boom) }
				})
			}()
			if !errors.Is(err, ErrWorkerPanic) || !errors.Is(err, boom) {
				t.Fatalf("panicking UDF: err = %v, want ErrWorkerPanic wrapping the panic value", err)
			}

			var delivered atomic.Int64
			err = sys.ProcessPartialEmbeddings(tri, func(int) UDF {
				return func(_ *PartialEmbedding, count int64) { delivered.Add(count) }
			})
			if err != nil || delivered.Load() == 0 {
				t.Fatalf("UDF after a panic: err = %v, %d matchings delivered", err, delivered.Load())
			}
			if got, err := sys.GetPatternCount(tri); err != nil || got != want {
				t.Fatalf("count after a panic: %d, %v; want %d", got, err, want)
			}
		})
	}
}
